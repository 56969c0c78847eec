#!/bin/sh
# Go line counts per top-level package: non-test vs test lines (plain `wc -l`,
# comments and blanks included), one row per package plus totals. benchmark/
# and examples/ are excluded — they are harnesses and demos, not the product.
# ROADMAP asks every lattice-collapse PR to report these before and after.
set -eu
cd "$(dirname "$0")/.."

find . -name '*.go' -not -path './benchmark/*' -not -path './examples/*' \
    -not -path './.bench_build/*' -not -path './.git/*' | sort | xargs wc -l |
awk '
$2 == "total" { next }
{
    n = split($2, p, "/")            # ./file.go | ./internal/core/host.go | ./cmd/x/main.go
    pkg = (n == 2) ? "." : (n == 3 ? p[2] : p[2] "/" p[3])
    if (!(pkg in seen)) { seen[pkg] = 1; order[++pkgs] = pkg }
    if ($2 ~ /_test\.go$/) { test[pkg] += $1; tt += $1 } else { prod[pkg] += $1; tp += $1 }
}
END {
    printf "%-32s %9s %9s\n", "package", "non-test", "test"
    for (i = 1; i <= pkgs; i++)
        printf "%-32s %9d %9d\n", order[i], prod[order[i]], test[order[i]]
    printf "%-32s %9d %9d\n", "total", tp, tt
}'
