#!/bin/sh
# Go line counts per top-level package: non-test vs test lines (plain `wc -l`,
# comments and blanks included), one row per package plus totals. benchmark/
# and examples/ are excluded — they are harnesses and demos, not the product.
# ROADMAP asks every lattice-collapse PR to report these before and after.
#
#   sh scripts/loc.sh          counts of the working tree
#   sh scripts/loc.sh <ref>    the same at <ref> (exported with git archive),
#                              beside the working tree's, and the delta
#                              (make loc BASE=<ref>)
set -eu
cd "$(dirname "$0")/.."

# counts prints "package non-test test" for the tree in the current directory,
# packages in path order.
counts() {
    find . -name '*.go' -not -path './benchmark/*' -not -path './examples/*' \
        -not -path './.bench_build/*' -not -path './.git/*' | sort | xargs wc -l |
    awk '
    $2 == "total" { next }
    {
        n = split($2, p, "/")            # ./file.go | ./internal/core/host.go | ./cmd/x/main.go
        pkg = (n == 2) ? "." : (n == 3 ? p[2] : p[2] "/" p[3])
        if (!(pkg in seen)) { seen[pkg] = 1; order[++pkgs] = pkg }
        if ($2 ~ /_test\.go$/) test[pkg] += $1; else prod[pkg] += $1
    }
    END { for (i = 1; i <= pkgs; i++) print order[i], prod[order[i]] + 0, test[order[i]] + 0 }'
}

if [ $# -eq 0 ] || [ -z "$1" ]; then
    counts | awk '
    BEGIN { printf "%-32s %9s %9s\n", "package", "non-test", "test" }
    { printf "%-32s %9d %9d\n", $1, $2, $3; tp += $2; tt += $3 }
    END { printf "%-32s %9d %9d\n", "total", tp, tt }'
    exit 0
fi

git rev-parse --verify --quiet "$1^{tree}" >/dev/null || { echo "loc.sh: unknown git ref $1" >&2; exit 1; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tree"
git archive "$1" | tar -x -C "$tmp/tree"
(cd "$tmp/tree" && counts) >"$tmp/before"
counts >"$tmp/after"

# Packages in the ref's order, then those only the working tree has; a
# package missing on one side counts zero there.
awk -v ref="$1" '
function row(name, bp, ap, bt, at) {
    printf "%-32s %9d %9d %+9d %9d %9d %+9d\n", name, bp, ap, ap - bp, bt, at, at - bt
}
FNR == NR { bp[$1] = $2; bt[$1] = $3 }
FNR != NR { ap[$1] = $2; at[$1] = $3 }
!($1 in seen) { seen[$1] = 1; order[++pkgs] = $1 }
END {
    printf "non-test and test lines at %s (before) and in the working tree (after)\n", ref
    printf "%-32s %9s %9s %9s %9s %9s %9s\n", "package", "before", "after", "delta", "t-before", "t-after", "t-delta"
    for (i = 1; i <= pkgs; i++) {
        p = order[i]
        row(p, bp[p], ap[p], bt[p], at[p])
        tbp += bp[p]; tap += ap[p]; tbt += bt[p]; tat += at[p]
    }
    row("total", tbp, tap, tbt, tat)
}' "$tmp/before" "$tmp/after"
