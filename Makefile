GO ?= go

.PHONY: all build test vet race benchcheck verify bench trace torture chaos loc allocs

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -timeout 30m ./...

# The datapath benchmark is a module of its own (benchmark/go.mod), so the
# targets above never compile it. It wraps backend.Transport/Drive and calls
# the realtime and core constructors directly: vet and test it against the
# tree, so an API change that breaks it fails here and not in the pipeline.
benchcheck:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Full pre-merge gate; same sequence as scripts/verify.sh.
verify: build test vet race benchcheck

# Non-test vs test Go lines per package (benchmark/ and examples/ excluded):
# the number a lattice-collapse PR reports before and after. BASE=<git ref>
# prints the ref's counts beside the working tree's, with the delta.
loc:
	sh scripts/loc.sh $(BASE)

# The datapath benchmark: all six workloads, untraced (benchmark/README.md;
# pass flags with ARGS, e.g. `make bench ARGS="--workload rt-read-128k"`).
bench:
	bash benchmark/run.sh $(ARGS)

# Where the hot path's heap objects come from: each tier-1 alloc test — the
# realtime datapath (128 KiB reads, full-stripe writes, random 4 KiB writes),
# then the size-only simulation (128 KiB RMW writes, degraded reads) — under
# a 4 KiB-rate heap profile, top 25 sites by objects allocated, each table
# headed by the test's own lines: heap bytes per user byte and objects per op
# for every case it measures. The test binary and the profiles go to a temp
# dir; nothing is written into the tree.
# An object-count PR starts from these tables, not from a guess.
allocs:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	for t in TestRealtimeAllocBytesPerUserByte TestSizeOnlySimAllocBytesPerUserByte; do \
		echo "== $$t" && \
		$(GO) test -count=1 -v -run "^$$t\$$" -o "$$d/draid.test" \
			-memprofile "$$d/$$t.prof" -memprofilerate 4096 . && \
		$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 25 "$$d/draid.test" "$$d/$$t.prof" || exit 1; \
	done

# Demo: degraded-read trace, Perfetto-loadable JSON + flame summary.
trace:
	$(GO) run ./cmd/draid-trace -chrome draid-trace.json

# Adversarial fault-injection suites under the race detector: random
# concurrent I/O with mid-run crashes, automatic detection + hot-spare
# rebuild, host failover, the data-integrity tortures (scrub under
# foreground writes, rebuild through UREs, latent-error development), and
# the write-back staging tortures (controller crash mid-destage, intent-log
# adoption, destage racing rebuild), and the declustered-placement tortures
# (AddDrive rebalance racing foreground writes, destage, and a concurrent
# drive failure) — each across ≥2 seeds (seeds are baked into the test
# tables). Slower than `race`; run via FULL=1 scripts/verify.sh.
torture:
	$(GO) test -race -run 'TestTorture' ./internal/core -count=1
	$(GO) test -race -run 'TestAutoRecovery|TestFailoverHost|TestRecoveryTraceDeterminism|TestIntegrityTorture|TestWritebackTorture|TestDeclusterTorture' . -count=1

# Deterministic protocol chaos: one fault (partition, crash+failover, grey
# delay, capsule duplication) placed before every step of a seeded workload,
# healed, and checked against the membership invariants — no acked write
# lost, nothing stale visible, converged scrub. The teeth pass disables
# epoch enforcement and must DETECT the stale-destage corruption.
chaos:
	$(GO) run ./cmd/draid-chaos -wb
	$(GO) run ./cmd/draid-chaos
	$(GO) run ./cmd/draid-chaos -declustered -wb
	$(GO) run ./cmd/draid-chaos -wb -teeth
