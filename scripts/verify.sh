#!/bin/sh
# Full verification recipe (ROADMAP.md "Verify"): build, vet, tests, race.
# Tier-1 is the first two commands; the race pass is slower but catches
# callback-ordering bugs the single-goroutine engine can mask in -race-free
# builds of the test harness itself.
#
# FULL=1 additionally runs the fault-injection torture suites (mid-run
# crashes, automatic detection, hot-spare rebuild, host failover) under
# -race across their multi-seed tables — see `make torture` — plus a
# single-iteration smoke pass over the kernel/harness benchmarks so a
# benchmark that panics or regresses to non-compiling is caught here.
set -eux
cd "$(dirname "$0")/.."

go build ./...
go test ./...
go vet ./...
# internal/experiments alone runs ~3 minutes under the race detector on two
# shared cores (~35 s without it); it took 6 before the event engine stopped
# allocating per event. The 30-minute limit is headroom for a loaded machine,
# where the default 10-minute per-package limit would be little margin.
go test -race -timeout 30m ./...
# The datapath benchmark is its own module (benchmark/go.mod), invisible to
# ./... above; it wraps backend.Transport/Drive and calls the realtime and
# core constructors, so build, vet and test it against this tree here.
(cd benchmark && go vet ./... && go test ./...)
# Completion admission: every op shape × participant pair with one completion
# duplicated and one capsule cut must end through its deadline, repeatedly.
go test -race -count=5 -run 'TestDuplicatedCompletionNeverStandsInForAMissingOne' ./internal/core
# Scrubber smoke under -race: background passes + repair-on-read are the
# most callback-ordering-sensitive paths added by the integrity layer.
go test -race -run '^TestScrub' . -count=1
# Realtime-backend smoke: the cross-backend conformance suite under -race
# (real goroutine schedules, channel and TCP transports, file media), plus
# a short draid-fio run on each realtime transport.
go test -race -count=1 ./internal/backend/...
go run ./cmd/draid-fio -backend realtime -iosize 131072 -qd 8 -ramp 10ms -measure 40ms
go run ./cmd/draid-fio -backend realtime -rt-tcp -iosize 65536 -qd 8 -ramp 10ms -measure 40ms
# The harness on the realtime backend, all three systems: a plain, a degraded
# and a RAID-6 row of the sweep table, the write-back point function, YCSB on
# the object store, a Pool (decluster) and two volumes on one cluster.
go run ./cmd/draid-bench -backend realtime -fig fig09,fig15,fig28,writeback,fig20,decluster,multivol-noisy -quick -ramp 5ms -measure 20ms
# Declustered-placement smoke: rebuild + online expansion under -race, plus
# the decluster figure (quick sim sweep) with its machine-checked
# rebuild-shrinks-with-cluster-size expectations.
go test -race -run 'TestDeclustered|TestAddDriveLiveTrafficP99|TestPoolAddDrive' . -count=1
go run ./cmd/draid-bench -fig decluster -quick
# Membership chaos smoke: a small deterministic fault sweep (partition at
# every step of a short write-back workload) plus the teeth pass — with
# epoch enforcement injected off the same sweep must DETECT the zombie's
# stale-destage corruption (draid-chaos inverts its exit code under -teeth).
go run ./cmd/draid-chaos -seeds 2 -steps 4 -wb
go run ./cmd/draid-chaos -seeds 2 -steps 4 -wb -teeth
# Status smoke: crash, detect and rebuild onto a spare, then print the
# array's status (recovery log included) as JSON.
go run ./cmd/draid-rebuild -v

if [ "${FULL:-0}" = "1" ]; then
    make torture
    go test -run '^$' -bench . -benchtime 1x ./internal/gf256 ./internal/parity ./internal/backend/realtime ./internal/sim ./internal/simnet ./internal/core .
    # The one erasure decoder under the fuzzer: random width, length and
    # erasure set against the originals and ComputePQ.
    go test -run '^$' -fuzz FuzzSolveStripe -fuzztime 10s ./internal/parity
    # The one parser that faces the wire: arbitrary frames never panic, and
    # an accepted frame re-encodes to itself byte for byte.
    go test -run '^$' -fuzz FuzzDecode -fuzztime 10s ./internal/nvmeof
    # The one drive medium: the page store and the file store against a
    # flat reference under random writes, trims, injections and reads.
    go test -run '^$' -fuzz FuzzMedium -fuzztime 10s ./internal/backend
    # Grey-failure smoke: hedged reads against an injected slow drive on the
    # sim and realtime backends, plus the greyfail figure in quick mode.
    go run ./cmd/draid-fio -hedge adaptive-p95 -slow 2=const:10 -ratio 1 -qd 16 -ramp 10ms -measure 40ms
    go run ./cmd/draid-fio -backend realtime -hedge fixed-delay -hedge-delay 2ms -slow '2=const:20' -ratio 1 -qd 16 -ramp 10ms -measure 40ms
    go run ./cmd/draid-bench -fig greyfail -quick -ramp 10ms -measure 40ms
    # Write-back staging smoke: staged small writes on both backends, plus
    # the writeback amplification figure (quick sim sweep) with its
    # machine-checked ≤1.3×-staged vs ≥2×-unstaged expectations.
    go run ./cmd/draid-fio -writeback -stage-mb 4 -cache-mb 2 -iosize 16384 -qd 16 -ramp 10ms -measure 40ms
    go run ./cmd/draid-fio -backend realtime -writeback -iosize 16384 -qd 16 -ramp 10ms -measure 40ms
    go run ./cmd/draid-bench -fig writeback -quick -ramp 10ms -measure 40ms
    # Declustered placement at full sweep (all cluster sizes).
    go run ./cmd/draid-bench -fig decluster -parallel 4
    # Every ID the realtime backend can run, endpoints only; the sim-only
    # ones are skipped with their reason.
    go run ./cmd/draid-bench -backend realtime -fig all -quick
    # Membership chaos at full budget: every fault kind × 8 seeds × 6 steps
    # across fixed/declustered layouts with write-back on and off (sim), a
    # bounded sweep on both realtime transports (wall clocks), and the
    # teeth pass on both layouts.
    make chaos
    go run ./cmd/draid-chaos -declustered
    go run ./cmd/draid-chaos -declustered -wb -teeth
    go run ./cmd/draid-chaos -backend realtime -wb -seeds 2 -steps 3 -faults partition
    go run ./cmd/draid-chaos -backend realtime -tcp -seeds 1 -steps 2 -faults partition
fi

# Informational, never failing: the size of the tree, for the CHANGES.md line.
sh scripts/loc.sh || true
