#!/usr/bin/env bash
# check.sh — the repo's one-stop verification gate.
#
# Runs, in order:
#   1. gofmt -l .                                    formatting gate
#      (internal/lint/testdata is excluded: fixtures pin exact line/column
#      positions and deliberately odd layouts)
#   2. scripts/lint.sh                               go vet + adwsvet
#      adwsvet (cmd/adwsvet, docs/LINT.md) enforces the invariants no
#      other gate here sees: hot paths free of locks, channel operations,
#      defer and heap allocation (hotpath, hotalloc), the global lock-rank
#      order (lockorder), lock annotations on guarded fields (lockedby),
#      and trace-event switch exhaustiveness (evexhaustive). Any finding
#      fails the gate. Cache-line padding is pinned by the pad_test.go
#      layout tests of step 4 instead.
#   3. go build ./...                                everything compiles
#   4. go test ./...                                 full test suite
#   5. go test -race the root package + internal/sched + internal/runtime
#      + internal/deque + internal/metrics + internal/obs + internal/trace
#      + internal/server + internal/cluster + cmd/adwsd + internal/kernels
#      + internal/dtree + internal/workload
#      The scheduler core's group tree (written by owners, read by
#      thieves), the runtime's queues, the three packages that are
#      lock-free by design (the Chase-Lev deque, the metrics registry, the
#      flight recorder), the tracer's per-worker ring buffers, the
#      job-serving admission path, the cluster's routing ledger, the
#      shared kernels.Partition (its tasks write disjoint count slots and
#      disjoint buffer ranges; Quicksort, the kd-tree and the decision
#      tree run it), and the serving job bodies (TestNewJobAllNames runs
#      every body the serving benchmarks submit on four workers; in
#      parFib and the kernels children write results the parent reads
#      after Wait, the edge the runtime's task and group layout carries)
#      are the places where a data race would silently corrupt results;
#      the race detector is the authority on all of them.
#   6. go test -run='^$' -bench=. -benchtime=1x ./...   benchmark smoke
#      One iteration of every benchmark, so a refactor that breaks a
#      benchmark harness (or deadlocks the parked-pool submit path) fails
#      here instead of at measurement time.
#   7. ADWS_BENCH_SMOKE=1 timing gates (internal/runtime, internal/kernels)
#      TestFlightOverheadSmoke measures the spawn-heavy tree with and
#      without the always-on flight recorder and fails if the recorder-on
#      run exceeds a generous 1.5x budget; the measured recorder cost is
#      in EXPERIMENTS.md ("Always-on flight recorder").
#      TestLocalSpawnRatioSmoke measures the same tree at one worker under
#      WS and ADWS in alternating rounds and fails if the median per-round
#      ADWS : WS ratio exceeds 1.10: the headline ratio, which worker-local
#      task groups (no range split) and lock-free per-depth rings for the
#      owner's primary pushes keep near 1.02 (EXPERIMENTS.md).
#      TestKernelBalanceSmoke (internal/kernels; skipped below two CPUs)
#      runs Quicksort 1 M and the kd-tree build over 300 k points at two
#      workers under ADWS and WS alternately and fails if the median of
#      the paired ADWS : WS wall-time ratios exceeds 1.20: the
#      kernels/adws_ws_ratio of the benchmark, which depth-floored helping
#      waits brought from 1.5 on these two kernels to about 1.1
#      (EXPERIMENTS.md, "The idle worker").
#   8. go run ./bench -workload all -smoke           benchmark harness smoke
#      go run ./bench -workload spawn -smoke -trace 1
#      Every path of the harness that judges PRs (BENCHMARK.json), at tiny
#      sizes (~5 s, then ~3 s traced); it measures nothing, but a change
#      that breaks what bench/ calls or one of its correctness gates fails
#      here. Only the traced run reaches the per-layer battery: the three
#      cluster.ParsePolicy router names, the flight recorder's Wants,
#      Record and Dump, and a /metrics render.
#
# Watchdog flight-recorder dumps written during the run (any test whose
# watchdog fires without an explicit DumpDir) land in $ADWS_FR_DIR,
# defaulting to ./fr-dumps here so CI can upload them as artifacts when
# a step fails.
#
# Usage: scripts/check.sh   (from the repo root, or anywhere inside it)
set -euo pipefail

cd "$(dirname "$0")/.."

export ADWS_FR_DIR="${ADWS_FR_DIR:-$PWD/fr-dumps}"
mkdir -p "$ADWS_FR_DIR"

echo "==> gofmt -l . (excluding internal/lint/testdata)"
fmt_out=$(gofmt -l . | grep -v 'internal/lint/testdata/' || true)
if [ -n "$fmt_out" ]; then
    echo "gofmt needed on:"
    echo "$fmt_out"
    exit 1
fi

scripts/lint.sh

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race . ./internal/sched/... ./internal/runtime/... ./internal/deque/... ./internal/metrics/... ./internal/obs/... ./internal/trace/... ./internal/server/... ./internal/cluster/... ./cmd/adwsd/... ./internal/kernels/... ./internal/dtree/... ./internal/workload/..."
go test -race . ./internal/sched/... ./internal/runtime/... ./internal/deque/... ./internal/metrics/... ./internal/obs/... ./internal/trace/... ./internal/server/... ./internal/cluster/... ./cmd/adwsd/... ./internal/kernels/... ./internal/dtree/... ./internal/workload/...

echo "==> go test -run='^\$' -bench=. -benchtime=1x ./...   (benchmark smoke)"
go test -run='^$' -bench=. -benchtime=1x ./...

echo "==> ADWS_BENCH_SMOKE=1 flight-recorder overhead gate + ADWS : WS spawn-ratio gate + kernel balance gate"
ADWS_BENCH_SMOKE=1 go test ./internal/runtime/ -run 'TestFlightOverheadSmoke|TestLocalSpawnRatioSmoke' -count=1
ADWS_BENCH_SMOKE=1 go test ./internal/kernels/ -run 'TestKernelBalanceSmoke' -count=1

echo "==> go run ./bench -workload all -smoke   (benchmark harness smoke)"
go run ./bench -workload all -smoke

echo "==> go run ./bench -workload spawn -smoke -trace 1   (traced harness smoke: the per-layer battery)"
go run ./bench -workload spawn -smoke -trace 1

echo "OK: all checks passed"
