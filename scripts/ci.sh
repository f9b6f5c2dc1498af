#!/usr/bin/env bash
# CI gate for streamdex. Runs the full hygiene + correctness + smoke-perf
# pipeline; any failure fails the script. Usage: scripts/ci.sh
#
#   1. gofmt      — no unformatted files
#   2. go vet     — static checks
#   3. go build   — everything compiles
#   4. go test -race   — full suite under the race detector (also covers
#                        the serial-vs-parallel determinism regression)
#   5. churn (race)    — scripted join/leave/crash convergence of the
#                        shared Chord protocol machine
#   6. loopback (race) — the 5-node TCP loopback cluster against the
#                        simulator, and ring convergence
#   7. fuzz smoke      — short native-fuzz run of the wire codec decoder
#                        (seeded with every payload kind, middleware and
#                        ring-control alike), catching panics / runaway
#                        allocations on malformed frames
#   8. parallel smoke  — GOMAXPROCS=4 loopback data-plane test under the
#                        race detector
#   9. udp fuzz smoke  — short native-fuzz run of the UDP datagram decode
#                        path (type byte + wire body, no length prefix),
#                        seeded with every packed payload kind
#  10. operator parity (race) — the three continuous-query operators
#                        (subscription, aggregate, top-k) on a live 5-node
#                        TCP cluster must reproduce the simulator's answer
#                        sets, and a subscription must survive the scripted
#                        crash of every covering node
#  11. zero-alloc guards — the lock-free store walks (one shard and
#                        eight, un-swept and in steady state), a sweep with
#                        nothing to seal or drop and the arena decode must
#                        stay allocation-free on their steady state, and a
#                        steady-state Put must amortize under 0.1 allocs
#  12. benchmark module — vet and race-test benchmark/ (its own module,
#                        compiled against this tree's exported surface),
#                        then `bash benchmark/run.sh -smoke`: all four
#                        workloads with 3 s windows, each checked against
#                        its oracle — a lost detection, a wrong answer, a
#                        dropped frame or a simulator count that moved
#                        exits non-zero. benchmark/ is the only wall-clock
#                        performance instrument; nothing here compares
#                        timings
#  13. smoke bench     — BENCH_FAST=1 figure benchmarks, one iteration,
#                        so an accidental O(N) regression in the hot paths
#                        shows up as a CI timeout / obvious slowdown
#  14. koorde churn + parity (race) — deterministic scripted churn of the
#                        Koorde de Bruijn machine (joins, leave, crashes,
#                        late join must re-converge to the oracle), and
#                        sim-vs-live parity of the same machine on a real
#                        TCP cluster, both under the race detector
#  15. ratio gates (race) — TestLoadSkewGate, TestHeadToHeadGates and
#                        TestFirstAnswerGate: the seeded virtual-time
#                        load-skew bound, the three chord-vs-koorde ratios
#                        and first match over push period for queries with
#                        a candidate in store, named here so they stay
#                        covered even if step 4 ever runs in -short mode;
#                        and TestTablesStableAcrossRuns: every adidas-bench
#                        table on chord, koorde and pastry byte-identical
#                        to cmd/adidas-bench/testdata/tables.golden
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== control-plane churn (race) =="
# Deterministic scripted churn over the shared Chord protocol machine:
# joins, a graceful leave, adjacent crashes and a late join must all
# re-converge to the live-membership oracle. Virtual-time determinism
# makes any race found here reproducible.
go test -race -count=1 -run 'TestChurn' ./internal/chord/protocol

echo "== live transport loopback (race) =="
# Explicitly exercise the 5-node TCP loopback cluster against the
# simulator under the race detector, so the live data path stays covered
# even if the suite above ever starts running in -short mode.
go test -race -count=1 -run 'TestLoopbackClusterMatchesSimulator|TestRingConvergence' \
    ./internal/transport

echo "== fuzz smoke (FuzzUnmarshal, 10s) =="
# Mutate frames against the codec v2 decoder for a few seconds. The corpus
# seeds every registered packed payload kind — including the continuous-
# query engine's sketch/subscription/aggregate/top-k payloads — plus
# malformed shapes; any panic or round-trip asymmetry fails CI. FUZZ_TIME
# overrides the budget.
go test -run '^$' -fuzz 'FuzzUnmarshal' -fuzztime "${FUZZ_TIME:-10s}" ./internal/wire

echo "== parallel data plane: GOMAXPROCS=4 loopback smoke (race) =="
# Oversubscription is fine: on a single-core host this still drives every
# shard lock, pool hand-off and completion fence, just without speedup.
GOMAXPROCS=4 go test -race -count=1 -run 'TestParallelLoopbackSmoke' ./internal/transport

echo "== udp fuzz smoke (FuzzDatagramDecode, 10s) =="
# Mutate raw datagrams (type byte + body) against the connectionless
# decode path. Seeds cover every packed payload kind (CQE payloads
# included) over both app frame types plus control/unknown shapes that
# must be rejected, not crash.
go test -run '^$' -fuzz 'FuzzDatagramDecode' -fuzztime "${FUZZ_TIME:-10s}" ./internal/transport

echo "== continuous-query operator parity (race) =="
# Sim-vs-live parity for the subscription, aggregate and top-k operators
# on a real 5-node TCP cluster, plus the scripted churn test: crash every
# node covering a standing subscription and require detections to resume
# from freshly re-homed registrations.
go test -race -count=1 -run 'TestOperatorParitySimVsLive' ./internal/transport
go test -race -count=1 -run 'TestSubscriptionSurvivesCoveringNodeCrash' ./internal/core

echo "== zero-alloc guards (store walks, idle sweep, amortized put, arena decode) =="
# The lock-free read path is only lock-free if it also stays off the
# allocator: a single alloc in the walk re-introduces GC coordination.
# The write path must not creep back to a snapshot per put either.
go test -count=1 \
    -run 'TestShardedStoreZeroAllocWalk|TestAppendCandidatesZeroAllocs|TestGenStoreIdleSweepAndWalkZeroAllocs|TestGenStorePutAmortizedAllocs|TestArenaDecodeZeroAllocAmortized' \
    ./internal/core

echo "== benchmark module: vet, race tests, four-workload smoke =="
# benchmark/ is its own module compiled against this tree: a change to the
# surface it imports fails here, not in the benchmark pipeline. The smoke
# run boots the live ring three times and the 500-node simulator once with
# 3 s windows; every workload is checked against its oracle (recall 1, no
# wrong answer, no dropped frame, simulator counts bit-identical).
(cd benchmark && go vet . && go test -race .)
bash benchmark/run.sh -smoke

echo "== smoke bench (BENCH_FAST=1) =="
BENCH_FAST=1 go test -run '^$' \
    -bench 'BenchmarkTable1Workload$|BenchmarkFig6aLoad$|BenchmarkFig7aOverhead$|BenchmarkFig8Hops$' \
    -benchmem -benchtime 1x .
BENCH_FAST=1 go test -run '^$' -bench 'SlidingDFTPush' -benchtime 100x ./internal/dsp

echo "== koorde churn + sim-vs-live parity (race) =="
# The second routing machine through the same wringer as Chord:
# deterministic scripted churn (joins, a graceful leave, adjacent
# crashes, a late join) must re-converge the de Bruijn pointers to the
# live-membership oracle, and the live TCP cluster must agree with the
# simulator on every successor resolution.
go test -race -count=1 -run 'TestKoordeChurnReconverges' ./internal/koorde
go test -race -count=1 -run 'TestKoordeParitySimVsLive' ./internal/transport

echo "== simulator ratio gates: load skew, chord-vs-koorde, first answer (race) =="
# Seeded virtual-time facts, so reproducible on any host. At 50 nodes under
# Zipf(1.1) the balanced arm (vnodes=4, replicas=3) must keep p99/mean
# per-node load <= 2.0 and not above the plain ring's; at 500 nodes
# Koorde's mean lookup hops must be strictly below Chord's (the de Bruijn
# claim), its maintenance bandwidth within 1.3x (piggybacked pointer
# repair) and its tree-multicast last delivery within 1.15x (de
# Bruijn-aware arc splits); at 50 nodes a query with a candidate in store
# must see its first match within 0.25 push periods at the median (route
# time, not push timers).
go test -race -count=1 -run 'TestLoadSkewGate|TestHeadToHeadGates|TestFirstAnswerGate' ./internal/experiments
# The experiment tables did not move: every registry entry on every
# simulated substrate renders exactly the committed golden (sizes 8, 16).
go test -count=1 -run 'TestTablesStableAcrossRuns' ./cmd/adidas-bench

echo "CI OK"
