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
#   6. fuzz smoke      — short native-fuzz run of the wire codec decoder
#                        (seeded with every payload kind, middleware and
#                        ring-control alike), catching panics / runaway
#                        allocations on malformed frames
#   7. parallel smoke  — GOMAXPROCS=4 loopback data-plane test under the
#                        race detector, then the BENCH_3 parallelism rows
#                        (the 2.5x speedup floor is enforced only on hosts
#                        with >= 4 real cores)
#   8. udp fuzz smoke  — short native-fuzz run of the UDP datagram decode
#                        path (type byte + wire body, no length prefix),
#                        seeded with every packed payload kind
#   9. operator parity (race) — the three continuous-query operators
#                        (subscription, aggregate, top-k) on a live 5-node
#                        TCP cluster must reproduce the simulator's answer
#                        sets, and a subscription must survive the scripted
#                        crash of every covering node
#  10. zero-alloc guards — the lock-free store walks (exclusive run,
#                        un-swept and generational shards), a sweep with
#                        nothing to seal or drop and the arena decode must
#                        stay allocation-free on their steady state, and a
#                        steady-state Put must amortize under 0.1 allocs
#  10b. benchmark module — vet and race-test benchmark/ (its own module,
#                        compiled against this tree's exported surface),
#                        then `bash benchmark/run.sh -smoke`: all four
#                        workloads with 3 s windows, each checked against
#                        its oracle — a lost detection, a wrong answer, a
#                        dropped frame or a simulator count that moved
#                        exits non-zero
#  11. smoke bench     — BENCH_FAST=1 figure benchmarks, one iteration,
#                        so an accidental O(N) regression in the hot paths
#                        shows up as a CI timeout / obvious slowdown
#  12. bench compare   — fresh BENCH_FAST JSON report diffed against the
#                        committed BENCH_2.json, benchstat-style
#                        (informational), then the committed BENCH_3 vs
#                        BENCH_4 parallelism reports with a 1.3x
#                        store-match@4 floor, then the committed BENCH_4 vs
#                        BENCH_5 operator reports with a 0.9x
#                        store-match@4 floor proving the operator hooks
#                        did not tax the similarity path (ratio floors are
#                        enforced only on hosts with >= 4 real cores in
#                        both reports)
#  13. loadskew gate   — fast-tier Zipf(1.1) load-skew run; the balanced
#                        arm (vnodes + covering-range replication) must
#                        keep p99/mean per-node load under the bound AND
#                        beat the unbalanced arm, then the committed
#                        BENCH_5 vs BENCH_6 reports with a 0.9x
#                        store-match@4 floor proving the load-balancing
#                        hooks did not tax the un-replicated data plane
#  14. koorde churn + parity (race) — deterministic scripted churn of the
#                        Koorde de Bruijn machine (joins, leave, crashes,
#                        late join must re-converge to the oracle), and
#                        sim-vs-live parity of the same machine on a real
#                        TCP cluster, both under the race detector
#  15. substrates gate  — fast-tier chord-vs-koorde head-to-head; Koorde's
#                        mean lookup hops must be strictly below Chord's
#                        at the largest size (the de Bruijn claim), its
#                        maintenance bandwidth within 1.3x Chord's
#                        (piggybacked pointer repair), and its tree-
#                        multicast last delivery within 1.15x Chord's
#                        (de Bruijn-aware arc splits), then the committed
#                        BENCH_6 vs BENCH_7 reports with a 0.9x
#                        store-match@4 floor proving the substrate-
#                        neutral control plane did not tax the data plane
#  16. koorde fast path — the committed BENCH_7 vs BENCH_8 reports with a
#                        0.9x store-match@4 floor proving the fast-path
#                        work (repair piggyback, split multicast) did not
#                        tax the data plane either
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

echo "== parallel data plane: BENCH_3 parallelism rows =="
BENCH_FAST=1 go run ./cmd/adidas-bench -parallel "${TMPDIR:-/tmp}/streamdex-bench3.json" -minspeedup 2.5

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

echo "== bench comparison vs committed BENCH_2.json =="
# Old-vs-new deltas against the committed fast-mode report. Informational:
# wall-clock noise on shared CI runners is not a merge gate.
BENCH_FAST=1 go run ./cmd/adidas-bench -bench "${TMPDIR:-/tmp}/streamdex-bench-new.json"
go run ./cmd/adidas-bench -compare "BENCH_2.json,${TMPDIR:-/tmp}/streamdex-bench-new.json"

echo "== parallelism comparison: BENCH_3 vs BENCH_4 =="
# The committed multi-core reports, diffed row by row. The 1.3x
# store-match@4 floor only binds when both reports come from hosts with
# >= 4 real cores; under-cored runs print the table and stand down.
go run ./cmd/adidas-bench -compare "BENCH_3.json,BENCH_4.json" -minratio store-match@4=1.3

echo "== operator bench comparison: BENCH_4 vs BENCH_5 =="
# The committed data-plane report against the committed operator report.
# The shared store rows prove the CQE hooks (per-MBR predicate fan-out,
# sketch publication) did not tax the similarity path: a 0.9x floor on
# store-match@4 allows noise but fails a real regression. The floor only
# binds when both reports come from hosts with >= 4 real cores.
go run ./cmd/adidas-bench -compare "BENCH_4.json,BENCH_5.json" -minratio store-match@4=0.9

echo "== load-skew gate: fast-tier Zipf(1.1) p99/mean bound =="
# Deterministic (seeded virtual-time) 50-node Zipf(1.1) run of both arms.
# -maxskew fails CI if the balanced arm (vnodes=4, replicas=3) exceeds
# 2x p99/mean per-node load or fails to improve on the unbalanced arm.
BENCH_FAST=1 go run ./cmd/adidas-bench -loadskew "${TMPDIR:-/tmp}/streamdex-bench6.json" -maxskew 2

echo "== load-balancing bench comparison: BENCH_5 vs BENCH_6 =="
# The committed operator report against the committed load-skew report.
# The shared store rows prove the default-off balancing hooks (replica
# tail, load gossip, admission check) did not tax the un-replicated
# similarity path. The floor only binds when both reports come from
# hosts with >= 4 real cores.
go run ./cmd/adidas-bench -compare "BENCH_5.json,BENCH_6.json" -minratio store-match@4=0.9

echo "== koorde churn + sim-vs-live parity (race) =="
# The second routing machine through the same wringer as Chord:
# deterministic scripted churn (joins, a graceful leave, adjacent
# crashes, a late join) must re-converge the de Bruijn pointers to the
# live-membership oracle, and the live TCP cluster must agree with the
# simulator on every successor resolution.
go test -race -count=1 -run 'TestKoordeChurnReconverges' ./internal/koorde
go test -race -count=1 -run 'TestKoordeParitySimVsLive' ./internal/transport

echo "== substrates gate: fast-tier chord-vs-koorde hops/maint/tail =="
# Deterministic (seeded virtual-time) head-to-head of the two registered
# ring machines, churn phase included. Three hard gates at the largest
# size: -maxhopsratio 1.0 (Koorde's mean lookup hops strictly below
# Chord's — the de Bruijn fewer-hops-per-table-entry claim),
# -maxmaintratio 1.3 (piggybacked pointer repair keeps Koorde's
# maintenance bandwidth within 1.3x Chord's), and -maxtailratio 1.15
# (de Bruijn-aware arc splits keep the tree-multicast last delivery
# within 1.15x Chord's).
BENCH_FAST=1 go run ./cmd/adidas-bench -substrates "${TMPDIR:-/tmp}/streamdex-bench8.json" \
    -maxhopsratio 1.0 -maxmaintratio 1.3 -maxtailratio 1.15

echo "== substrates bench comparison: BENCH_6 vs BENCH_7 =="
# The committed load-skew report against the committed substrates report.
# The shared store rows prove the overlay indirection (machine registry,
# interface dispatch on the control plane) did not tax the similarity
# path. The floor only binds when both reports come from hosts with
# >= 4 real cores.
go run ./cmd/adidas-bench -compare "BENCH_6.json,BENCH_7.json" -minratio store-match@4=0.9

echo "== koorde fast-path bench comparison: BENCH_7 vs BENCH_8 =="
# The committed substrates report against the committed fast-path report.
# The shared store rows prove the repair piggyback and split-multicast
# work did not tax the similarity path. The floor only binds when both
# reports come from hosts with >= 4 real cores.
go run ./cmd/adidas-bench -compare "BENCH_7.json,BENCH_8.json" -minratio store-match@4=0.9

echo "CI OK"
