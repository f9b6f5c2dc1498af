#!/usr/bin/env bash
# CI gate for streamdex. Runs the full hygiene + correctness + smoke-perf
# pipeline; any failure fails the script. Usage: scripts/ci.sh
#
#   1. gofmt      — no unformatted files
#   2. go vet     — static checks
#   3. go build   — everything compiles
#   4. go test -race   — full suite under the race detector (also covers
#                        the serial-vs-parallel determinism regression)
#   5. ring churn + parity (race) — on every registered machine (Chord,
#                        Koorde): scripted join/leave/crash convergence of
#                        the shared ring backbone and the machine's long
#                        links, back-to-back simulated joins converging
#                        with no stabilize round, on constant and on
#                        jittered link delays
#                        (TestJoinConvergesWithoutStabilizeRounds,
#                        TestBackToBackJoinsConvergeUnderJitter) and a
#                        converged ring sending no join-time message
#                        (TestConvergedRingSendsNoJoinSteps), sim-vs-live
#                        parity of the same machine on a real TCP node
#                        (a random trace, and scripted joins with their
#                        sends), and a foreign-machine joiner timing out
#                        instead of being absorbed
#   6. loopback (race) — the 5-node TCP loopback cluster against the
#                        simulator, ring convergence, and eight loopback
#                        joins converging within 1 s of the last one
#                        (TestLiveJoinsConvergeInRoundTrips)
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
#                        sets, a subscription must survive the scripted
#                        crash of every covering node, the data
#                        center's dispatch must route all 18 middleware
#                        kinds and a response batch, accepting exactly the
#                        worker-safe ones on the data plane
#                        (TestDispatchEveryKind), and a middle node must
#                        send one response frame per client per push
#                        period with every response and match intact
#                        (TestResponsesCoalescePerClient,
#                        TestResponseFrameBudget)
#  11. zero-alloc guards — the lock-free store walks (one shard and
#                        eight, un-swept and in steady state), a sweep with
#                        nothing to seal or drop, the standing-table walk
#                        of an MBR past 1000 non-matching entries, a dedup
#                        add of a present (stream, seq) and the arena
#                        decode must stay allocation-free on their steady
#                        state, and a steady-state Put must amortize under
#                        0.1 allocs;
#                        the wire marshal and sizing paths stay
#                        allocation-free and the heap decode (the arena
#                        decode with a nil arena) keeps its alloc bounds,
#                        the response batch's row included; a heap-decoded
#                        payload is not pinned by the decode arena's
#                        message slab
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
#  14. ratio gates (race) — TestLoadSkewGate, TestHeadToHeadGates and
#                        TestFirstAnswerGate: the seeded virtual-time
#                        load-skew bound, the three chord-vs-koorde ratios
#                        and first match over push period for queries with
#                        a candidate in store, named here so they stay
#                        covered even if step 4 ever runs in -short mode;
#                        and TestTablesStableAcrossRuns: every adidas-bench
#                        table on chord, koorde and pastry byte-identical
#                        to cmd/adidas-bench/testdata/tables.golden
#  15. examples        — build every example, run each binary twice and
#                        cmp the two outputs: the examples run on the
#                        seeded virtual clock, so each must repeat byte
#                        for byte (5-45 ms a run)
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

echo "== ring churn + sim-vs-live parity, every machine (race) =="
# One row per registered machine. Deterministic scripted churn (joins, a
# graceful leave, adjacent crashes, a late join) must re-converge the
# ring and the long links (fingers, de Bruijn chain) to the
# live-membership oracle — virtual-time determinism makes any race found
# here reproducible; back-to-back joins with stabilization pushed out to
# an hour must converge by their own messages, and a converged ring must
# send no join-time message; the live TCP node must agree with the
# simulator after every control message of a shared trace, sends
# included on the scripted joins; and a joiner of the other machine
# family must time out without any member adopting it.
go test -race -count=1 -run 'TestChurnReconverges|TestBackToBackJoinsConvergeUnderJitter' ./internal/chord/protocol
go test -race -count=1 -run 'TestJoinConvergesWithoutStabilizeRounds|TestConvergedRingSendsNoJoinSteps' ./internal/chord
go test -race -count=1 -run 'TestControlPlaneParitySimVsLive|TestForeignJoinerNotAbsorbed' ./internal/transport

echo "== live transport loopback (race) =="
# Explicitly exercise the 5-node TCP loopback cluster against the
# simulator under the race detector, so the live data path stays covered
# even if the suite above ever starts running in -short mode; eight
# loopback joins must converge within 1 s of the last one, with default
# and hour-long stabilize periods.
go test -race -count=1 -run 'TestLoopbackClusterMatchesSimulator|TestRingConvergence|TestLiveJoinsConvergeInRoundTrips' \
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
# from freshly re-homed registrations. The dispatch test drives one message
# of every kind, and a response batch, through Deliver and DeliverData; the
# coalescing tests count response frames per (middle node, client) per push
# period and split a period that passes the 64 KiB frame budget.
go test -race -count=1 -run 'TestOperatorParitySimVsLive' ./internal/transport
go test -race -count=1 -run 'TestSubscriptionSurvivesCoveringNodeCrash|TestDispatchEveryKind|TestResponsesCoalescePerClient|TestResponseFrameBudget' ./internal/core

echo "== zero-alloc guards (store walks, idle sweep, standing walk, dedup hit, amortized put, arena and heap decode, response batch) =="
# The lock-free read path is only lock-free if it also stays off the
# allocator: a single alloc in the walk re-introduces GC coordination.
# The write path must not creep back to a snapshot per put either. Every
# packed payload, the response batch included, keeps its decode alloc bound
# (TestUnmarshalAllocBounds), and a heap-decoded payload must not stay
# reachable through the arena's message slab after delivery.
go test -count=1 \
    -run 'TestShardedStoreZeroAllocWalk|TestAppendCandidatesZeroAllocs|TestGenStoreIdleSweepAndWalkZeroAllocs|TestGenStorePutAmortizedAllocs|TestArenaDecodeZeroAllocAmortized|TestArenaSlabPinsNoHeapPayload|TestStandingWalkZeroAllocs|TestSeqSetAddPresentZeroAllocs' \
    ./internal/core
go test -count=1 -run 'TestAppendMarshalZeroAllocs|TestSizeofZeroAllocsPacked|TestUnmarshalAllocBounds' ./internal/wire

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

echo "== examples: each run twice, identical output =="
# Nothing else runs the examples; examples/replay is the one user-facing
# program on the pastry machine.
exdir=$(mktemp -d)
go build -o "$exdir/" ./examples/...
for ex in "$exdir"/*; do
    "$ex" > "$ex.1"
    "$ex" > "$ex.2"
    cmp "$ex.1" "$ex.2"
done
rm -rf "$exdir"

echo "CI OK"
