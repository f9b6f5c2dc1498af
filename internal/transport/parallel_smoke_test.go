// GOMAXPROCS=4 smoke test of the concurrent data plane: two real TCP
// nodes, the receiver running the full middleware with a sharded store,
// matching a pumped MBR stream against live similarity subscriptions on
// its worker pool. Asserts delivery completeness (no drops, every publish
// indexed) and that the data frames actually ran on the pool — on any
// host, including single-core CI, where oversubscribed GOMAXPROCS still
// exercises every lock and fence, just without the speedup.
//
// scripts/ci.sh runs this under -race with GOMAXPROCS=4 explicitly.
package transport_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"streamdex/internal/core"
	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
	"streamdex/internal/transport"
)

func TestParallelLoopbackSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock integration test")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	// Record every lock-contention event while the test runs: the match
	// walk is asserted lock-free below by grepping the mutex profile.
	prevMutex := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prevMutex)

	space := dht.NewSpace(16)
	ids := []dht.Key{10_000, 40_000}
	nodes := make([]*transport.Node, len(ids))
	for i, id := range ids {
		tc := transport.DefaultConfig(id, "127.0.0.1:0")
		tc.Space = space
		tc.QueueLen = 4096
		tc.Workers = 4
		n, err := transport.New(tc)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
	}
	nodes[0].Create()
	if err := nodes[1].Join(nodes[0].Addr(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitRingConverged(t, nodes, ids)

	ccfg := core.DefaultConfig()
	ccfg.Space = space
	ccfg.StoreShards = 8
	mws := make([]*core.Middleware, len(nodes))
	for i, n := range nodes {
		var err error
		n.Do(func() { mws[i], err = core.New(n, ccfg) })
		if err != nil {
			t.Fatal(err)
		}
	}

	// Subscriptions for the receiver's workers to match against.
	rng := rand.New(rand.NewSource(7))
	const nQueries = 8
	for q := 0; q < nQueries; q++ {
		f := summary.Feature{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		var err error
		nodes[1].Do(func() {
			_, err = mws[1].PostSimilarity(ids[1], f, 0.25, sim.Time(1)<<50)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "subscriptions to register", func() bool {
		subs := 0
		for i := range nodes {
			subs += mws[i].DataCenter(ids[i]).SubCount()
		}
		return subs >= nQueries
	})

	// Pump MBR publishes at the receiver's identifier, chunked so the
	// bounded peer queue cannot overflow into drops.
	const nFrames = 2000
	target := mws[1].DataCenter(ids[1])
	basePuts, _ := target.Store().Stats()

	// Hammer the lock-free match walk concurrently with ingest for the
	// whole pump: these walks must never block on a shard mutex, which the
	// mutex profile verifies after the fact. None of the pumped MBRs ever
	// expire, so the compact-on-expired writer path stays silent too.
	stopMatch := make(chan struct{})
	matchWalks := make(chan int64, 1)
	go func() {
		var scratch []query.Match
		var walks int64
		probe := summary.Feature{0, 0, 0}
		for {
			select {
			case <-stopMatch:
				matchWalks <- walks
				return
			default:
			}
			scratch = target.Store().AppendCandidates(scratch[:0], probe, 0.25, 1, ids[1])
			walks++
		}
	}()

	sent := 0
	for sent < nFrames {
		k := 256
		if nFrames-sent < k {
			k = nFrames - sent
		}
		lo := sent
		nodes[0].Do(func() {
			for i := 0; i < k; i++ {
				f := summary.Feature{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*2 - 1}
				b := summary.NewMBR("smoke", uint64(lo+i), f)
				b.Expiry = sim.Time(1) << 60
				msg := &dht.Message{Kind: core.KindMBR, Payload: core.MBRUpdate{MBR: b}}
				nodes[0].Send(ids[0], ids[1], msg)
			}
		})
		sent += k
		waitFor(t, 10*time.Second, "chunk to be indexed", func() bool {
			puts, _ := target.Store().Stats()
			return puts-basePuts >= int64(sent)
		})
	}

	puts, _ := target.Store().Stats()
	if got := puts - basePuts; got != nFrames {
		t.Fatalf("receiver indexed %d publishes, want %d", got, nFrames)
	}
	if d := nodes[0].Dropped() + nodes[1].Dropped(); d != 0 {
		t.Fatalf("%d frames dropped", d)
	}
	ps := nodes[1].PoolStats()
	if ps.Workers != 4 {
		t.Fatalf("receiver pool has %d workers, want 4", ps.Workers)
	}
	if ps.Submitted < nFrames {
		t.Fatalf("pool ran %d tasks, want at least the %d data frames", ps.Submitted, nFrames)
	}

	close(stopMatch)
	if walks := <-matchWalks; walks == 0 {
		t.Fatal("match goroutine never completed a walk")
	}

	// The walk is lock-free: no AppendCandidates frame (the store-level
	// walk, the sealed-run walk, the active-generation scan) may appear in
	// the contention profile, no matter how hard the writers hammered the
	// store meanwhile. A live store's walk never compacts, so there is no
	// helper frame to look for either.
	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	prof := buf.String()
	for _, frame := range []string{"AppendCandidates", "appendCandidates"} {
		if strings.Contains(prof, frame) {
			t.Fatalf("mutex profile shows lock contention on the match walk (%s):\n%s", frame, prof)
		}
	}

	// Every Put publishes (one epoch each); the receiver decoded every
	// frame through its connection arena, so carves amortize to a high
	// pool hit rate and the shared stream id interns after the first miss.
	if ss := target.Store().SnapStats(); ss.Epochs < nFrames {
		t.Fatalf("store published %d epochs, want at least the %d puts", ss.Epochs, nFrames)
	}
	as := nodes[1].ArenaStats()
	if as.Carves == 0 {
		t.Fatal("receiver decoded no frames through arenas")
	}
	if hr := as.HitRate(); hr < 0.9 {
		t.Fatalf("arena pool hit rate %.3f, want >= 0.9 (stats %+v)", hr, as)
	}
	if as.InternHits == 0 {
		t.Fatal("shared stream id never hit the intern table")
	}
}

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
