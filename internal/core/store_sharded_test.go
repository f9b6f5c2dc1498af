package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

// sortMatches orders a match set canonically for comparison.
func sortMatches(ms []query.Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].StreamID != ms[j].StreamID {
			return ms[i].StreamID < ms[j].StreamID
		}
		return ms[i].Seq < ms[j].Seq
	})
}

// TestShardedStoreMatchesSingleShard: the sharded store and the
// single-shard store must both report exactly the reference's candidate
// set over an identical entry population, for many random queries — the
// shard partition is a pure performance transform.
func TestShardedStoreMatchesSingleShard(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	single := NewShardedStore(1)
	sharded := NewShardedStore(8)
	var ref []*summary.MBR
	for i := 0; i < 2000; i++ {
		l1 := rng.Float64()*3 - 1.5
		w := rng.Float64() * 0.2
		expiry := sim.Time(0)
		if rng.Intn(4) == 0 {
			expiry = sim.Time(1 + rng.Intn(100))
		}
		b := mbrAt(fmt.Sprintf("s%d", i%37), uint64(i), summary.Feature{l1, rng.Float64()},
			summary.Feature{l1 + w, rng.Float64() + 1}, expiry)
		single.Put(b)
		sharded.Put(b)
		ref = append(ref, b)
	}
	for trial := 0; trial < 200; trial++ {
		q := summary.Feature{rng.Float64()*3 - 1.5, rng.Float64()}
		r := rng.Float64() * 0.5
		now := sim.Time(rng.Intn(120))
		checkCandidates(t, sharded, ref, q, r, now)
		checkCandidates(t, single, ref, q, r, now)
	}
}

// TestShardedStoreConcurrentOracle hammers one sharded store with
// concurrent Put / AppendCandidates / Sweep interleavings (run under -race
// by CI) and afterwards checks the surviving contents against the
// linear-scan reference over the same entries.
func TestShardedStoreConcurrentOracle(t *testing.T) {
	const (
		writers   = 4
		readers   = 4
		perWriter = 500
	)
	s := NewShardedStore(8)

	// Pre-generate each writer's entries so the reference can list them.
	entries := make([][]*summary.MBR, writers)
	for w := range entries {
		rng := rand.New(rand.NewSource(int64(100 + w)))
		entries[w] = make([]*summary.MBR, perWriter)
		for i := range entries[w] {
			l1 := rng.Float64()*2 - 1
			width := rng.Float64() * 0.1
			expiry := sim.Time(0)
			if rng.Intn(3) == 0 {
				expiry = sim.Time(1 + rng.Intn(50)) // expires mid-run
			}
			entries[w][i] = mbrAt(fmt.Sprintf("w%d", w), uint64(i),
				summary.Feature{l1, 0}, summary.Feature{l1 + width, 0.1}, expiry)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, b := range entries[w] {
				s.Put(b)
				if i%100 == 99 {
					s.Sweep(sim.Time(i / 10))
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(900 + r)))
			dst := make([]query.Match, 0, 256)
			for i := 0; i < 400; i++ {
				q := summary.Feature{rng.Float64()*2 - 1, 0.05}
				dst = s.AppendCandidates(dst[:0], q, 0.2, sim.Time(rng.Intn(60)), 1)
				for _, m := range dst {
					if m.StreamID == "" {
						t.Error("torn match read")
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	// One final sweep at a time past every mid-run expiry: every generation
	// that held an expiring entry is gone, so exactly the live entries stay.
	ref := slices.Concat(entries...)
	const now = 100 * sim.Time(1)
	s.Sweep(now)
	if got, want := s.Len(), refLive(ref, now); got != want {
		t.Fatalf("after concurrent run: %d entries, %d are live", got, want)
	}
	checkSealedRuns(t, s, now)
	// Candidate sets must agree too.
	for trial := 0; trial < 50; trial++ {
		checkCandidates(t, s, ref, summary.Feature{float64(trial)/25 - 1, 0.05}, 0.15, now)
	}
}

// TestShardWidthBoundStaysLocal is the stale-width regression test: a wide
// MBR must inflate only the scan band of the generation that holds it —
// not another shard's, not a later generation's in its own shard — and
// once it expires and its generation is dropped, the shard's width bound
// must re-tighten. Under the old store-global bound, one long-gone wide MBR
// kept every future walk wide until the next full sweep re-tightened it.
func TestShardWidthBoundStaysLocal(t *testing.T) {
	s := NewShardedStore(4)
	// With bandWidth 0.25 and 4 shards: l1 in [0, 0.25) and [1, 1.25) ->
	// shard 0, [0.25, 0.5) -> shard 1.
	wideShard := s.shardOf(0.1)
	narrowShard := s.shardOf(0.3)
	if wideShard == narrowShard || s.shardOf(1.1) != wideShard {
		t.Fatalf("test geometry broken: bands map to shards %d, %d, %d", wideShard, narrowShard, s.shardOf(1.1))
	}
	// A very wide rectangle in shard 0, expiring at t=1s, and enough
	// filler in the shard's far band, expiring with it, to seal the two
	// into one generation.
	s.Put(mbrAt("wide", 0, summary.Feature{0.1, 0}, summary.Feature{2.1, 0}, sim.Second))
	if w := s.shardWidth(wideShard); w < 1.9 {
		t.Fatalf("wide shard width bound = %v before sealing, want ~2", w)
	}
	for i := 1; i < minChunk; i++ {
		l1 := 1 + float64(i)*0.003
		s.Put(mbrAt("filler", uint64(i), summary.Feature{l1, 0}, summary.Feature{l1 + 0.001, 0}, sim.Second))
	}
	if got := s.Generations(); got != 1 || s.SnapStats().Merges != 1 {
		t.Fatalf("store holds %d generations after %d seals, want the wide one, sealed", got, s.SnapStats().Merges)
	}
	// Dense strips of narrow entries, expiring at t=2s: one in shard 1, one
	// behind the wide MBR in shard 0, each long enough to seal a generation
	// of its own and start the next.
	for i := 0; i < 100; i++ {
		off := float64(i) * 0.0025
		s.Put(mbrAt("narrow", uint64(1+i), summary.Feature{0.25 + off, 0}, summary.Feature{0.251 + off, 0}, 2*sim.Second))
		s.Put(mbrAt("behind", uint64(1+i), summary.Feature{off, 0}, summary.Feature{0.001 + off, 0}, 2*sim.Second))
	}
	if got := s.Generations(); got != 5 {
		t.Fatalf("store holds %d generations, want 5 (wide; behind and narrow, each sealed + active)", got)
	}
	if w := s.shardWidth(wideShard); w < 1.9 {
		t.Fatalf("wide shard width bound = %v, want ~2", w)
	}
	if w := s.shardWidth(narrowShard); w > 0.01 {
		t.Fatalf("narrow shard width bound = %v, polluted by the wide MBR", w)
	}

	// A tight query inside either strip: the wide MBR must not inflate the
	// band scanned in the strip's generations. Band is [q1-r-width, q1+r]
	// ~ 0.02 wide -> ~8 strip entries, not all 100 (plus, in shard 0, the
	// wide MBR itself: its generation's band is wide, but the filler lies
	// beyond it).
	const now = 9 * sim.Second / 10
	for _, q1 := range []float64{0.375, 0.125} {
		_, before := s.Stats()
		got := s.Candidates(summary.Feature{q1, 0}, 0.01, now, 1)
		_, after := s.Stats()
		if len(got) == 0 {
			t.Fatalf("query at %v matched nothing", q1)
		}
		if scanned := after - before; scanned > 20 {
			t.Fatalf("narrow-band query at %v scanned %d entries; the wide generation's bound leaked", q1, scanned)
		}
	}

	// The wide MBR has expired: sweeping drops its generation and with it
	// the bound, while the strip behind it stays.
	if removed := s.Sweep(3 * sim.Second / 2); removed != minChunk {
		t.Fatalf("sweep removed %d entries, want the wide generation's %d", removed, minChunk)
	}
	if w := s.shardWidth(wideShard); w > 0.01 {
		t.Fatalf("wide shard width bound = %v after its generation was dropped, want the strip's", w)
	}
	if got := s.Len(); got != 200 {
		t.Fatalf("store holds %d entries, want the two strips (200)", got)
	}
}

// TestShardedStoreZeroAllocWalk extends the alloc guard to the sharded
// configuration: a multi-shard candidate walk with a reused destination
// must stay allocation-free.
func TestShardedStoreZeroAllocWalk(t *testing.T) {
	s := NewShardedStore(8)
	for i := 0; i < 512; i++ {
		l1 := float64(i)/256 - 1
		s.Put(mbrAt("s", uint64(i), summary.Feature{l1, 0}, summary.Feature{l1 + 0.01, 0.1}, 0))
	}
	q := summary.Feature{0.1, 0.05}
	dst := make([]query.Match, 0, 64)
	dst = s.AppendCandidates(dst, q, 0.05, 0, 1)
	if len(dst) == 0 {
		t.Fatal("query should match some entries")
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst = s.AppendCandidates(dst[:0], q, 0.05, 0, 1)
	})
	if allocs != 0 {
		t.Fatalf("sharded AppendCandidates allocated %.1f objects per run, want 0", allocs)
	}
}
