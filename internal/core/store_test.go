package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

func mbrAt(sid string, seq uint64, lo, hi summary.Feature, expiry sim.Time) *summary.MBR {
	b := summary.NewMBR(sid, seq, lo)
	b.Extend(hi)
	b.Expiry = expiry
	return b
}

// refMatches is the reference the store tests hold a walk to: the plain
// list of every entry ever put, scanned linearly with the MBR's own
// predicates — a candidate walk for (q, radius) when hi is nil, an overlap
// walk for the rectangle [q, hi] otherwise. Sorted like sortMatches.
func refMatches(entries []*summary.MBR, q, hi summary.Feature, radius float64, now sim.Time, node dht.Key) []query.Match {
	var out []query.Match
	for _, b := range entries {
		if b.Expired(now) || len(b.Lo) != len(q) {
			continue
		}
		m := query.Match{StreamID: b.StreamID, Seq: b.Seq, FoundAt: now, Node: node}
		ok := true
		if hi == nil {
			m.DistLB = b.MinDist(q)
			ok = m.DistLB <= radius
		}
		for d := range hi {
			ok = ok && b.Hi[d] >= q[d] && b.Lo[d] <= hi[d]
		}
		if ok {
			out = append(out, m)
		}
	}
	sortMatches(out)
	return out
}

// refLive counts the reference entries still live at now.
func refLive(entries []*summary.MBR, now sim.Time) int {
	n := 0
	for _, b := range entries {
		if !b.Expired(now) {
			n++
		}
	}
	return n
}

// checkCandidates holds one candidate walk to the reference: set equality,
// each entry once.
func checkCandidates(t *testing.T, s *Store, ref []*summary.MBR, q summary.Feature, radius float64, now sim.Time) {
	t.Helper()
	got := s.Candidates(q, radius, now, 1)
	sortMatches(got)
	if want := refMatches(ref, q, nil, radius, now, 1); !slices.Equal(got, want) {
		t.Fatalf("candidates of %v within %v at %v:\n%v\nwant\n%v", q, radius, now, got, want)
	}
}

// checkSealedRuns asserts the layout walks rely on: every sealed run is
// sorted by lo1, and — right after Sweep(swept) — none is held past its
// newest expiry.
func checkSealedRuns(t *testing.T, s *Store, swept sim.Time) {
	t.Helper()
	for i := range s.shards {
		for _, p := range s.shards[i].view.Load().runs {
			if !slices.IsSorted(p.lo1) {
				t.Fatalf("shard %d: sealed run not sorted by lo1: %v", i, p.lo1)
			}
			if p.newest <= swept {
				t.Fatalf("shard %d: sealed run with newest expiry %v survived Sweep(%v)", i, p.newest, swept)
			}
		}
	}
}

// TestStorePutSweep: Sweep returns what it unlinked — a sealed generation
// goes whole once its newest expiry has passed and not a tick earlier, an
// active one is kept while anything in it is live — and whatever lingers,
// a walk returns exactly the matching entries live at its now.
func TestStorePutSweep(t *testing.T) {
	s := NewShardedStore(1)
	var ref []*summary.MBR
	put := func(b *summary.MBR) {
		s.Put(b)
		ref = append(ref, b)
	}
	// Two sealed generations whose newest entries expire at 5s and 10s (every
	// other one a second earlier), then a half-expired active one.
	for i := 0; i < 2*minChunk; i++ {
		l1 := float64(i%minChunk) / minChunk
		expiry := sim.Time(1+i/minChunk)*5*sim.Second - sim.Time(i%2)*sim.Second
		put(mbrAt("gen", uint64(i), summary.Feature{l1}, summary.Feature{l1 + 0.1}, expiry))
	}
	put(mbrAt("a", 0, summary.Feature{0}, summary.Feature{0.1}, 5*sim.Second))
	put(mbrAt("a", 1, summary.Feature{0}, summary.Feature{0.1}, 12*sim.Second))
	put(mbrAt("b", 0, summary.Feature{0.5}, summary.Feature{0.6}, 5*sim.Second))
	if s.Len() != len(ref) || s.Generations() != 3 {
		t.Fatalf("Len = %d in %d generations, want %d in 3", s.Len(), s.Generations(), len(ref))
	}
	steps := []struct {
		now     sim.Time
		removed int
	}{
		{4 * sim.Second, 0}, // half the first generation lingers, expired
		{5*sim.Second - 1, 0},
		{5 * sim.Second, minChunk}, // the first generation; a/0 and b/0 linger in the active one
		{10*sim.Second - 1, 0},
		{10 * sim.Second, minChunk},
		{12*sim.Second - 1, 0},
		{12 * sim.Second, 3}, // nothing in the active generation is live: it is retired
	}
	for _, st := range steps {
		before := s.Len()
		if removed := s.Sweep(st.now); removed != st.removed || s.Len() != before-removed {
			t.Fatalf("Sweep(%v) removed %d (Len %d -> %d), want %d", st.now, removed, before, s.Len(), st.removed)
		}
		checkSealedRuns(t, s, st.now)
		if live := refLive(ref, st.now); s.Len() < live || s.Len() > live+minChunk {
			t.Fatalf("after Sweep(%v): Len = %d with %d live, want at most one generation more", st.now, s.Len(), live)
		}
		for _, q1 := range []float64{0.05, 0.55, 0.9} {
			checkCandidates(t, s, ref, summary.Feature{q1}, 0.2, st.now)
		}
	}
	if s.Len() != 0 || s.Generations() != 0 {
		t.Fatalf("%d entries in %d generations after everything expired", s.Len(), s.Generations())
	}
}

// TestStoreSortedByFirstCoefficient: whatever order entries arrive in,
// every sealed run is sorted by its first coefficient, and a query radius
// only reaches entries whose L1 interval overlaps it — in the sealed runs
// and in the unsorted active generation alike.
func TestStoreSortedByFirstCoefficient(t *testing.T) {
	s := NewShardedStore(1)
	rng := rand.New(rand.NewSource(3))
	var ref []*summary.MBR
	for i := 0; i < 3*minChunk+6; i++ {
		l1 := rng.Float64()*2 - 1
		if i%10 == 0 {
			l1 = 0.1 // ties
		}
		b := mbrAt("s", uint64(i), summary.Feature{l1}, summary.Feature{l1 + 0.05}, sim.Second)
		s.Put(b)
		ref = append(ref, b)
	}
	if got := s.SnapStats().Merges; got != 3 {
		t.Fatalf("%d sealed runs, want 3", got)
	}
	checkSealedRuns(t, s, 0)
	_, before := s.Stats()
	checkCandidates(t, s, ref, summary.Feature{0.1}, 0.05, 0)
	if _, after := s.Stats(); after-before >= int64(len(ref))/2 {
		t.Fatalf("a narrow query scanned %d of %d entries: the sorted runs are not pruning", after-before, len(ref))
	}
}

// TestStoreWalkSkipsExpiredUntilSweep: a walk never mutates the store. An
// expired entry lingers until its generation goes, every walk skips it,
// and the sweep that finds nothing finite live in the active generation
// retires it, carrying the entries that never expire.
func TestStoreWalkSkipsExpiredUntilSweep(t *testing.T) {
	s := NewShardedStore(1)
	ref := []*summary.MBR{
		// Five entries near the query point, three of which expire at 1s.
		mbrAt("live1", 0, summary.Feature{0.10}, summary.Feature{0.12}, 0),
		mbrAt("dead1", 1, summary.Feature{0.11}, summary.Feature{0.13}, sim.Second),
		mbrAt("dead2", 2, summary.Feature{0.12}, summary.Feature{0.14}, sim.Second),
		mbrAt("live2", 3, summary.Feature{0.13}, summary.Feature{0.15}, 0),
		mbrAt("dead3", 4, summary.Feature{0.14}, summary.Feature{0.16}, sim.Second),
		// One far entry outside the walk, also expired.
		mbrAt("deadFar", 5, summary.Feature{0.9}, summary.Feature{0.95}, sim.Second),
	}
	for _, b := range ref {
		s.Put(b)
	}
	q := summary.Feature{0.12}
	checkCandidates(t, s, ref, q, 0.05, sim.Second-1) // all five
	for i := 0; i < 2; i++ {
		got := s.Candidates(q, 0.05, 2*sim.Second, 1)
		if len(got) != 2 {
			t.Fatalf("candidates = %v, want live1+live2", got)
		}
		checkCandidates(t, s, ref, q, 0.05, 2*sim.Second)
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len after candidate walks = %d, want %d: a walk must not move entries", s.Len(), len(ref))
	}
	if removed := s.Sweep(2 * sim.Second); removed != 4 {
		t.Fatalf("Sweep removed %d, want the 4 expired entries", removed)
	}
	if s.Len() != 2 {
		t.Fatalf("Len after sweep = %d", s.Len())
	}
	checkCandidates(t, s, ref, q, 0.05, 2*sim.Second)
}

func TestStoreWidthBoundCoversWideMBRs(t *testing.T) {
	s := NewShardedStore(1)
	// A wide rectangle whose Lo[0] is far below the query window but whose
	// interval still overlaps it: the maxWidth bound must keep it visible.
	s.Put(mbrAt("wide", 0, summary.Feature{-0.8}, summary.Feature{0.5}, 0))
	s.Put(mbrAt("narrow", 1, summary.Feature{0.4}, summary.Feature{0.45}, 0))
	got := s.Candidates(summary.Feature{0.42}, 0.05, 0, 1)
	if len(got) != 2 {
		t.Fatalf("candidates = %v, want wide+narrow", got)
	}
}

func TestStoreCandidates(t *testing.T) {
	s := NewShardedStore(1)
	s.Put(mbrAt("near", 3, summary.Feature{0.1}, summary.Feature{0.15}, 0))
	s.Put(mbrAt("far", 1, summary.Feature{0.8}, summary.Feature{0.9}, 0))
	s.Put(mbrAt("expired", 2, summary.Feature{0.1}, summary.Feature{0.12}, sim.Second))
	got := s.Candidates(summary.Feature{0.12}, 0.05, 2*sim.Second, 42)
	if len(got) != 1 {
		t.Fatalf("candidates = %v, want only 'near'", got)
	}
	m := got[0]
	if m.StreamID != "near" || m.Seq != 3 || m.Node != 42 || m.FoundAt != 2*sim.Second {
		t.Fatalf("match = %+v", m)
	}
	if m.DistLB != 0 {
		t.Fatalf("DistLB = %v, query point inside MBR", m.DistLB)
	}
}

func TestSimSubDedup(t *testing.T) {
	q := &query.Similarity{ID: 1, Lifespan: sim.Second}
	sub := newSimSub(q, 0)
	sids := newStreamIndex()
	add := func(m query.Match) bool { return sub.add(sids.key(m.StreamID, m.Seq), m) }
	m := query.Match{StreamID: "s", Seq: 7}
	if !add(m) {
		t.Fatal("first add rejected")
	}
	if add(m) {
		t.Fatal("duplicate accepted")
	}
	if !add(query.Match{StreamID: "s", Seq: 8}) {
		t.Fatal("new seq rejected")
	}
	got := sub.takePending()
	if len(got) != 2 {
		t.Fatalf("pending = %d", len(got))
	}
	if len(sub.takePending()) != 0 {
		t.Fatal("takePending did not clear")
	}
}

func TestAggregatorDedupAcrossNodes(t *testing.T) {
	a := newAggregator(1, 9, 100*sim.Second)
	sids := newStreamIndex()
	a.absorb(sids, []query.Match{{StreamID: "s", Seq: 1, Node: 10}})
	a.absorb(sids, []query.Match{{StreamID: "s", Seq: 1, Node: 11}}) // replica reported by another node
	a.absorb(sids, []query.Match{{StreamID: "s", Seq: 2, Node: 11}})
	got := a.takePending()
	if len(got) != 2 {
		t.Fatalf("aggregated = %d, want 2 (replica dedup)", len(got))
	}
}

func TestMatchMBR(t *testing.T) {
	b := mbrAt("s", 0, summary.Feature{0.2, 0}, summary.Feature{0.3, 0.1}, 0)
	if _, ok := MatchMBR(b, summary.Feature{0.25, 0.05}, 0.01); !ok {
		t.Fatal("inside point did not match")
	}
	if _, ok := MatchMBR(b, summary.Feature{0.9, 0.9}, 0.1); ok {
		t.Fatal("far point matched")
	}
	d, ok := MatchMBR(b, summary.Feature{0.4, 0.05}, 0.1+1e-9)
	if !ok || math.Abs(d-0.1) > 1e-9 {
		t.Fatalf("boundary match d=%v ok=%v", d, ok)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(c *Config){
		func(c *Config) { c.Space.M = 0 },
		func(c *Config) { c.WindowSize = 1 },
		func(c *Config) { c.Coeffs = 0 },
		func(c *Config) { c.Coeffs = c.WindowSize },
		func(c *Config) { c.FeatureDims = 0 },
		func(c *Config) { c.FeatureDims = 99 },
		func(c *Config) { c.Beta = 0 },
		func(c *Config) { c.MBRLifespan = 0 },
		func(c *Config) { c.PushPeriod = 0 },
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestConfigFeatureDimsZNormBudget(t *testing.T) {
	// With ZNorm and 3 coefficients, the DC term is dropped: 4 usable
	// coordinates remain.
	c := DefaultConfig()
	c.FeatureDims = 4
	if err := c.Validate(); err != nil {
		t.Fatalf("4 dims should fit: %v", err)
	}
	c.FeatureDims = 5
	if err := c.Validate(); err == nil {
		t.Fatal("5 dims should not fit 2 non-DC coefficients")
	}
}
