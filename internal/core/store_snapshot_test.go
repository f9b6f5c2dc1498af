package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

// TestSnapshotPutVisibleImmediately pins the publication fence the
// data-plane correctness argument rests on: Put publishes the new snapshot
// before returning, so a candidate walk that starts after Put returns must
// see the entry — even from the same goroutine, even while other
// goroutines are putting and sweeping concurrently.
func TestSnapshotPutVisibleImmediately(t *testing.T) {
	s := NewShardedStore(4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			dst := make([]query.Match, 0, 8)
			for i := 0; i < 300; i++ {
				l1 := rng.Float64()*2 - 1
				b := mbrAt(fmt.Sprintf("w%d", w), uint64(i),
					summary.Feature{l1, 0}, summary.Feature{l1 + 0.01, 0.1}, 0)
				s.Put(b)
				q := summary.Feature{l1, 0.05}
				dst = s.AppendCandidates(dst[:0], q, 0.06, 0, 1)
				found := false
				for _, m := range dst {
					if m.StreamID == b.StreamID && m.Seq == b.Seq {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("writer %d: entry %d not visible immediately after Put", w, i)
					return
				}
				if i%50 == 49 {
					s.Sweep(0)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSnapshotConcurrentIngestExpiryMatch is the randomized snapshot
// publication test: writers ingest entries with mid-run expiries, a
// sweeper expires them, and readers walk candidates the whole time, all
// under -race in CI. Readers check walk-level invariants in flight (every
// match corresponds to a real put, epochs never run backwards), and the
// final surviving state is compared against the linear-scan reference
// over the same entries.
func TestSnapshotConcurrentIngestExpiryMatch(t *testing.T) {
	const (
		writers   = 4
		perWriter = 400
		readers   = 3
	)
	s := NewShardedStore(8)

	entries := make([][]*summary.MBR, writers)
	valid := make(map[string]map[uint64]bool)
	for w := range entries {
		rng := rand.New(rand.NewSource(int64(7000 + w)))
		entries[w] = make([]*summary.MBR, perWriter)
		sid := fmt.Sprintf("snap%d", w)
		valid[sid] = make(map[uint64]bool)
		for i := range entries[w] {
			l1 := rng.Float64()*2 - 1
			width := rng.Float64() * 0.1
			expiry := sim.Time(0)
			if rng.Intn(3) == 0 {
				expiry = sim.Time(1 + rng.Intn(50))
			}
			entries[w][i] = mbrAt(sid, uint64(i),
				summary.Feature{l1, 0}, summary.Feature{l1 + width, 0.1}, expiry)
			valid[sid][uint64(i)] = true
		}
	}

	var stop atomic.Bool
	var writeWG, readWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i, b := range entries[w] {
				s.Put(b)
				if i%97 == 96 {
					s.Sweep(sim.Time(i / 8))
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(int64(7900 + r)))
			dst := make([]query.Match, 0, 256)
			lastEpoch := make([]uint64, s.Shards())
			for !stop.Load() {
				q := summary.Feature{rng.Float64()*2 - 1, 0.05}
				now := sim.Time(rng.Intn(60))
				dst = s.AppendCandidates(dst[:0], q, 0.2, now, 1)
				for _, m := range dst {
					if !valid[m.StreamID][m.Seq] {
						t.Errorf("match (%s,%d) does not correspond to any put entry", m.StreamID, m.Seq)
						return
					}
					if m.FoundAt != now || m.Node != 1 {
						t.Errorf("match metadata torn: %+v", m)
						return
					}
				}
				for i := range lastEpoch {
					e := s.shards[i].view.Load().epoch
					if e < lastEpoch[i] {
						t.Errorf("shard %d epoch ran backwards: %d -> %d", i, lastEpoch[i], e)
						return
					}
					lastEpoch[i] = e
				}
			}
		}(r)
	}
	writeWG.Wait()
	stop.Store(true)
	readWG.Wait()

	ref := slices.Concat(entries...)
	const now = 100 * sim.Time(1)
	s.Sweep(now)
	if got, want := s.Len(), refLive(ref, now); got != want {
		t.Fatalf("after concurrent run: %d entries, %d are live", got, want)
	}
	for trial := 0; trial < 60; trial++ {
		checkCandidates(t, s, ref, summary.Feature{float64(trial)/30 - 1, 0.05}, 0.15, now)
	}
	st := s.SnapStats()
	if st.Epochs == 0 || st.CowCopied == 0 {
		t.Fatalf("snapshot counters never moved: %+v", st)
	}
}

// walkView runs a candidate walk over one loaded shard view, the way
// AppendCandidates does for every shard.
func walkView(v *shardView, q summary.Feature, radius float64, now sim.Time) []query.Match {
	var out []query.Match
	for _, p := range v.runs {
		out, _ = p.appendCandidates(out, 0, q, q[0], radius, now, 1)
	}
	out, _ = v.active.appendCandidates(out, 0, q, radius, now, 1)
	return out
}

// TestSnapshotStaleReadIsImmutable is the stale-view regression test: what
// a reader loaded must keep describing the state it was published with.
// A sealed generation is frozen for good; of the active generation a
// reader owns the prefix it saw published — a writer may fill slots past
// it, never within it, and stops touching the chunks altogether once the
// generation is sealed. A bug there would show up here as a stale walk
// losing entries or seeing their coordinates change.
func TestSnapshotStaleReadIsImmutable(t *testing.T) {
	s := NewShardedStore(1)
	sh := &s.shards[0]
	// One sealed generation and a partly filled active one.
	for i := 0; i < minChunk; i++ {
		l1 := float64(i%10) * 0.01
		s.Put(mbrAt("sealed", uint64(i), summary.Feature{l1, 0}, summary.Feature{l1 + 0.005, 0.1}, 10*sim.Second))
	}
	for i := 0; i < 10; i++ {
		l1 := float64(i) * 0.01
		s.Put(mbrAt("active", uint64(i), summary.Feature{l1, 0}, summary.Feature{l1 + 0.005, 0.1}, 11*sim.Second))
	}
	stale := sh.view.Load()
	if len(stale.runs) != 1 || stale.active.n.Load() != 10 {
		t.Fatalf("stale view holds %d sealed runs and %d active entries, want 1 and 10", len(stale.runs), stale.active.n.Load())
	}
	frozen := freezeView(stale)
	q := summary.Feature{0.04, 0.05}
	const now = 3 * sim.Second
	wantMatches := walkView(stale, q, 0.1, now)
	if len(wantMatches) != minChunk+10 {
		t.Fatalf("stale walk found %d matches, want all %d entries", len(wantMatches), minChunk+10)
	}

	// Mutate heavily: more puts into the same band (in-place appends, new
	// chunks, seals of the active generation the stale reader is on and of
	// later ones), and sweeps, the last of which drop the stale sealed run.
	for round := 0; round < 5; round++ {
		for i := 0; i < 200; i++ {
			l1 := float64(i%20) * 0.005
			s.Put(mbrAt("new", uint64(round*200+i), summary.Feature{l1, 0}, summary.Feature{l1 + 0.005, 0.1}, 12*sim.Second))
		}
		s.Sweep(now + sim.Time(round+1)*2*sim.Second)
	}
	cur := sh.view.Load()
	if cur.epoch <= stale.epoch {
		t.Fatalf("view epoch did not advance under mutation: %d -> %d", stale.epoch, cur.epoch)
	}
	for _, p := range cur.runs {
		if p == stale.runs[0] {
			t.Fatal("the stale sealed run survived a sweep past its newest expiry")
		}
	}

	frozen.verify(t)
	// The stale walk still finds every entry it found before, at the same
	// distance; whatever else it finds was appended to its own generation
	// before that was sealed.
	got := map[string]query.Match{}
	for _, m := range walkView(stale, q, 0.1, now) {
		got[fmt.Sprint(m.StreamID, "/", m.Seq)] = m
	}
	for _, m := range wantMatches {
		if g, ok := got[fmt.Sprint(m.StreamID, "/", m.Seq)]; !ok || g != m {
			t.Fatalf("stale walk lost or changed %+v (now %+v)", m, g)
		}
	}
}

// TestSnapshotEpochAndCowCounters sanity-checks the SnapStats surface the
// node exposes over STATS. Every Put publishes (epoch
// bump) and moves nothing; an entry is moved exactly once, when the Put
// that fills its generation seals it; a sweep with nothing to drop
// publishes nothing; dropping generations moves nothing. Entries that
// never expire cannot fill a generation, so they are never sealed.
func TestSnapshotEpochAndCowCounters(t *testing.T) {
	live := NewShardedStore(1)
	const n = 600
	for i := 0; i < n; i++ {
		live.Put(mbrAt("s", uint64(i), summary.Feature{0.1}, summary.Feature{0.2}, 8*sim.Second))
	}
	// Generations of minChunk until the sealed ones hold G of them, then
	// of 1/G of what is sealed: 8 x 64, then one of 64 (512/8).
	const seals, moved = 9, 9 * minChunk
	want := SnapStats{Epochs: n + seals, CowCopied: moved, Merges: seals}
	if st := live.SnapStats(); st != want {
		t.Fatalf("after %d puts: %+v, want %+v", n, st, want)
	}
	if got := live.Generations(); got != seals+1 {
		t.Fatalf("%d generations, want %d sealed and the active one", got, seals)
	}
	live.Sweep(sim.Second) // nothing has expired
	if st := live.SnapStats(); st != want {
		t.Fatalf("an idle sweep published: %+v", st)
	}
	if removed := live.Sweep(8 * sim.Second); removed != n || live.Len() != 0 || live.Generations() != 0 {
		t.Fatalf("sweep past expiry removed %d of %d, %d left in %d generations", removed, n, live.Len(), live.Generations())
	}
	want.Epochs++
	if st := live.SnapStats(); st != want {
		t.Fatalf("dropping every generation: %+v, want one more epoch and nothing moved (%+v)", st, want)
	}

	// The simulator's configuration: StoreShards 0 means one shard.
	simStore := NewShardedStore(0)
	for i := 0; i < 5*minChunk; i++ {
		simStore.Put(mbrAt("s", uint64(i), summary.Feature{0.1}, summary.Feature{0.2}, 0))
	}
	want = SnapStats{Epochs: 5 * minChunk}
	if st := simStore.SnapStats(); st != want || simStore.Shards() != 1 || simStore.Generations() != 1 {
		t.Fatalf("%d never-expiring puts: %+v in %d generations over %d shards, want %+v in the active one",
			5*minChunk, st, simStore.Generations(), simStore.Shards(), want)
	}
	if removed := simStore.Sweep(100 * sim.Second); removed != 0 || simStore.Len() != 5*minChunk {
		t.Fatalf("sweep removed %d never-expiring entries, %d left", removed, simStore.Len())
	}
}
