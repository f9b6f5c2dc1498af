package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

// frozenView is a deep copy of what one loaded shard view showed its
// reader: the sealed runs' arrays and the published prefix of every active
// chunk. verify checks the view still shows exactly that.
type frozenView struct {
	v     *shardView
	runs  []shardSnap
	slots [][]genSlot
}

func freezeView(v *shardView) frozenView {
	f := frozenView{v: v}
	for _, p := range v.runs {
		c := *p
		c.lo1 = append([]float64(nil), p.lo1...)
		c.hi1 = append([]float64(nil), p.hi1...)
		c.exp = append([]sim.Time(nil), p.exp...)
		c.crd = append([]float64(nil), p.crd...)
		c.refs = append([]*summary.MBR(nil), p.refs...)
		f.runs = append(f.runs, c)
	}
	for c := v.active; c != nil; c = c.next.Load() {
		f.slots = append(f.slots, append([]genSlot(nil), c.slots[:c.n.Load()]...))
	}
	return f
}

func (f frozenView) verify(t *testing.T) {
	t.Helper()
	for i, p := range f.v.runs {
		w := &f.runs[i]
		if !slices.Equal(p.lo1, w.lo1) || !slices.Equal(p.hi1, w.hi1) || !slices.Equal(p.exp, w.exp) ||
			!slices.Equal(p.crd, w.crd) || !slices.Equal(p.refs, w.refs) ||
			p.dims != w.dims || p.maxWidth != w.maxWidth || p.newest != w.newest {
			t.Fatalf("sealed run %d of a stale view was mutated", i)
		}
	}
	c := f.v.active
	for i, want := range f.slots {
		if !slices.Equal(c.slots[:len(want)], want) {
			t.Fatalf("published prefix of active chunk %d of a stale view was mutated", i)
		}
		c = c.next.Load()
	}
}

// genWriter is one writer's log of entries: entries[i] is written before
// started reaches i+1 and its Put has returned once done reaches i+1, so
// readers bracket what a concurrent walk must and may contain.
type genWriter struct {
	entries       []*summary.MBR
	started, done atomic.Int64
}

func liveAt(b *summary.MBR, now sim.Time) bool { return b.Expiry == 0 || now < b.Expiry }

// TestGenerationalStoreProperty hammers one generational store with
// concurrent Put / Sweep / AppendCandidates / AppendOverlapping (under
// -race in CI) on a shared virtual clock, with mixed dimensionalities,
// never-expiring entries and one shard taking 90 % of the inserts, and
// holds it to a brute-force oracle while it runs and to the linear-scan
// reference (refMatches) between rounds:
//
//   - a walk returns every matching entry whose Put had returned before the
//     walk started and that is still live when it ends, nothing that is
//     expired at the walk's now, nothing that does not match, nothing twice;
//   - an entry is visible to a walk its own writer starts right after Put;
//   - between rounds, candidate and overlap sets equal the reference's;
//   - what a reader loaded at the start of a round is unchanged at its end;
//   - after a sweep every sealed run is sorted and no generation is held
//     past its newest expiry, and, with
//     expiries in near-arrival order, a shard holds no more expired entries
//     than fit in the generations its oldest expiries can straddle — one,
//     two where the disorder crosses a seal (Len() <= live + one
//     generation) — in a constant number of generations.
//
// The "wild" variant draws expiries anywhere in (0, 2·lifespan]: every
// correctness property must still hold, only the storage bound is void.
func TestGenerationalStoreProperty(t *testing.T) {
	for _, wild := range []bool{false, true} {
		t.Run(fmt.Sprintf("wild=%v", wild), func(t *testing.T) { genStoreProperty(t, wild) })
	}
}

func genStoreProperty(t *testing.T, wild bool) {
	const (
		writers  = 4
		readers  = 3
		rounds   = 36  // 2.2 lifespans
		perRound = 100 // puts per writer per round
		lifespan = sim.Time(1000)
		step     = lifespan / 50 // the sweeper's period
		sweeps   = 3             // per round
		jitter   = lifespan / 20
		radius   = 0.08
	)
	s := NewShardedStore(4)
	hotShard := s.shardOf(0.1)
	var ref []*summary.MBR
	var clk atomic.Int64
	ws := make([]*genWriter, writers)
	for w := range ws {
		ws[w] = &genWriter{entries: make([]*summary.MBR, rounds*perRound)}
	}

	newEntry := func(rng *rand.Rand, w, i int) *summary.MBR {
		l1 := rng.Float64() * 0.25 // the hot band
		if rng.Intn(10) == 0 {
			l1 = rng.Float64()*2 - 1
		}
		width := rng.Float64() * 0.05
		if rng.Intn(50) == 0 {
			width = 0.5
		}
		lo, hi := summary.Feature{l1, rng.Float64()}, summary.Feature{l1 + width, 1 + rng.Float64()}
		if rng.Intn(7) == 0 { // a third dimension
			lo, hi = append(lo, rng.Float64()), append(hi, 1+rng.Float64())
		}
		now := sim.Time(clk.Load())
		var expiry sim.Time
		switch {
		case rng.Intn(12) == 0: // never expires
		case wild:
			expiry = now + 1 + sim.Time(rng.Int63n(int64(2*lifespan)))
		default:
			expiry = now + lifespan - jitter + sim.Time(rng.Int63n(int64(2*jitter)))
		}
		return mbrAt(fmt.Sprint(w), uint64(i), lo, hi, expiry)
	}
	randomQuery := func(rng *rand.Rand) summary.Feature {
		q := summary.Feature{rng.Float64()*0.4 - 0.05, 0.5 + rng.Float64()}
		if rng.Intn(4) == 0 {
			q = append(q, 0.5+rng.Float64())
		}
		return q
	}
	// matches is the brute-force oracle of both walks: a candidate walk for
	// (q, radius) when hi is nil, an overlap walk for [q, hi] otherwise.
	matches := func(b *summary.MBR, q, hi summary.Feature) bool {
		if hi != nil {
			return rectOverlaps(b, q, hi)
		}
		return len(b.Lo) == len(q) && b.MinDist(q) <= radius
	}
	walk := func(dst []query.Match, q, hi summary.Feature, now sim.Time) []query.Match {
		if hi != nil {
			return s.AppendOverlapping(dst, q, hi, now, 1)
		}
		return s.AppendCandidates(dst, q, radius, now, 1)
	}
	// checkedWalk runs one walk concurrently with the writers and the
	// sweeper and holds its result between what it must and may contain.
	checkedWalk := func(rng *rand.Rand, dst []query.Match) []query.Match {
		q := randomQuery(rng)
		var hi summary.Feature
		if rng.Intn(2) == 0 {
			hi = q.Clone()
			for d := range hi {
				hi[d] += 0.1
			}
		}
		var before, after [writers]int64
		for w := range ws {
			before[w] = ws[w].done.Load()
		}
		n0 := sim.Time(clk.Load())
		dst = walk(dst[:0], q, hi, n0)
		n1 := sim.Time(clk.Load())
		for w := range ws {
			after[w] = ws[w].started.Load()
		}
		got := make(map[[2]uint64]bool, len(dst)) // (writer, seq)
		for _, m := range dst {
			w, err := strconv.Atoi(m.StreamID)
			if err != nil || w < 0 || w >= writers || int64(m.Seq) >= after[w] {
				t.Errorf("walk returned (%s,%d) before its Put started", m.StreamID, m.Seq)
				continue
			}
			e := ws[w].entries[m.Seq]
			if !liveAt(e, n0) {
				t.Errorf("walk at %v returned (%s,%d), expired at %v", n0, m.StreamID, m.Seq, e.Expiry)
			}
			if !matches(e, q, hi) {
				t.Errorf("walk returned (%s,%d), which does not match", m.StreamID, m.Seq)
			}
			if m.FoundAt != n0 || m.Node != 1 {
				t.Errorf("match metadata torn: %+v", m)
			}
			key := [2]uint64{uint64(w), m.Seq}
			if got[key] {
				t.Errorf("walk returned (%s,%d) twice", m.StreamID, m.Seq)
			}
			got[key] = true
		}
		for w := range ws {
			for i, e := range ws[w].entries[:before[w]] {
				if matches(e, q, hi) && liveAt(e, n1) && !got[[2]uint64{uint64(w), uint64(i)}] {
					t.Errorf("walk over [%v,%v] missed (%d,%d), put before it and live until %v", n0, n1, w, i, e.Expiry)
				}
			}
		}
		return dst
	}

	for round := 0; round < rounds && !t.Failed(); round++ {
		frozen := make([]frozenView, len(s.shards))
		for i := range s.shards {
			frozen[i] = freezeView(s.shards[i].view.Load())
		}
		var wg sync.WaitGroup
		for w := range ws {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*writers + w)))
				gw := ws[w]
				var dst []query.Match
				for i := round * perRound; i < (round+1)*perRound; i++ {
					e := newEntry(rng, w, i)
					gw.entries[i] = e
					gw.started.Store(int64(i + 1))
					s.Put(e)
					gw.done.Store(int64(i + 1))
					if i%8 != 0 {
						continue
					}
					// The ordering fence: visible to the very next walk.
					dst = s.AppendCandidates(dst[:0], e.Lo, radius, sim.Time(clk.Load()), 1)
					seen := false
					for _, m := range dst {
						seen = seen || (m.StreamID == e.StreamID && m.Seq == e.Seq)
					}
					if !seen && liveAt(e, sim.Time(clk.Load())) {
						t.Errorf("writer %d: entry %d not visible to the walk after its Put", w, i)
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < sweeps; k++ {
				runtime.Gosched()
				s.Sweep(sim.Time(clk.Add(int64(step))))
			}
		}()
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1e6 + round*readers + r)))
				var dst []query.Match
				for k := 0; k < 4; k++ {
					dst = checkedWalk(rng, dst)
				}
			}(r)
		}
		wg.Wait()

		// Quiescent: sweep and compare with the reference at the same instant.
		now := sim.Time(clk.Load())
		s.Sweep(now)
		for w := range ws {
			ref = append(ref, ws[w].entries[round*perRound:(round+1)*perRound]...)
		}
		for i := range frozen {
			frozen[i].verify(t)
		}
		rng := rand.New(rand.NewSource(int64(2e6 + round)))
		for k := 0; k < 8; k++ {
			q := randomQuery(rng)
			checkCandidates(t, s, ref, q, radius, now)
			hi := q.Clone()
			for d := range hi {
				hi[d] += 0.1
			}
			got := s.AppendOverlapping(nil, q, hi, now, 1)
			sortMatches(got)
			if want := refMatches(ref, q, hi, 0, now, 1); !slices.Equal(got, want) {
				t.Fatalf("round %d: overlaps of [%v,%v] at %v diverged from the reference:\n%v\n%v", round, q, hi, now, got, want)
			}
		}

		// Storage: everything live is held, and no generation outlives its
		// newest entry.
		if held, live := s.Len(), refLive(ref, now); held != len(s.allEntries()) || held < live {
			t.Fatalf("round %d: Len() = %d, store holds %d entries, %d are live", round, held, len(s.allEntries()), live)
		}
		checkSealedRuns(t, s, now)
		for i := range s.shards {
			sh := &s.shards[i]
			runs := sh.view.Load().runs
			expired, largest, second := 0, 0, 0
			for _, p := range runs {
				if n := len(p.refs); n > largest {
					largest, second = n, largest
				} else if n > second {
					second = n
				}
			}
			if sh.finite > 0 && sh.newest <= now {
				t.Fatalf("round %d: shard %d still holds an active generation expired since %v (now %v)", round, i, sh.newest, now)
			}
			if wild {
				continue
			}
			for _, e := range s.shardEntries(i) {
				if !liveAt(e, now) {
					expired++
				}
			}
			if expired > largest+second {
				t.Fatalf("round %d: shard %d holds %d expired entries, more than its two largest generations (%d, %d)",
					round, i, expired, largest, second)
			}
			// Past the ramp-up the generation count settles near G.
			if round == rounds-1 && len(runs) > 2*storeGenerations {
				t.Fatalf("shard %d holds %d sealed generations after %d rounds, want about %d", i, len(runs), rounds, storeGenerations)
			}
		}
	}
	puts, _ := s.Stats()
	hot := len(s.shardEntries(hotShard))
	if st := s.SnapStats(); st.Merges == 0 || st.CowCopied > 2*puts {
		t.Fatalf("after %d puts: %+v, want seals that move an entry about once", puts, st)
	}
	if held := s.Len(); hot*10 < held*8 {
		t.Fatalf("hot shard holds %d of %d entries, want about 90%%", hot, held)
	}
}

// steadyStore returns a 4-shard store in steady state on a virtual clock
// that ticks once per put: entries live `lifespan` ticks and the store is
// swept every lifespan/50 ticks, like a node's push period against BSPAN.
// next performs one such period — its puts (some of which seal), then its
// sweep.
func steadyStore(lifespan int) (s *Store, now *sim.Time, next func()) {
	s = NewShardedStore(4)
	now = new(sim.Time)
	rng := rand.New(rand.NewSource(5))
	perSweep := lifespan / 50
	mbrs := make([]*summary.MBR, 400*perSweep)
	for i := range mbrs {
		l1 := rng.Float64()*2 - 1
		mbrs[i] = mbrAt("s", uint64(i), summary.Feature{l1, 0}, summary.Feature{l1 + 0.01, 0.1}, sim.Time(i+1+lifespan))
	}
	i := 0
	next = func() {
		for k := 0; k < perSweep; k++ {
			*now++
			s.Put(mbrs[i])
			i++
		}
		s.Sweep(*now)
	}
	for k := 0; k < 150; k++ { // three lifespans: generations sealed and dropped
		next()
	}
	return s, now, next
}

// TestGenStorePutAmortizedAllocs guards the ingest path: in steady state a
// Put writes one slot in place, and what the chunks, the seals and the
// view publications allocate amortizes to under a tenth of an object per
// put — no per-put snapshot.
func TestGenStorePutAmortizedAllocs(t *testing.T) {
	const lifespan = 20000
	s, _, next := steadyStore(lifespan)
	perPeriod := testing.AllocsPerRun(200, next)
	if perPut := perPeriod / (lifespan / 50); perPut > 0.1 {
		t.Fatalf("steady-state Put allocated %.3f objects per put, want <= 0.1", perPut)
	}
	if g := s.Generations(); g < 4*storeGenerations || g > 4*(storeGenerations+3) {
		t.Fatalf("steady state holds %d generations over 4 shards, want about %d each", g, storeGenerations)
	}
	st := s.SnapStats()
	if puts, _ := s.Stats(); st.CowCopied > puts {
		t.Fatalf("%d entries moved for %d puts: an entry must be sealed at most once", st.CowCopied, puts)
	}
}

// TestGenStoreIdleSweepAndWalkZeroAllocs: a sweep with nothing to drop,
// and both walks over sealed runs plus a multi-chunk active
// generation, stay off the allocator entirely.
func TestGenStoreIdleSweepAndWalkZeroAllocs(t *testing.T) {
	s, now, _ := steadyStore(20000)
	for i := 0; i < 3*minChunk; i++ { // spill the active generation into a second chunk
		l1 := float64(i%100)/50 - 1
		s.Put(mbrAt("late", uint64(i), summary.Feature{l1, 0}, summary.Feature{l1 + 0.01, 0.1}, *now+20000))
	}
	s.Sweep(*now)
	epochs := s.SnapStats().Epochs
	if allocs := testing.AllocsPerRun(100, func() { s.Sweep(*now) }); allocs != 0 {
		t.Fatalf("idle Sweep allocated %.1f objects per run, want 0", allocs)
	}
	if got := s.SnapStats().Epochs; got != epochs {
		t.Fatalf("idle Sweep published %d views", got-epochs)
	}
	q, hi := summary.Feature{0.1, 0.05}, summary.Feature{0.15, 0.2}
	dst := make([]query.Match, 0, 1024)
	if dst = s.AppendCandidates(dst, q, 0.05, *now, 1); len(dst) == 0 {
		t.Fatal("candidate walk matched nothing")
	}
	if allocs := testing.AllocsPerRun(100, func() { dst = s.AppendCandidates(dst[:0], q, 0.05, *now, 1) }); allocs != 0 {
		t.Fatalf("AppendCandidates allocated %.1f objects per run, want 0", allocs)
	}
	if dst = s.AppendOverlapping(dst[:0], q, hi, *now, 1); len(dst) == 0 {
		t.Fatal("overlap walk matched nothing")
	}
	if allocs := testing.AllocsPerRun(100, func() { dst = s.AppendOverlapping(dst[:0], q, hi, *now, 1) }); allocs != 0 {
		t.Fatalf("AppendOverlapping allocated %.1f objects per run, want 0", allocs)
	}
}
