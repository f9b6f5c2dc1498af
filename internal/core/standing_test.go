package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
	"streamdex/internal/wire"
)

// scanOracle is the per-MBR match as it was before the standing table: a
// linear scan over the similarity subscriptions (expiry, then MatchMBR)
// and over the predicates (expiry, then rectOverlaps). An MBR whose
// dimensionality differs from a similarity query's matches nothing here;
// the old scan panicked in MinDist instead.
func scanOracle(sims []*simSub, preds []*standingSub, b *summary.MBR, now sim.Time) (simHits map[*simSub]float64, predHits map[*standingSub]bool) {
	simHits = make(map[*simSub]float64)
	predHits = make(map[*standingSub]bool)
	for _, sub := range sims {
		if now >= sub.q.Expiry() || len(b.Lo) != len(sub.q.Feature) {
			continue
		}
		if d, ok := MatchMBR(b, sub.q.Feature, sub.q.Radius); ok {
			simHits[sub] = d
		}
	}
	for _, sub := range preds {
		if now >= sub.p.Expiry() {
			continue
		}
		if rectOverlaps(b, sub.p.Lo, sub.p.Hi) {
			predHits[sub] = true
		}
	}
	return simHits, predHits
}

// hit is one reported detection: the owner (its registration number), the
// MBR and the distance bound's bits.
type hit struct {
	owner  int
	stream string
	seq    uint64
	dist   uint64
}

// TestStandingTableMatchesLinearScan: over seeded schedules of
// registrations, cancels, sweeps and MBR arrivals, the table walk reports
// exactly the (entry, stream, seq) set of the linear scan, with
// bit-identical distance bounds, and keeps its entries in registration
// order. The MBRs include ones at exactly distance r from a similarity
// query, boxes touching a predicate's edge, arrivals at an entry's exact
// expiry and MBRs of the wrong dimensionality.
func TestStandingTableMatchesLinearScan(t *testing.T) {
	const dim = 3
	// Edge cases the schedules must reach, summed over seeds: matches at
	// exactly distance r, predicate hits on a touching edge, arrivals at
	// an entry's exact expiry, MBRs of the wrong dimensionality.
	var boundary, touching, atExpiry, mismatch, maxDead int
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		tab := newStandingTable(dim)
		sids := newStreamIndex()
		var sims []*simSub
		var preds []*standingSub
		order := map[any]int{} // owner -> registration number
		var live []any         // owners in registration order
		want := map[hit]bool{}
		seen := map[[3]any]bool{} // (owner, stream, seq) already reported
		now := sim.Time(1000)
		nextID := query.ID(1)

		point := func() summary.Feature {
			f := make(summary.Feature, dim)
			for d := range f {
				f[d] = r.Float64()*2 - 1
			}
			return f
		}
		addSim := func() {
			q := &query.Similarity{ID: nextID, Feature: point(), Radius: r.Float64() * 0.3,
				Posted: now, Lifespan: sim.Time(1 + r.Intn(50))}
			if r.Intn(8) == 0 {
				q.Radius = 0
			}
			nextID++
			sub := newSimSub(q, 0)
			tab.addSim(sub)
			sims = append(sims, sub)
			order[sub] = len(order)
			live = append(live, sub)
		}
		addPred := func() {
			lo, hi := point(), point()
			for d := range lo {
				if lo[d] > hi[d] {
					lo[d], hi[d] = hi[d], lo[d]
				}
			}
			p := &query.Predicate{ID: nextID, Lo: lo, Hi: hi, Posted: now, Lifespan: sim.Time(1 + r.Intn(50))}
			nextID++
			sub := newStandingSub(p)
			tab.addPred(sub)
			preds = append(preds, sub)
			order[sub] = len(order)
			live = append(live, sub)
		}
		// mbr draws an arrival, often placed on a boundary of a live entry.
		mbr := func(seq uint64) *summary.MBR {
			stream := fmt.Sprintf("s%d", r.Intn(5))
			lo, hi := point(), point()
			for d := range lo {
				if lo[d] > hi[d] {
					lo[d], hi[d] = hi[d], lo[d]
				}
			}
			if len(live) > 0 && r.Intn(2) == 0 {
				switch o := live[r.Intn(len(live))].(type) {
				case *simSub:
					// At distance r along one axis, inside on the others.
					// When (q+r)-q rounds back to r, MinDist is exactly
					// sqrt(r*r) = r.
					q := o.q.Feature
					ax := r.Intn(dim)
					for d := range lo {
						lo[d], hi[d] = q[d]-0.01, q[d]+0.01
					}
					lo[ax] = q[ax] + o.q.Radius
					hi[ax] = lo[ax] + 0.05
				case *standingSub:
					// Touching an edge of the rectangle.
					ax := r.Intn(dim)
					copy(lo, o.p.Lo)
					copy(hi, o.p.Hi)
					if r.Intn(2) == 0 {
						lo[ax] = o.p.Hi[ax]
						hi[ax] = lo[ax] + 0.1
					} else {
						hi[ax] = o.p.Lo[ax]
						lo[ax] = hi[ax] - 0.1
					}
				}
			}
			if r.Intn(12) == 0 {
				lo = append(lo, 0)
				hi = append(hi, 0)
			}
			return &summary.MBR{Lo: lo, Hi: hi, StreamID: stream, Seq: seq}
		}

		for step := 0; step < 400; step++ {
			switch op := r.Intn(20); {
			case op < 3:
				addSim()
			case op < 5:
				addPred()
			case op == 5 && len(preds) > 0:
				// Cancel one predicate.
				victim := preds[r.Intn(len(preds))]
				tab.removeIf(func(e *standingEntry) bool { return e.pred == victim }, false)
				preds = remove(preds, victim)
				live = remove(live, any(victim))
			case op == 6:
				// Sweep expired similarity queries, then predicates, as
				// the two periodic slices do.
				tab.removeIf(func(e *standingEntry) bool { return e.sim != nil && now >= e.expiry }, true)
				tab.removeIf(func(e *standingEntry) bool { return e.pred != nil && now >= e.expiry }, true)
				var keptSims []*simSub
				for _, s := range sims {
					if now < s.q.Expiry() {
						keptSims = append(keptSims, s)
					}
				}
				var keptPreds []*standingSub
				for _, s := range preds {
					if now < s.p.Expiry() {
						keptPreds = append(keptPreds, s)
					}
				}
				sims, preds = keptSims, keptPreds
				var keptLive []any
				for _, o := range live {
					if containsAny(sims, o) || containsAny(preds, o) {
						keptLive = append(keptLive, o)
					}
				}
				live = keptLive
			case op < 9:
				now += sim.Time(r.Intn(4))
			default:
				b := mbr(uint64(r.Intn(30)))
				simHits, predHits := scanOracle(sims, preds, b, now)
				if len(b.Lo) != dim {
					mismatch++
				}
				for _, sub := range sims {
					if sub.q.Expiry() == now {
						atExpiry++
					}
				}
				for _, sub := range preds {
					if sub.p.Expiry() == now {
						atExpiry++
					}
				}
				for sub, d := range simHits {
					if d == sub.q.Radius {
						boundary++
					}
					if k := [3]any{sub, b.StreamID, b.Seq}; !seen[k] {
						seen[k] = true
						want[hit{order[sub], b.StreamID, b.Seq, math.Float64bits(d)}] = true
					}
				}
				for sub := range predHits {
					for d := range b.Lo {
						if b.Lo[d] == sub.p.Hi[d] || b.Hi[d] == sub.p.Lo[d] {
							touching++
						}
					}
					if k := [3]any{sub, b.StreamID, b.Seq}; !seen[k] {
						seen[k] = true
						want[hit{order[sub], b.StreamID, b.Seq, 0}] = true
					}
				}
				tab.load().match(b, now, 7, sids)
			}
			// The table holds the live owners in registration order, and
			// besides them only swept entries that are expired.
			s := tab.load()
			if len(s.lo) != dim*s.stride || len(s.hi) != dim*s.stride || s.stride < len(s.ents) {
				t.Fatalf("seed %d step %d: %d entries in arrays of stride %d", seed, step, len(s.ents), s.stride)
			}
			j, dead := 0, 0
			for _, e := range s.ents {
				var o any = e.pred
				if e.sim != nil {
					o = e.sim
				}
				switch {
				case j < len(live) && o == live[j]:
					j++
				case now < e.expiry:
					t.Fatalf("seed %d step %d: removed entry %d still live in the table", seed, step, order[o])
				default:
					dead++
				}
			}
			if j != len(live) {
				t.Fatalf("seed %d step %d: table holds %d of %d live entries in registration order", seed, step, j, len(live))
			}
			maxDead = max(maxDead, dead)
		}

		got := map[hit]bool{}
		collect := func(owner any, d *detections) {
			for _, m := range d.takePending() {
				h := hit{order[owner], m.StreamID, m.Seq, math.Float64bits(m.DistLB)}
				if got[h] {
					t.Fatalf("seed %d: %+v reported twice", seed, h)
				}
				if m.Node != 7 {
					t.Fatalf("seed %d: match %+v carries the wrong node", seed, m)
				}
				got[h] = true
			}
		}
		for o := range order {
			switch o := o.(type) {
			case *simSub:
				collect(o, &o.detections)
			case *standingSub:
				collect(o, &o.detections)
			}
		}
		if len(want) == 0 {
			t.Fatalf("seed %d: no match; the property is vacuous", seed)
		}
		for h := range want {
			if !got[h] {
				t.Errorf("seed %d: missed %+v", seed, h)
			}
		}
		for h := range got {
			if !want[h] {
				t.Errorf("seed %d: spurious %+v", seed, h)
			}
		}
	}
	if boundary == 0 || touching == 0 || atExpiry == 0 || mismatch == 0 || maxDead == 0 {
		t.Fatalf("edge cases not reached: %d at distance r, %d touching, %d at expiry, %d mismatched, at most %d swept entries kept",
			boundary, touching, atExpiry, mismatch, maxDead)
	}
	t.Logf("%d at distance r, %d touching, %d at expiry, %d mismatched, at most %d swept entries kept", boundary, touching, atExpiry, mismatch, maxDead)
}

func remove[T comparable](xs []T, x T) []T {
	out := xs[:0]
	for _, y := range xs {
		if y != x {
			out = append(out, y)
		}
	}
	return out
}

func containsAny[T comparable](xs []T, o any) bool {
	for _, x := range xs {
		if any(x) == o {
			return true
		}
	}
	return false
}

// TestStandingTableConcurrentWalks runs registrations, cancels and sweeps
// against concurrent walks (meaningful under -race). A similarity query
// that is registered throughout and contains every MBR reports each
// (stream, seq) exactly once, however many walkers see it.
func TestStandingTableConcurrentWalks(t *testing.T) {
	const dim, walkers, perWalker = 2, 4, 2000
	tab := newStandingTable(dim)
	sids := newStreamIndex()
	anchor := newSimSub(&query.Similarity{ID: 1, Feature: summary.Feature{0, 0}, Radius: 10, Lifespan: 1 << 40}, 0)
	tab.addSim(anchor)

	var writer, walking sync.WaitGroup
	stop := make(chan struct{})
	writer.Add(1)
	go func() { // register, cancel and sweep until the walkers are done
		defer writer.Done()
		r := rand.New(rand.NewSource(1))
		var preds []*standingSub
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			now := sim.Time(i)
			switch r.Intn(4) {
			case 0:
				tab.addSim(newSimSub(&query.Similarity{ID: query.ID(i + 2), Feature: summary.Feature{r.Float64(), r.Float64()},
					Radius: 0.2, Posted: now, Lifespan: sim.Time(r.Intn(50))}, 0))
			case 1:
				p := newStandingSub(&query.Predicate{ID: query.ID(i + 2), Lo: summary.Feature{-1, -1}, Hi: summary.Feature{1, 1},
					Posted: now, Lifespan: 1 << 40})
				tab.addPred(p)
				preds = append(preds, p)
			case 2:
				if len(preds) > 0 {
					victim := preds[0]
					preds = preds[1:]
					tab.removeIf(func(e *standingEntry) bool { return e.pred == victim }, false)
				}
			case 3:
				tab.removeIf(func(e *standingEntry) bool { return e.sim != nil && now >= e.expiry }, true)
			}
		}
	}()
	for w := 0; w < walkers; w++ {
		walking.Add(1)
		go func(w int) {
			defer walking.Done()
			r := rand.New(rand.NewSource(int64(w) + 10))
			for i := 0; i < perWalker; i++ {
				x, y := r.Float64(), r.Float64()
				// Every walker publishes the same (stream, seq) sequence,
				// through its own string allocation.
				b := &summary.MBR{Lo: summary.Feature{x, y}, Hi: summary.Feature{x + 0.01, y + 0.01},
					StreamID: fmt.Sprint("s", i%7), Seq: uint64(i)}
				tab.load().match(b, sim.Time(i), 1, sids)
			}
		}(w)
	}
	walked := make(chan struct{})
	go func() {
		walking.Wait()
		close(walked)
	}()
	// Drain the anchor while the walks run, as the run loop does.
	var got []query.Match
	for done := false; !done; {
		select {
		case <-walked:
			done = true
		default:
			runtime.Gosched()
		}
		got = append(got, anchor.takePending()...)
	}
	close(stop)
	writer.Wait()
	if len(got) != perWalker {
		t.Fatalf("anchor reported %d detections, want %d (each (stream, seq) once)", len(got), perWalker)
	}
	seen := map[uint64]bool{}
	for _, m := range got {
		if seen[m.Seq] {
			t.Fatalf("seq %d reported twice", m.Seq)
		}
		seen[m.Seq] = true
	}
}

// TestStandingWalkZeroAllocs guards the per-MBR hot path: a walk over 1000
// live entries none of which matches allocates nothing.
func TestStandingWalkZeroAllocs(t *testing.T) {
	const dim = 3
	tab := newStandingTable(dim)
	sids := newStreamIndex()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		f := summary.Feature{r.Float64() * 0.5, r.Float64() * 0.5, r.Float64() * 0.5}
		if i%2 == 0 {
			tab.addSim(newSimSub(&query.Similarity{ID: query.ID(i), Feature: f, Radius: 0.1, Lifespan: sim.Second}, 0))
		} else {
			tab.addPred(newStandingSub(&query.Predicate{ID: query.ID(i), Lo: f, Hi: f, Lifespan: sim.Second}))
		}
	}
	b := mbrAt("far", 1, summary.Feature{0.9, 0.9, 0.9}, summary.Feature{0.95, 0.95, 0.95}, 0)
	s := tab.load()
	allocs := testing.AllocsPerRun(200, func() { s.match(b, 0, 1, sids) })
	if allocs != 0 {
		t.Fatalf("walk allocated %.1f objects per MBR, want 0", allocs)
	}
	for _, e := range s.ents {
		if (e.sim != nil && len(e.sim.pending) != 0) || (e.pred != nil && len(e.pred.pending) != 0) {
			t.Fatal("the far MBR matched an entry; the guard measures the wrong path")
		}
	}
}

// TestSeqSetAddPresentZeroAllocs guards the dedup hit path: interning a
// known stream id and re-adding a present key allocate nothing.
func TestSeqSetAddPresentZeroAllocs(t *testing.T) {
	sids := newStreamIndex()
	s := seqSet{}
	for i := 0; i < 100; i++ {
		s.add(sids.key(fmt.Sprint("s", i%10), uint64(i)))
	}
	id := string([]byte("s3")) // a separate allocation of a known id
	allocs := testing.AllocsPerRun(1000, func() {
		if s.add(sids.key(id, 13)) {
			t.Fatal("present key reported absent")
		}
	})
	if allocs != 0 {
		t.Fatalf("seqSet.add of a present key allocated %.1f objects, want 0", allocs)
	}
}

// decodeMBR round-trips an MBR through the wire codec with its own arena,
// so every call returns a separately allocated stream id.
func decodeMBR(t *testing.T, b *summary.MBR) *summary.MBR {
	t.Helper()
	frame, err := wire.Marshal(&dht.Message{Kind: KindMBR, Payload: MBRUpdate{MBR: b}})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := wire.UnmarshalArena(frame, wire.NewArena(nil))
	if err != nil {
		t.Fatal(err)
	}
	return msg.Payload.(MBRUpdate).MBR
}

// TestDedupAcrossStringAllocations: one (stream, seq) arriving through two
// separately allocated id strings — two arena decodes — is reported once
// by each of the five owners of a dedup set: a similarity subscription, a
// predicate, an aggregator, a client result table and a top-k monitor.
// Interning is also hammered concurrently (meaningful under -race).
func TestDedupAcrossStringAllocations(t *testing.T) {
	cfg := testConfig()
	_, _, mw, ids := testCluster(t, 4, cfg, false)
	orig := mbrAt("dup-stream", 42, summary.Feature{0.1, 0.1, 0.1}, summary.Feature{0.2, 0.2, 0.2}, 0)
	b1, b2 := decodeMBR(t, orig), decodeMBR(t, orig)
	if b1.StreamID != b2.StreamID || b1 == b2 {
		t.Fatal("decodes should be equal and distinct")
	}

	// Interning from many goroutines agrees on one index per id.
	var wg sync.WaitGroup
	idx := make([]uint32, 8)
	for g := range idx {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				mw.sids.key(fmt.Sprint("hammer-", i%17), 0)
			}
			idx[g] = mw.sids.key(string([]byte("dup-stream")), 0).stream
		}(g)
	}
	wg.Wait()
	for _, x := range idx {
		if x != idx[0] {
			t.Fatalf("concurrent interning disagreed: %v", idx)
		}
	}

	// Similarity subscription and predicate, through the standing walk.
	tab := newStandingTable(cfg.FeatureDims)
	ss := newSimSub(&query.Similarity{ID: 1, Feature: summary.Feature{0.15, 0.15, 0.15}, Radius: 0.1, Lifespan: sim.Second}, 0)
	ps := newStandingSub(&query.Predicate{ID: 2, Lo: summary.Feature{0, 0, 0}, Hi: summary.Feature{1, 1, 1}, Lifespan: sim.Second})
	tab.addSim(ss)
	tab.addPred(ps)
	tab.load().match(b1, 0, 1, mw.sids)
	tab.load().match(b2, 0, 1, mw.sids)
	if n := len(ss.takePending()); n != 1 {
		t.Errorf("similarity subscription reported %d, want 1", n)
	}
	if n := len(ps.takePending()); n != 1 {
		t.Errorf("predicate reported %d, want 1", n)
	}

	m1 := query.Match{StreamID: b1.StreamID, Seq: b1.Seq, Node: 10}
	m2 := query.Match{StreamID: b2.StreamID, Seq: b2.Seq, Node: 11}

	agg := newAggregator(3, 9, sim.Second)
	agg.absorb(mw.sids, []query.Match{m1})
	agg.absorb(mw.sids, []query.Match{m2})
	if n := len(agg.takePending()); n != 1 {
		t.Errorf("aggregator reported %d, want 1", n)
	}

	rt := mw.openResults(sim.Second)
	fresh := len(mw.absorb(rt, []query.Match{m1})) + len(mw.absorb(rt, []query.Match{m2}))
	if fresh != 1 {
		t.Errorf("result table reported %d, want 1", fresh)
	}

	// Top-k: a monitor over every coordinate, at the node owning b's key.
	mon := &topkMonitor{q: &query.TopK{ID: 4, K: 1, Lo: -10, Hi: 10, Lifespan: sim.Second},
		counts: make(map[string]uint64), seen: seqSet{}}
	var owner *DataCenter
	for _, id := range ids {
		if mw.net.Covers(id, mw.mapper.KeyOf(b1.Lo[0])) {
			owner = mw.DataCenter(id)
		}
	}
	owner.opTopK.mu.Lock()
	owner.opTopK.mons[mon.q.ID] = mon
	owner.opTopK.n.Store(int32(len(owner.opTopK.mons)))
	owner.opTopK.mu.Unlock()
	owner.opTopK.onMBR(b1)
	owner.opTopK.onMBR(b2)
	if c := mon.counts["dup-stream"]; c != 1 {
		t.Errorf("top-k monitor counted %d, want 1", c)
	}
}

// BenchmarkStandingMatch measures the per-MBR walk of the standing table
// at 10², 10³ and 10⁴ entries: similarity queries of radius 0.1 at uniform
// points of [0,1]³ and small MBRs at uniform positions, so the hits per
// MBR grow with the table (reported as hits/MBR). Pending detections are
// drained every 1024 MBRs, as the push period would.
func BenchmarkStandingMatch(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprint("entries=", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			tab := newStandingTable(3)
			sids := newStreamIndex()
			for i := 0; i < n; i++ {
				f := summary.Feature{r.Float64(), r.Float64(), r.Float64()}
				tab.addSim(newSimSub(&query.Similarity{ID: query.ID(i), Feature: f, Radius: 0.1, Lifespan: 1 << 40}, 0))
			}
			mbrs := make([]*summary.MBR, 1024)
			for i := range mbrs {
				x, y, z := r.Float64(), r.Float64(), r.Float64()
				mbrs[i] = mbrAt(fmt.Sprint("s", i%64), 0, summary.Feature{x, y, z}, summary.Feature{x + 0.02, y + 0.02, z + 0.02}, 0)
			}
			s := tab.load()
			hits := 0
			drain := func() {
				for _, e := range s.ents {
					hits += len(e.sim.takePending())
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := mbrs[i%len(mbrs)]
				m.Seq = uint64(i)
				s.match(m, 0, 1, sids)
				if i%len(mbrs) == len(mbrs)-1 {
					drain()
				}
			}
			drain()
			b.ReportMetric(float64(hits)/float64(b.N), "hits/MBR")
		})
	}
}
