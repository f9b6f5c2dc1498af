package core

// standingTable is the one index of the standing queries registered at a
// covering node — similarity subscriptions (§IV-E) and pub/sub predicates —
// that every arriving MBR is matched against.
//
// It is a structure-of-arrays snapshot published through one atomic
// pointer. Matching loads the snapshot and walks it without a lock.
// Writers serialize on mu. A registration writes the slot past the
// snapshot's length and publishes a longer header with one atomic store;
// readers of an older snapshot never read past their own length, so they
// never see the slot being written. A removal builds fresh arrays, because
// shifting entries in place would move them under a reader's feet; a sweep
// of expired entries defers it until they are half the table.
//
// A similarity query is the degenerate box lo = hi = feature with its
// radius; a predicate is its rectangle with radius 0. The walk skips an
// entry on expiry, then on any dimension d where b.Lo[d]-hi[d] > radius or
// lo[d]-b.Hi[d] > radius. Those are the differences MinDist squares and
// the comparisons rectOverlaps makes, so a skip implies the exact test
// rejects (while the squares neither overflow nor underflow). A predicate
// that survives the walk overlaps; a similarity entry that survives gets
// the exact MatchMBR.

import (
	"sync"
	"sync/atomic"

	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

type standingTable struct {
	mu   sync.Mutex
	snap atomic.Pointer[standingSnap]
}

// standingSnap is one published state of the table. Coordinates are
// dimension-major with a fixed stride: entry i spans
// [lo[d*stride+i], hi[d*stride+i]] in dimension d, so the walk streams
// through the first stride-long block and touches the other dimensions
// only for entries that survive the first. ents[i] holds the rest of entry
// i. Entries are in registration order; lo, hi and ents have room for
// stride entries, of which the first len(ents) are published.
type standingSnap struct {
	dim, stride int
	lo, hi      []float64
	ents        []standingEntry
}

// standingEntry is one registered standing query: exactly one of sim and
// pred is set, and owns the detection state.
type standingEntry struct {
	radius float64
	expiry sim.Time
	sim    *simSub
	pred   *standingSub
}

func newStandingTable(dim int) *standingTable {
	t := &standingTable{}
	t.snap.Store(&standingSnap{dim: dim})
	return t
}

// load returns the current snapshot. Safe from any goroutine; the snapshot
// is read-only.
func (t *standingTable) load() *standingSnap { return t.snap.Load() }

// addSim registers a similarity subscription. The caller has checked its
// feature's dimensionality.
func (t *standingTable) addSim(s *simSub) {
	t.add(s.q.Feature, s.q.Feature, standingEntry{radius: s.q.Radius, expiry: s.q.Expiry(), sim: s})
}

// addPred registers a predicate subscription. The caller has checked its
// corners' dimensionality.
func (t *standingTable) addPred(s *standingSub) {
	t.add(s.p.Lo, s.p.Hi, standingEntry{expiry: s.p.Expiry(), pred: s})
}

// add appends one entry into the slot past the published length, growing
// the arrays twofold when they are full, so registration is O(1)
// amortized.
func (t *standingTable) add(lo, hi summary.Feature, e standingEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.snap.Load()
	n := len(cur.ents)
	if n == cur.stride {
		cur = cur.compact(func(int) bool { return true }, 2*n+8)
	}
	next := *cur
	for d := 0; d < next.dim; d++ {
		next.lo[d*next.stride+n] = lo[d]
		next.hi[d*next.stride+n] = hi[d]
	}
	next.ents = append(next.ents, e)
	t.snap.Store(&next)
}

// removeIf compacts away the entries drop selects, keeping registration
// order, into fresh arrays with room to grow. A sweep passes expired set:
// its entries are already expired, every reader skips them, so they stay
// until they are half the table and a periodic sweep costs O(1) amortized
// per entry. Anything else (a cancel) goes at once.
func (t *standingTable) removeIf(drop func(e *standingEntry) bool, expired bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.snap.Load()
	n := 0
	for i := range cur.ents {
		if drop(&cur.ents[i]) {
			n++
		}
	}
	if n == 0 || expired && 2*n < len(cur.ents) {
		return
	}
	t.snap.Store(cur.compact(func(i int) bool { return !drop(&cur.ents[i]) }, 2*(len(cur.ents)-n)+8))
}

// compact copies the entries keep selects into fresh arrays of the given
// stride.
func (s *standingSnap) compact(keep func(i int) bool, stride int) *standingSnap {
	next := &standingSnap{
		dim:    s.dim,
		stride: stride,
		lo:     make([]float64, s.dim*stride),
		hi:     make([]float64, s.dim*stride),
		ents:   make([]standingEntry, 0, stride),
	}
	for i := range s.ents {
		if !keep(i) {
			continue
		}
		j := len(next.ents)
		for d := 0; d < s.dim; d++ {
			next.lo[d*stride+j] = s.lo[d*s.stride+i]
			next.hi[d*stride+j] = s.hi[d*s.stride+i]
		}
		next.ents = append(next.ents, s.ents[i])
	}
	return next
}

// match tests a just-stored MBR against every live entry and records each
// hit in its owner's detections, deduplicated per (stream, seq). The
// stream id is interned once per MBR, on the first hit. Lock-free up to
// the per-owner detection mutex; an MBR of another dimensionality matches
// nothing.
func (s *standingSnap) match(b *summary.MBR, now sim.Time, node dht.Key, sids *streamIndex) {
	dim, stride := s.dim, s.stride
	if len(b.Lo) != dim || len(b.Hi) != dim {
		return
	}
	ents := s.ents
	lo0, hi0 := s.lo[:len(ents)], s.hi[:len(ents)]
	bLo0, bHi0 := b.Lo[0], b.Hi[0]
	var key seqKey
	interned := false
entries:
	for i := range ents {
		e := &ents[i]
		if now >= e.expiry {
			continue
		}
		r := e.radius
		if bLo0-hi0[i] > r || lo0[i]-bHi0 > r {
			continue
		}
		for d := 1; d < dim; d++ {
			if b.Lo[d]-s.hi[d*stride+i] > r || s.lo[d*stride+i]-b.Hi[d] > r {
				continue entries
			}
		}
		m := query.Match{StreamID: b.StreamID, Seq: b.Seq, FoundAt: now, Node: node}
		var det *detections
		if e.sim != nil {
			d, ok := MatchMBR(b, e.sim.q.Feature, r)
			if !ok {
				continue
			}
			m.DistLB, det = d, &e.sim.detections
		} else {
			det = &e.pred.detections
		}
		if !interned {
			key = sids.key(b.StreamID, b.Seq)
			interned = true
		}
		det.add(key, m)
	}
}
