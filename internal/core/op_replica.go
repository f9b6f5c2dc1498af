package core

// repOp is the DataCenter part serving hot-range load balancing
// (Config.Replicas > 1):
//
//   - Replica tail: when an MBR's range multicast reaches its last natural
//     coverer, the summary walks Replicas-1 further ring successors as
//     KindReplica, so an MBR stored at node n_i is held by n_i..n_{i+R-1}.
//   - Soft-state republish: the origin re-multicasts each live MBR every
//     push period (and immediately on a ring change), so replica sets
//     re-home after churn within one period — the subscribe-op pattern.
//   - Load reports: each node gossips its recent data-plane message rate
//     (plus what it learned from its own successors) one hop to its ring
//     predecessor as KindLoad, giving every node an R-1-deep, bounded-
//     staleness view of its successors' load.
//   - Read balancing: the first coverer of a similarity query picks one of
//     the R replicas by power-of-two-choices over that view (pickOffset)
//     and the query then strides over the covering range, touching
//     ~1/R of the coverers (dht.ContinueRange with stride R).
//
// Everything is gated on Replicas > 1: at the default (0) no replica or
// load message is sent, the tick returns early, and the historical message
// schedule — and the golden figure rows — are bitwise unchanged.

import (
	"sort"
	"sync"

	"streamdex/internal/dht"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

type repOp struct {
	dc *DataCenter
	r  int // Config.Replicas

	// mu guards the load view: workers read it in pickOffset while the
	// loop folds incoming KindLoad reports and the periodic rate sample.
	mu sync.Mutex
	// ownRate is this node's data-plane message rate (msgs/s) over the
	// last push period; succRates[i] is the rate learned for the (i+1)-th
	// successor, i+1 periods stale.
	ownRate   float64
	succRates []float64
	// lastDelivered is the delivered-counter snapshot of the previous
	// rate sample.
	lastDelivered int64
	lastSample    sim.Time

	// mineMu guards mine: ingest workers record freshly published MBRs
	// while the loop republishes them.
	mineMu sync.Mutex
	mine   map[string]*summary.MBR // stream id -> latest live MBR
}

func newRepOp(dc *DataCenter) *repOp {
	return &repOp{
		dc:   dc,
		r:    dc.mw.cfg.Replicas,
		mine: make(map[string]*summary.MBR),
	}
}

// onReplica stores a replica copy and keeps the tail walk going. The same
// admission gate as the natural ingest path applies: an overloaded node
// sheds the store operation but still forwards, so the rest of the tail is
// not starved by one hot node.
func (o *repOp) onReplica(msg *dht.Message) {
	p := msg.Payload.(ReplicaMsg)
	if p.MBR != nil && !p.MBR.Expired(o.dc.mw.clk.Now()) {
		if o.dc.admit() {
			o.dc.store.Put(p.MBR)
			o.dc.onStored(p.MBR)
		}
		if p.TTL > 1 {
			fwd := sized(&dht.Message{Kind: KindReplica, Src: msg.Src, Payload: ReplicaMsg{MBR: p.MBR, TTL: p.TTL - 1}})
			o.dc.mw.net.SendToSuccessor(o.dc.id, fwd)
		}
	}
}

// sendTail launches the replica tail from the last natural coverer of an
// MBR's range: Replicas-1 successor hops, each storing a copy.
func (o *repOp) sendTail(b *summary.MBR) {
	if o.r <= 1 {
		return
	}
	msg := sized(&dht.Message{Kind: KindReplica, Src: o.dc.id, Payload: ReplicaMsg{MBR: b, TTL: o.r - 1}})
	o.dc.mw.net.SendToSuccessor(o.dc.id, msg)
}

// onLoad folds a successor's load report into the local view: the sender
// is this node's direct successor, its Loads[0] is that successor's own
// rate and Loads[i] the rate i+1 hops down the list.
func (o *repOp) onLoad(msg *dht.Message) {
	p := msg.Payload.(LoadMsg)
	if len(p.Loads) == 0 {
		return
	}
	o.mu.Lock()
	n := o.r - 1
	if len(p.Loads) < n {
		n = len(p.Loads)
	}
	if cap(o.succRates) < n {
		o.succRates = make([]float64, n)
	}
	o.succRates = o.succRates[:n]
	copy(o.succRates, p.Loads[:n])
	o.mu.Unlock()
}

// noteLocal records a freshly published MBR for periodic republish. Called
// from publishMBR (possibly on an ingest worker).
func (o *repOp) noteLocal(b *summary.MBR) {
	o.mineMu.Lock()
	o.mine[b.StreamID] = b
	o.mineMu.Unlock()
}

// pickOffset chooses which of the R replicas of the covering range a query
// should land on: 0 for this node (the natural first coverer), k for its
// k-th successor. Power of two choices over the load view, with both
// candidate indices derived from the query id so concurrent workers need
// no shared randomness and reruns are deterministic.
func (o *repOp) pickOffset(qid uint64) int {
	if o.r <= 1 {
		return 0
	}
	h := qid * 0x9E3779B97F4A7C15
	i := int(h % uint64(o.r))
	j := int((h >> 32) % uint64(o.r))
	if i == j {
		return i
	}
	o.mu.Lock()
	li, lj := o.rateAt(i), o.rateAt(j)
	o.mu.Unlock()
	if lj < li {
		return j
	}
	return i
}

// rateAt returns the viewed load of replica offset k (0 = self). Unknown
// entries read as 0 — an unreported node is assumed idle, which errs
// toward spreading. Callers hold mu.
func (o *repOp) rateAt(k int) float64 {
	if k == 0 {
		return o.ownRate
	}
	if k-1 < len(o.succRates) {
		return o.succRates[k-1]
	}
	return 0
}

// tick is the periodic slice: sample the local delivery rate, gossip it
// (with the successor view shifted one hop) to the predecessor, and
// republish this node's live MBRs so replica sets re-home after churn.
func (o *repOp) tick(now sim.Time) {
	if o.r <= 1 {
		return
	}
	delivered := o.dc.delivered.Load()
	o.mu.Lock()
	if o.lastSample > 0 && now > o.lastSample {
		o.ownRate = float64(delivered-o.lastDelivered) / (float64(now-o.lastSample) / float64(sim.Second))
	}
	o.lastDelivered = delivered
	o.lastSample = now
	loads := make([]float64, 1, o.r-1+1)
	loads[0] = o.ownRate
	if o.r > 2 {
		n := o.r - 2
		if n > len(o.succRates) {
			n = len(o.succRates)
		}
		loads = append(loads, o.succRates[:n]...)
	}
	o.mu.Unlock()
	report := sized(&dht.Message{Kind: KindLoad, Src: o.dc.id, SentAt: now, Payload: LoadMsg{Loads: loads}})
	o.dc.mw.net.SendToPredecessor(o.dc.id, report)

	o.republish(now)
}

// onRingChange republishes immediately so replicas re-home with at most a
// stabilization round of staleness instead of waiting out the push period.
func (o *repOp) onRingChange(now sim.Time) {
	if o.r <= 1 {
		return
	}
	o.republish(now)
}

// republish re-multicasts every live locally sourced MBR over its key
// range. Receivers re-store (idempotent under the consumer-side
// stream/seq dedup rules) and the range-end node re-launches the tail, so
// nodes that newly cover part of a range after churn converge within one
// period.
func (o *repOp) republish(now sim.Time) {
	o.mineMu.Lock()
	var live []*summary.MBR
	for sid, b := range o.mine {
		if b.Expired(now) {
			delete(o.mine, sid)
			continue
		}
		live = append(live, b)
	}
	o.mineMu.Unlock()
	// Deterministic send order: map iteration order must not leak into the
	// simulator's event schedule.
	sort.Slice(live, func(i, j int) bool { return live[i].StreamID < live[j].StreamID })
	for _, b := range live {
		lo, hi := b.KeyRange(o.dc.mw.mapper)
		msg := sized(&dht.Message{Kind: KindMBR, Payload: MBRUpdate{MBR: b}})
		dht.SendRange(o.dc.mw.net, o.dc.id, lo, hi, msg, o.dc.mw.cfg.RangeMode)
	}
}
