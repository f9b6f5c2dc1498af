package core

// topkOp is the DataCenter part serving distributed top-k maintenance over
// publication frequencies: a monitor registers at every node covering a
// routing-coordinate range; each covering node counts the MBR
// publications landing in the range — counting a publication only at the
// single node owning the key of its low coordinate, and there once per
// (stream, seq), so neither range replication nor soft-state republish
// double-counts — and pushes its cumulative frequency table to the
// monitoring node every period. Tables replace the node's previous report
// at the origin (cqe.TopKTable), so retransmissions after churn are
// idempotent; the origin's top-k is the sum across reporting nodes.

import (
	"sort"
	"sync"
	"sync/atomic"

	"streamdex/internal/cqe"
	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

// topkMonitor is one registered frequency monitor at a covering node.
type topkMonitor struct {
	q *query.TopK

	mu     sync.Mutex
	counts map[string]uint64
	// seen makes a publication count once however often it arrives: the
	// source stores it before the multicast brings it back, and with
	// Replicas > 1 re-announces it every push period while it lives.
	seen seqSet
}

type topkOp struct {
	dc *DataCenter

	// mu guards mons: workers register monitors and count publications
	// while the loop sweeps and reports; n short-circuits the per-MBR hook
	// when no monitor is registered.
	mu   sync.RWMutex
	mons map[query.ID]*topkMonitor
	n    atomic.Int32

	// mine are the monitors this node originated. Loop-confined.
	mine map[query.ID]*query.TopK
}

func newTopKOp(dc *DataCenter) *topkOp {
	return &topkOp{
		dc:   dc,
		mons: make(map[query.ID]*topkMonitor),
		mine: make(map[query.ID]*query.TopK),
	}
}

// onTopK registers a monitor and keeps the range multicast going.
// Counting starts at registration — frequency monitors observe the
// publication stream, not the stored history. Worker-safe.
func (o *topkOp) onTopK(msg *dht.Message) {
	p := msg.Payload.(TopKMsg)
	if q := p.Q; q != nil && o.dc.mw.clk.Now() < q.Expiry() {
		o.mu.Lock()
		if _, known := o.mons[q.ID]; !known {
			o.mons[q.ID] = &topkMonitor{q: q, counts: make(map[string]uint64), seen: seqSet{}}
			o.n.Store(int32(len(o.mons)))
		}
		o.mu.Unlock()
	}
	dht.ContinueRange(o.dc.mw.net, o.dc.id, msg, 1)
}

// onMBR counts a newly stored publication at exactly one node — the owner
// of the key of its low routing coordinate — for every monitor whose range
// contains that coordinate. Runs on workers.
func (o *topkOp) onMBR(b *summary.MBR) {
	if o.n.Load() == 0 {
		return
	}
	v := b.Lo[0]
	if !o.dc.mw.net.Covers(o.dc.id, o.dc.mw.mapper.KeyOf(v)) {
		return
	}
	now := o.dc.mw.clk.Now()
	key := o.dc.mw.sids.key(b.StreamID, b.Seq)
	o.mu.RLock()
	defer o.mu.RUnlock()
	for _, mon := range o.mons {
		if now >= mon.q.Expiry() || v < mon.q.Lo || v > mon.q.Hi {
			continue
		}
		mon.mu.Lock()
		if mon.seen.add(key) {
			mon.counts[b.StreamID]++
		}
		mon.mu.Unlock()
	}
}

// tick is the periodic slice: sweep expired monitors, push the cumulative
// frequency tables, and refresh this node's own monitors.
func (o *topkOp) tick(now sim.Time) {
	type push struct {
		origin dht.Key
		p      TopKReportMsg
	}
	var pushes []push
	o.mu.Lock()
	for id, mon := range o.mons {
		if now >= mon.q.Expiry() {
			delete(o.mons, id)
			continue
		}
		mon.mu.Lock()
		if len(mon.counts) == 0 {
			mon.mu.Unlock()
			continue
		}
		counts := make([]cqe.StreamCount, 0, len(mon.counts))
		for sid, c := range mon.counts {
			counts = append(counts, cqe.StreamCount{StreamID: sid, Count: c})
		}
		mon.mu.Unlock()
		sort.Slice(counts, func(i, j int) bool { return counts[i].StreamID < counts[j].StreamID })
		pushes = append(pushes, push{mon.q.Origin, TopKReportMsg{QueryID: id, Node: o.dc.id, Counts: counts}})
	}
	o.n.Store(int32(len(o.mons)))
	o.mu.Unlock()
	for _, ps := range pushes {
		if ps.origin == o.dc.id {
			o.dc.mw.deliverTopKReport(ps.p)
			continue
		}
		msg := sized(&dht.Message{Kind: KindTopKReport, Payload: ps.p})
		o.dc.mw.net.Send(o.dc.id, ps.origin, msg)
	}
	refresh(o.mine, now, true, o.multicast)
}

// multicast sends the monitor's registration over its coordinate range.
func (o *topkOp) multicast(q *query.TopK) {
	lo, hi := o.dc.mw.mapper.Range(q.Lo, q.Hi)
	msg := sized(&dht.Message{Kind: KindTopK, Payload: TopKMsg{Q: q}})
	dht.SendRange(o.dc.mw.net, o.dc.id, lo, hi, msg, o.dc.mw.cfg.RangeMode)
}

// register originates a frequency monitor from this node.
func (o *topkOp) register(q *query.TopK) {
	o.mine[q.ID] = q
	o.multicast(q)
}
