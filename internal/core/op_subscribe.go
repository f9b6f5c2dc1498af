package core

// subOp implements standing pub/sub predicates over the MBR index: a
// client registers a feature-space rectangle at every node covering its
// key range; covering nodes match each arriving MBR against the
// registered predicates and push detections back to the subscriber as
// data-plane frames once per push period.
//
// Soft state and churn: registrations expire with their lifespan, and the
// origin re-multicasts its own standing predicates every push period —
// plus immediately when the substrate reports a neighborhood change — so
// a node that newly covers part of the range after churn picks the
// predicate up within one period (its fresh registration walks the local
// store, recovering MBRs that arrived while it was uncovered).

import (
	"sync"
	"sync/atomic"

	"streamdex/internal/cqe"
	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

// standingSub is one registered predicate at a covering node.
type standingSub struct {
	p *query.Predicate

	mu sync.Mutex
	// seen deduplicates detections per (stream, seq): the walk at
	// registration time and the per-MBR path may see the same summary, and
	// range replication re-stores summaries.
	seen    seqSet
	pending []query.Match
}

func newStandingSub(p *query.Predicate) *standingSub {
	return &standingSub{p: p, seen: seqSet{}}
}

// add records a detection unless already reported.
func (s *standingSub) add(m query.Match) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen.add(m.StreamID, m.Seq) {
		s.pending = append(s.pending, m)
	}
}

func (s *standingSub) addAll(ms []query.Match) {
	for _, m := range ms {
		s.add(m)
	}
}

// takePending drains the detections accumulated since the last push.
func (s *standingSub) takePending() []query.Match {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.pending
	s.pending = nil
	return out
}

type subOp struct {
	dc *DataCenter

	// mu guards subs: workers register predicates and match MBRs against
	// them while the loop sweeps and pushes. n mirrors len(subs) so the
	// per-MBR hook costs one atomic load when no predicate is registered.
	mu   sync.RWMutex
	subs map[query.ID]*standingSub
	n    atomic.Int32

	// mine are the predicates this node originated, keyed for periodic
	// refresh. Loop-confined.
	mine map[query.ID]*query.Predicate
}

func newSubOp(dc *DataCenter) *subOp {
	return &subOp{
		dc:   dc,
		subs: make(map[query.ID]*standingSub),
		mine: make(map[query.ID]*query.Predicate),
	}
}

// StandingSubCount reports the number of standing predicate
// subscriptions registered at this node. Safe from any goroutine.
func (dc *DataCenter) StandingSubCount() int { return int(dc.opSub.n.Load()) }

// Name implements cqe.Operator.
func (o *subOp) Name() string { return "subscribe" }

// Kinds implements cqe.Operator.
func (o *subOp) Kinds() []dht.Kind { return []dht.Kind{KindSub, KindSubMatch} }

// Deliver implements cqe.Operator (loop context).
func (o *subOp) Deliver(h cqe.Host, msg *dht.Message) {
	switch msg.Kind {
	case KindSub:
		o.onSub(h, msg)
	case KindSubMatch:
		p := msg.Payload.(SubMatchMsg)
		o.dc.mw.deliverSubMatch(p)
	}
}

// DeliverData implements cqe.Operator: registration is worker-safe (the
// table carries its own lock, the store walk is lock-free); match pushes
// land in loop-confined client state.
func (o *subOp) DeliverData(h cqe.Host, msg *dht.Message) bool {
	if msg.Kind == KindSub {
		o.onSub(h, msg)
		return true
	}
	return false
}

// onSub registers (or cancels) a predicate and keeps the range multicast
// going.
//
// Ordering fence (same as handleQuery): the predicate is registered
// *before* the store walk, and publishers insert into the store *before*
// the engine's per-MBR fan-out. Any MBR concurrent with the registration
// is seen at least once — by the walk if its Put completed first, by the
// publisher's OnMBR otherwise — and counted at most once through the
// (stream, seq) dedup.
func (o *subOp) onSub(h cqe.Host, msg *dht.Message) {
	p := msg.Payload.(SubMsg)
	if p.P != nil {
		if p.Cancel {
			o.remove(p.P.ID)
		} else if now := h.Now(); now < p.P.Expiry() {
			o.mu.Lock()
			sub := o.subs[p.P.ID]
			fresh := sub == nil
			if fresh {
				sub = newStandingSub(p.P)
				o.subs[p.P.ID] = sub
				o.n.Store(int32(len(o.subs)))
			}
			o.mu.Unlock()
			if fresh {
				sub.addAll(o.dc.store.AppendOverlapping(nil, p.P.Lo, p.P.Hi, now, o.dc.id))
			}
		}
	}
	h.ContinueRange(msg)
}

func (o *subOp) remove(id query.ID) {
	o.mu.Lock()
	delete(o.subs, id)
	o.n.Store(int32(len(o.subs)))
	o.mu.Unlock()
}

// OnMBR implements cqe.Operator: test the new summary against every
// registered predicate. Runs on workers; the atomic short-circuit keeps
// the hook free for the (default) deployment with no subscriptions.
func (o *subOp) OnMBR(h cqe.Host, b *summary.MBR) {
	if o.n.Load() == 0 {
		return
	}
	now := h.Now()
	o.mu.RLock()
	defer o.mu.RUnlock()
	for _, sub := range o.subs {
		if now >= sub.p.Expiry() {
			continue
		}
		if rectOverlaps(b, sub.p.Lo, sub.p.Hi) {
			sub.add(query.Match{StreamID: b.StreamID, Seq: b.Seq, FoundAt: now, Node: o.dc.id})
		}
	}
}

// Tick implements cqe.Operator: push pending detections to their
// subscribers, sweep expired registrations, and refresh this node's own
// standing predicates.
func (o *subOp) Tick(h cqe.Host, now sim.Time) {
	type push struct {
		origin dht.Key
		p      SubMatchMsg
	}
	var pushes []push
	o.mu.Lock()
	for id, sub := range o.subs {
		// An expired registration still pushes what it detected in its
		// last period; the subscriber's table accepts it for one more.
		if pending := sub.takePending(); len(pending) > 0 {
			pushes = append(pushes, push{sub.p.Origin, SubMatchMsg{SubID: id, Matches: pending}})
		}
		if now >= sub.p.Expiry() {
			delete(o.subs, id)
		}
	}
	o.n.Store(int32(len(o.subs)))
	o.mu.Unlock()
	for _, ps := range pushes {
		if ps.origin == o.dc.id {
			o.dc.mw.deliverSubMatch(ps.p)
			continue
		}
		h.Send(ps.origin, &dht.Message{Kind: KindSubMatch, Payload: ps.p})
	}
	for id, p := range o.mine {
		if now >= p.Expiry() {
			delete(o.mine, id)
			continue
		}
		o.multicast(h, p, false)
	}
}

// OnRingChange implements cqe.Operator: re-home immediately instead of
// waiting out the push period, so a subscription survives the crash of an
// adjacent covering node with at most a stabilization round of downtime.
func (o *subOp) OnRingChange(h cqe.Host) {
	now := h.Now()
	for _, p := range o.mine {
		if now < p.Expiry() {
			o.multicast(h, p, false)
		}
	}
}

// multicast sends the registration (or cancellation) over the predicate's
// key range.
func (o *subOp) multicast(h cqe.Host, p *query.Predicate, cancel bool) {
	lo, hi := p.KeyRange(o.dc.mw.mapper)
	h.SendRange(lo, hi, &dht.Message{Kind: KindSub, Payload: SubMsg{P: p, Cancel: cancel}})
}

// register originates a standing predicate from this node (loop context).
func (o *subOp) register(h cqe.Host, p *query.Predicate) {
	o.mine[p.ID] = p
	o.multicast(h, p, false)
}

// cancel withdraws a predicate this node originated.
func (o *subOp) cancel(h cqe.Host, id query.ID) bool {
	p := o.mine[id]
	if p == nil {
		return false
	}
	delete(o.mine, id)
	o.multicast(h, p, true)
	o.remove(id) // the origin may itself cover part of the range
	return true
}
