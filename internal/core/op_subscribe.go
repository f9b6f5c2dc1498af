package core

// subOp is the DataCenter part serving standing pub/sub predicates over
// the MBR index: a client registers a feature-space rectangle at every
// node covering its key range; covering nodes match each arriving MBR
// against the registered predicates and push detections back to the
// subscriber as data-plane frames once per push period.
//
// Soft state and churn: registrations expire with their lifespan, and the
// origin re-multicasts its own standing predicates every push period —
// plus immediately when the substrate reports a neighborhood change — so
// a node that newly covers part of the range after churn picks the
// predicate up within one period (its fresh registration walks the local
// store, recovering MBRs that arrived while it was uncovered).

import (
	"sync"

	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
)

// standingSub is one registered predicate at a covering node. Its
// detections dedup across the walk at registration time and the per-MBR
// path, which may see the same summary, and across range replication,
// which re-stores summaries.
type standingSub struct {
	p *query.Predicate
	detections
}

func newStandingSub(p *query.Predicate) *standingSub {
	return &standingSub{p: p, detections: detections{seen: seqSet{}}}
}

type subOp struct {
	dc *DataCenter

	// subs indexes the registered predicates by id, guarded by mu: workers
	// register and cancel predicates while the loop sweeps them. Each one
	// is also an entry of the data center's standing table, which the
	// per-MBR match walks; mu is held across both updates.
	mu   sync.Mutex
	subs map[query.ID]*standingSub

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
func (dc *DataCenter) StandingSubCount() int {
	o := dc.opSub
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.subs)
}

// onSub registers (or cancels) a predicate and keeps the range multicast
// going.
//
// Ordering fence (same as handleQuery): the predicate is published in the
// standing table *before* the store walk, and publishers insert into the
// store *before* walking the table. Any MBR concurrent with the
// registration is seen at least once — by the store walk if its Put
// completed first, by the publisher's table walk otherwise — and counted
// at most once through the (stream, seq) dedup. A predicate whose corners
// do not have the node's dimensionality could match no stored MBR and is
// not registered.
func (o *subOp) onSub(msg *dht.Message) {
	p := msg.Payload.(SubMsg)
	if p.P != nil {
		now, dims := o.dc.mw.clk.Now(), o.dc.mw.cfg.FeatureDims
		if p.Cancel {
			o.remove(p.P.ID)
		} else if now < p.P.Expiry() && len(p.P.Lo) == dims && len(p.P.Hi) == dims {
			o.mu.Lock()
			sub := o.subs[p.P.ID]
			fresh := sub == nil
			if fresh {
				sub = newStandingSub(p.P)
				o.subs[p.P.ID] = sub
				o.dc.standing.addPred(sub)
			}
			o.mu.Unlock()
			if fresh {
				sub.addAll(o.dc.mw.sids, o.dc.store.AppendOverlapping(nil, p.P.Lo, p.P.Hi, now, o.dc.id))
			}
		}
	}
	dht.ContinueRange(o.dc.mw.net, o.dc.id, msg, 1)
}

func (o *subOp) remove(id query.ID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	sub := o.subs[id]
	if sub == nil {
		return
	}
	delete(o.subs, id)
	o.dc.standing.removeIf(func(e *standingEntry) bool { return e.pred == sub }, false)
}

// tick is the periodic slice: push pending detections to their
// subscribers in registration order, sweep expired registrations, and
// refresh this node's own standing predicates.
func (o *subOp) tick(now sim.Time) {
	type push struct {
		origin dht.Key
		p      SubMatchMsg
	}
	var pushes []push
	expired := false
	for _, e := range o.dc.standing.load().ents {
		sub := e.pred
		if sub == nil {
			continue
		}
		// An expired registration still pushes what it detected in its
		// last period; the subscriber's table accepts it for one more.
		if pending := sub.takePending(); len(pending) > 0 {
			pushes = append(pushes, push{sub.p.Origin, SubMatchMsg{SubID: sub.p.ID, Matches: pending}})
		}
		if now >= e.expiry {
			expired = true
		}
	}
	if expired {
		o.mu.Lock()
		for id, sub := range o.subs {
			if now >= sub.p.Expiry() {
				delete(o.subs, id)
				sub.retire()
			}
		}
		o.dc.standing.removeIf(func(e *standingEntry) bool { return e.pred != nil && now >= e.expiry }, true)
		o.mu.Unlock()
	}
	for _, ps := range pushes {
		if ps.origin == o.dc.id {
			o.dc.mw.deliverSubMatch(ps.p)
			continue
		}
		msg := sized(&dht.Message{Kind: KindSubMatch, Payload: ps.p})
		o.dc.mw.net.Send(o.dc.id, ps.origin, msg)
	}
	refresh(o.mine, now, true, o.announce)
}

// multicast sends the registration (or cancellation) over the predicate's
// key range.
func (o *subOp) multicast(p *query.Predicate, cancel bool) {
	lo, hi := p.KeyRange(o.dc.mw.mapper)
	msg := sized(&dht.Message{Kind: KindSub, Payload: SubMsg{P: p, Cancel: cancel}})
	dht.SendRange(o.dc.mw.net, o.dc.id, lo, hi, msg, o.dc.mw.cfg.RangeMode)
}

// announce multicasts the registration of a predicate this node
// originated. Besides the first time, it runs every push period and on
// every ring change, so a subscription survives the crash of an adjacent
// covering node with at most a stabilization round of downtime.
func (o *subOp) announce(p *query.Predicate) { o.multicast(p, false) }

// register originates a standing predicate from this node (loop context).
func (o *subOp) register(p *query.Predicate) {
	o.mine[p.ID] = p
	o.announce(p)
}

// cancel withdraws a predicate this node originated.
func (o *subOp) cancel(id query.ID) bool {
	p := o.mine[id]
	if p == nil {
		return false
	}
	delete(o.mine, id)
	o.multicast(p, true)
	o.remove(id) // the origin may itself cover part of the range
	return true
}
