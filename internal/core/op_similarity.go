package core

// simOp is the continuous similarity-query path (§IV-E/F) expressed as a
// cqe.Operator: query dissemination, per-MBR matching, the periodic
// neighbor funnel toward middle nodes, and response pushes. The mechanics
// stay on DataCenter (they predate the engine); the operator is the
// dispatch surface.

import (
	"sort"
	"sync"

	"streamdex/internal/cqe"
	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

type simOp struct {
	dc *DataCenter
}

// Name implements cqe.Operator.
func (o *simOp) Name() string { return "similarity" }

// Kinds implements cqe.Operator.
func (o *simOp) Kinds() []dht.Kind { return []dht.Kind{KindQuery, KindNotify, KindResponse} }

// Deliver implements cqe.Operator (loop context).
func (o *simOp) Deliver(h cqe.Host, msg *dht.Message) {
	switch msg.Kind {
	case KindQuery:
		o.dc.handleQuery(msg, true)
	case KindNotify:
		o.dc.onNotify(msg)
	case KindResponse:
		o.dc.mw.deliverSimilarity(o.dc.id, msg.Payload.(ResponseMsg))
	}
}

// DeliverData implements cqe.Operator: query evaluation is worker-safe
// (the ordering fence in handleQuery), the control kinds are not.
func (o *simOp) DeliverData(h cqe.Host, msg *dht.Message) bool {
	if msg.Kind == KindQuery {
		o.dc.handleQuery(msg, false)
		return true
	}
	return false
}

// OnMBR implements cqe.Operator: match the new summary against every
// registered subscription (worker-safe; see matchNewMBR).
func (o *simOp) OnMBR(h cqe.Host, b *summary.MBR) { o.dc.matchNewMBR(b) }

// Tick implements cqe.Operator: the similarity slice of the historical
// periodTick — sweep expired subscriptions, funnel detected similarities
// one ring hop, push aggregated responses to clients and sweep expired
// aggregators. A subscription leaves with what it detected in its last
// period: drained straight to the middle node, which a hop-per-period
// relay would no longer reach in time.
func (o *simOp) Tick(h cqe.Host, now sim.Time) {
	dc := o.dc
	var expired []*simSub
	dc.subMu.Lock()
	for id, sub := range dc.subs {
		if now >= sub.q.Expiry() {
			delete(dc.subs, id)
			expired = append(expired, sub)
		}
	}
	dc.subMu.Unlock()
	// Deterministic send order: map iteration order must not leak into the
	// simulator's event schedule.
	sort.Slice(expired, func(i, j int) bool { return expired[i].q.ID < expired[j].q.ID })
	for _, sub := range expired {
		dc.forwardCandidates(sub)
	}
	dc.flushNotifies(now)
	dc.pushResponses(now)
}

// OnRingChange implements cqe.Operator. Similarity soft state already
// survives churn adaptively (absorbOrRelay re-creates aggregators from
// notify items), so no eager action is needed.
func (o *simOp) OnRingChange(h cqe.Host) {}

// MatchMBR tests a single, just-arrived MBR against a query feature.
func MatchMBR(b *summary.MBR, q summary.Feature, radius float64) (float64, bool) {
	d := b.MinDist(q)
	return d, d <= radius
}

// seqSet is a set of (stream, seq) pairs: the dedup state of everything
// that reports an MBR at most once. Not safe for concurrent use; owners
// that are shared across goroutines guard it with their own mutex.
type seqSet map[string]map[uint64]bool

// add inserts the pair and reports whether it was absent.
func (s seqSet) add(stream string, seq uint64) bool {
	seqs := s[stream]
	if seqs == nil {
		seqs = make(map[uint64]bool)
		s[stream] = seqs
	}
	if seqs[seq] {
		return false
	}
	seqs[seq] = true
	return true
}

// simSub is one similarity subscription registered at a covering node. Its
// detection state (seen, pending) is guarded by mu: on the live node new
// MBRs are matched against it from data-plane workers while the run loop
// flushes its pending candidates each push period. The query itself and
// the middle key are immutable after construction.
type simSub struct {
	q         *query.Similarity
	middleKey dht.Key

	mu sync.Mutex
	// seen deduplicates candidates per (stream, seq) so a re-stored or
	// re-matched MBR is reported once by this node.
	seen seqSet
	// pending are candidates detected since the last push-period flush.
	pending []query.Match
}

func newSimSub(q *query.Similarity, middle dht.Key) *simSub {
	return &simSub{q: q, middleKey: middle, seen: seqSet{}}
}

// add records a candidate unless it was already reported.
func (s *simSub) add(m query.Match) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.seen.add(m.StreamID, m.Seq) {
		return false
	}
	s.pending = append(s.pending, m)
	return true
}

// addAll records a batch of candidates.
func (s *simSub) addAll(ms []query.Match) {
	for _, m := range ms {
		s.add(m)
	}
}

// takePending returns and clears the pending candidates.
func (s *simSub) takePending() []query.Match {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.pending
	s.pending = nil
	return out
}

// aggregator is the middle-node state of one similarity query: it absorbs
// candidates funneled along the ring and periodically pushes them to the
// client (§IV-F). Aggregators are run-loop-confined even on the live node
// (notify absorption and response pushes are control-plane work).
type aggregator struct {
	queryID query.ID
	client  dht.Key
	expiry  sim.Time
	// seen deduplicates across the whole range (several nodes may store
	// replicas of the same MBR and report it independently).
	seen    seqSet
	pending []query.Match
	// delivered is set once a response has carried a match to the client.
	// Until then an absorbed match is pushed at once instead of waiting
	// for the period.
	delivered bool
}

func newAggregator(id query.ID, client dht.Key, expiry sim.Time) *aggregator {
	return &aggregator{queryID: id, client: client, expiry: expiry, seen: seqSet{}}
}

func (a *aggregator) absorb(ms []query.Match) {
	for _, m := range ms {
		if a.seen.add(m.StreamID, m.Seq) {
			a.pending = append(a.pending, m)
		}
	}
}

func (a *aggregator) takePending() []query.Match {
	out := a.pending
	a.pending = nil
	return out
}
