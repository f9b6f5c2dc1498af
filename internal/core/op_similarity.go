package core

// State of the continuous similarity-query path (§IV-E/F) at covering and
// middle nodes: the per-MBR match, the subscriptions covering nodes hold
// and the aggregators middle nodes hold. Dissemination, the periodic
// neighbor funnel and response pushes are DataCenter methods.

import (
	"sync"

	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

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

// detections is the detection state of one standing query at a covering
// node: seen deduplicates per (stream, seq), so a re-stored or re-matched
// MBR is reported once by this node, and pending holds what was detected
// since the last push. mu guards both: on the live node new MBRs are
// matched from data-plane workers while the run loop drains pending.
type detections struct {
	mu      sync.Mutex
	seen    seqSet
	pending []query.Match
}

// add records a detection unless it was already reported.
func (d *detections) add(m query.Match) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.seen.add(m.StreamID, m.Seq) {
		return false
	}
	d.pending = append(d.pending, m)
	return true
}

// addAll records a batch of detections.
func (d *detections) addAll(ms []query.Match) {
	for _, m := range ms {
		d.add(m)
	}
}

// takePending returns and clears the pending detections.
func (d *detections) takePending() []query.Match {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.pending
	d.pending = nil
	return out
}

// simSub is one similarity subscription registered at a covering node.
// The query and the middle key are immutable after construction.
type simSub struct {
	q         *query.Similarity
	middleKey dht.Key
	detections
}

func newSimSub(q *query.Similarity, middle dht.Key) *simSub {
	return &simSub{q: q, middleKey: middle, detections: detections{seen: seqSet{}}}
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
