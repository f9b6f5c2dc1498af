package core

// State of the continuous similarity-query path (§IV-E/F) at covering and
// middle nodes: the per-MBR match, the subscriptions covering nodes hold
// and the aggregators middle nodes hold. Dissemination, the periodic
// neighbor funnel and response pushes are DataCenter methods.

import (
	"strings"
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

// seqKey names one MBR for dedup: the stream's index in the middleware's
// streamIndex and the MBR's sequence number. It holds no pointer, so a
// dedup set neither pins the (possibly arena-decoded) id strings it saw
// nor gives the garbage collector anything to scan.
type seqKey struct {
	stream uint32
	seq    uint64
}

// seqSet is a set of (stream, seq) pairs: the dedup state of everything
// that reports an MBR at most once. Not safe for concurrent use; owners
// that are shared across goroutines guard it with their own mutex.
type seqSet map[seqKey]struct{}

// add inserts the key and reports whether it was absent: one hash probe,
// which finds a present key without writing or allocating.
func (s seqSet) add(k seqKey) bool {
	n := len(s)
	s[k] = struct{}{}
	return len(s) > n
}

// streamIndex interns stream ids into dense indices, one table per
// Middleware. The hit path takes the read lock only and does not allocate;
// a miss stores a private copy of the id, so an interned id never pins the
// buffer it was decoded from. Indices are never reused.
type streamIndex struct {
	mu  sync.RWMutex
	ids map[string]uint32
}

func newStreamIndex() *streamIndex {
	return &streamIndex{ids: make(map[string]uint32)}
}

// key returns the dedup key of one MBR, interning its stream id on first
// sight.
func (x *streamIndex) key(stream string, seq uint64) seqKey {
	x.mu.RLock()
	id, ok := x.ids[stream]
	x.mu.RUnlock()
	if !ok {
		x.mu.Lock()
		if id, ok = x.ids[stream]; !ok {
			id = uint32(len(x.ids))
			x.ids[strings.Clone(stream)] = id
		}
		x.mu.Unlock()
	}
	return seqKey{stream: id, seq: seq}
}

// detections is the detection state of one standing query at a covering
// node: seen deduplicates per (stream, seq), so a re-stored or re-matched
// MBR is reported once by this node, and pending holds what was detected
// since the last push. mu guards both: on the live node new MBRs are
// matched from data-plane workers while the run loop drains pending. A
// retired query (seen nil) records nothing more.
type detections struct {
	mu      sync.Mutex
	seen    seqSet
	pending []query.Match
}

// add records a detection under its dedup key unless it was already
// reported.
func (d *detections) add(k seqKey, m query.Match) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.seen == nil || !d.seen.add(k) {
		return false
	}
	d.pending = append(d.pending, m)
	return true
}

// addAll records a batch of detections.
func (d *detections) addAll(sids *streamIndex, ms []query.Match) {
	for _, m := range ms {
		d.add(sids.key(m.StreamID, m.Seq), m)
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

// retire releases the state of a query swept after its last push. Its
// standing-table entry may outlive it until the table compacts, and a walk
// that read the clock before the sweep may still reach it; such a late
// detection is dropped.
func (d *detections) retire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seen, d.pending = nil, nil
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

func (a *aggregator) absorb(sids *streamIndex, ms []query.Match) {
	for _, m := range ms {
		if a.seen.add(sids.key(m.StreamID, m.Seq)) {
			a.pending = append(a.pending, m)
		}
	}
}

func (a *aggregator) takePending() []query.Match {
	out := a.pending
	a.pending = nil
	return out
}
