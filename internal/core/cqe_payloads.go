package core

// Payload types of the continuous-query-engine kinds (KindSketch …
// KindTopKReport). Their hand-packed wire codecs are registered in
// cqe_codec.go.

import (
	"streamdex/internal/cqe"
	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/summary"
)

// SketchUpdate is the payload of KindSketch: a stream's current windowed
// sketch, replicated over the key range of the MBR it was published with so
// the same covering nodes hold summary and sketch.
type SketchUpdate struct {
	StreamID string
	// Seq orders a stream's sketch publications (the sequence number of
	// the MBR the sketch rode along with); folds keep the latest.
	Seq uint64
	// Expiry bounds the sketch's soft-state lifetime at holding nodes.
	Expiry int64 // sim.Time; kept numeric so the payload stays flat
	// Lo and Hi record the routing-coordinate extent the sketch was
	// published under, so holding nodes can answer range-restricted
	// aggregate queries without re-deriving it.
	Lo, Hi float64
	Sketch *summary.Sketch
}

// SubMsg is the payload of KindSub: a standing predicate registration, or
// its cancellation.
type SubMsg struct {
	P      *query.Predicate
	Cancel bool
}

// SubMatchMsg is the payload of KindSubMatch: matches a covering node
// detected for one subscription, pushed to the subscriber.
type SubMatchMsg struct {
	SubID   query.ID
	Matches []query.Match
}

// AggQueryMsg is the payload of KindAggQuery.
type AggQueryMsg struct {
	Q *query.Aggregate
}

// StreamSketch is one per-stream item of an aggregate report.
type StreamSketch struct {
	StreamID string
	Seq      uint64
	Sketch   *summary.Sketch
}

// AggReplyMsg is the payload of KindAggReply: the sketches a covering node
// holds for the queried range. The querying node deduplicates per stream by
// highest sequence before merging (range replication stores each stream's
// sketch on several nodes).
type AggReplyMsg struct {
	QueryID query.ID
	Items   []StreamSketch
}

// TopKMsg is the payload of KindTopK.
type TopKMsg struct {
	Q *query.TopK
}

// TopKReportMsg is the payload of KindTopKReport: one covering node's
// cumulative frequency table for a monitor. Reports replace the node's
// previous table at the origin, so retransmissions never double-count.
type TopKReportMsg struct {
	QueryID query.ID
	Node    dht.Key
	Counts  []cqe.StreamCount
}
