package core

import (
	"streamdex/internal/dht"
	"streamdex/internal/metrics"
	"streamdex/internal/query"
	"streamdex/internal/summary"
	"streamdex/internal/wire"
)

// Message kinds of the middleware protocol.
const (
	// KindMBR replicates a stream's MBR summary over its key range
	// ("put" in DHT terms, §IV-B/G).
	KindMBR dht.Kind = iota
	// KindQuery disseminates a similarity query over its key range
	// ("get", §IV-E).
	KindQuery
	// KindNotify carries detected-similarity information toward a query's
	// middle node (§IV-F): one ring hop per push period, or routed by the
	// middle key when the first answer or an expiring query cannot wait.
	KindNotify
	// KindResponse carries aggregated results from a middle node to the
	// client that posed the query (§IV-F): one query's (ResponseMsg), or
	// one push period's responses for the same client (ResponseBatch).
	KindResponse
	// KindLocPut registers a (stream id -> source node) pair at the
	// location-service node h2(sid) (§IV-D).
	KindLocPut
	// KindLocGet asks the location-service node to resolve a stream id.
	KindLocGet
	// KindLocReply returns the resolution to the requester.
	KindLocReply
	// KindIPSub delivers an inner-product subscription to the stream's
	// source node.
	KindIPSub
	// KindIPResp carries a periodic inner-product value to the client.
	KindIPResp

	// Continuous-query-engine kinds (PR 7). Appended after the original
	// nine; codec tags for them start at 23 (after the ring tags 16-22).

	// KindSketch replicates a stream's windowed sketch over the key range
	// of the MBR it rides along with.
	KindSketch
	// KindSub registers (or cancels) a standing pub/sub predicate at the
	// nodes covering its key range.
	KindSub
	// KindSubMatch pushes predicate matches from a covering node to the
	// subscriber as data-plane frames.
	KindSubMatch
	// KindAggQuery registers a windowed-aggregate query at the nodes
	// covering its key range.
	KindAggQuery
	// KindAggReply carries a covering node's per-stream sketch report to
	// the querying node, where reports are deduplicated and merged.
	KindAggReply
	// KindTopK registers a top-k frequency monitor at the nodes covering
	// its key range.
	KindTopK
	// KindTopKReport carries a covering node's cumulative frequency table
	// to the monitoring node.
	KindTopKReport

	// Load-balancing kinds (PR 8). Codec tags 30-31.

	// KindReplica walks an MBR copy down the covering node's successor
	// tail so the summary is held at up to Config.Replicas ring-adjacent
	// nodes (hot-range read replication).
	KindReplica
	// KindLoad gossips a node's recent data-plane message rate (and the
	// rates it learned from its own successors) one hop to its ring
	// predecessor, feeding the power-of-two-choices read balancer.
	KindLoad
)

// Payload types carried by the messages above. Each has a hand-packed
// wire codec registered in codec.go, which is what lets it travel through
// dht.Message's interface-typed Payload field and be sized by wire.Sizeof.

// MBRUpdate is the payload of KindMBR.
type MBRUpdate struct {
	MBR *summary.MBR
}

// SimQuery is the payload of KindQuery. MiddleKey is precomputed by the
// origin so every covering node agrees on the aggregation point.
type SimQuery struct {
	Q         *query.Similarity
	MiddleKey dht.Key
}

// NotifyItem carries the candidates a node collected for one query on
// their way to the query's middle node.
type NotifyItem struct {
	QueryID   query.ID
	MiddleKey dht.Key
	ClientKey dht.Key
	Expiry    int64 // sim.Time; kept numeric so the payload stays flat
	Matches   []query.Match
}

// NotifyBatch is the payload of KindNotify: all items traveling in the
// same ring direction, aggregated ("these messages contain aggregated
// similarities for all queries that the node knows about").
type NotifyBatch struct {
	Items []NotifyItem
}

// ResponseMsg is the payload of KindResponse carrying one query's
// response: what its aggregator collected since the last one.
type ResponseMsg struct {
	QueryID query.ID
	Matches []query.Match // may be empty: periodic "no new similarities"
}

// ResponseBatch is the payload of KindResponse carrying several queries'
// responses of one push period from one middle node to one client, sorted
// by query id. The client takes each item as if it had arrived alone.
type ResponseBatch struct {
	Items []ResponseMsg
}

// LocPut is the payload of KindLocPut.
type LocPut struct {
	StreamID string
	Source   dht.Key
}

// LocGet is the payload of KindLocGet.
type LocGet struct {
	StreamID  string
	Requester dht.Key
}

// LocReply is the payload of KindLocReply.
type LocReply struct {
	StreamID string
	Source   dht.Key
	Found    bool
}

// IPSub is the payload of KindIPSub.
type IPSub struct {
	Q *query.InnerProduct
}

// IPResp is the payload of KindIPResp.
type IPResp struct {
	QueryID query.ID
	Value   query.IPValue
}

// ReplicaMsg is the payload of KindReplica: an MBR copy walking the
// covering node's successor tail. TTL counts the remaining hops; the
// receiver stores the copy and forwards with TTL-1 while TTL > 1.
type ReplicaMsg struct {
	MBR *summary.MBR
	TTL int
}

// LoadMsg is the payload of KindLoad. Loads[0] is the sender's own
// data-plane message rate (messages/s) over the last push period;
// Loads[i] is the rate the sender learned for its i-th successor, i
// periods stale. The receiver (the sender's predecessor) shifts the
// vector into its successor-load table.
type LoadMsg struct {
	Loads []float64
}

// classifier maps middleware messages onto the evaluation's traffic
// categories and hop classes. It implements metrics.Classifier.
type classifier struct{}

// Classify implements metrics.Classifier. Continuation legs of a range
// multicast carry Dir != 0; the first transmission of a routed message has
// Hops == 1 and leaves the origin.
func (classifier) Classify(from dht.Key, msg *dht.Message) metrics.Category {
	origin := msg.Hops == 1 && from == msg.Src && msg.Dir == 0
	switch msg.Kind {
	case KindMBR:
		switch {
		case msg.Dir != 0:
			return metrics.MBRRange
		case origin:
			return metrics.MBRSource
		default:
			return metrics.MBRTransit
		}
	case KindQuery:
		switch {
		case msg.Dir != 0:
			return metrics.QueryRange
		case origin:
			return metrics.QueryInitial
		default:
			return metrics.QueryTransit
		}
	case KindNotify:
		// One hop to a ring neighbor, or the first hop of a notify routed
		// to the middle node; the hops intermediate nodes forward the
		// latter over are response traffic in transit.
		if origin {
			return metrics.NeighborNotify
		}
		return metrics.ResponseTransit
	case KindResponse:
		if origin {
			return metrics.ResponseClient
		}
		return metrics.ResponseTransit
	case KindLocPut, KindLocGet, KindLocReply:
		return metrics.Location
	case KindIPSub, KindIPResp:
		return metrics.InnerProduct
	case KindSketch, KindAggQuery, KindAggReply:
		return metrics.Sketch
	case KindSub, KindSubMatch:
		return metrics.Subscription
	case KindTopK, KindTopKReport:
		return metrics.TopKFreq
	case KindReplica:
		return metrics.Replica
	case KindLoad:
		return metrics.LoadReport
	default:
		return metrics.Other
	}
}

// ClassifyHops implements metrics.Classifier, grouping deliveries into the
// five classes of Fig. 8.
func (classifier) ClassifyHops(msg *dht.Message) metrics.HopClass {
	switch msg.Kind {
	case KindMBR:
		if msg.Dir != 0 {
			return metrics.HopMBRInternal
		}
		return metrics.HopMBR
	case KindQuery:
		if msg.Dir != 0 {
			return metrics.HopQueryInternal
		}
		return metrics.HopQuery
	case KindResponse, KindIPResp:
		return metrics.HopResponse
	default:
		return metrics.HopOther
	}
}

// sized stamps a message with its estimated wire size (envelope +
// payload) so traffic observers can account bandwidth (§IV-G's actual
// claim is about communication volume, not message counts).
func sized(msg *dht.Message) *dht.Message {
	msg.Bytes = wire.Sizeof(msg.Payload)
	return msg
}
