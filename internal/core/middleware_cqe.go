package core

// Client-facing API of the continuous-query engine: posting standing
// subscriptions, windowed-aggregate queries and top-k monitors, and
// reading back their folded results — the CQE extension of the paper's
// "application view" (Fig. 5).

import (
	"fmt"
	"sort"

	"streamdex/internal/cqe"
	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

// PostSubscription registers a standing pub/sub predicate at the origin
// node: every MBR intersecting the rectangle [lo, hi] during the lifespan
// is pushed back to the origin. Returns the id detections are tracked
// under.
func (mw *Middleware) PostSubscription(origin dht.Key, lo, hi summary.Feature, lifespan sim.Time) (query.ID, error) {
	dc := mw.dcs[origin]
	if dc == nil {
		return 0, fmt.Errorf("core: unknown origin node %d", origin)
	}
	if len(lo) != mw.cfg.FeatureDims || len(hi) != mw.cfg.FeatureDims {
		return 0, fmt.Errorf("core: predicate corners of %d/%d dims, want %d", len(lo), len(hi), mw.cfg.FeatureDims)
	}
	p := &query.Predicate{
		ID:       mw.newQueryID(),
		Origin:   origin,
		Lo:       lo.Clone(),
		Hi:       hi.Clone(),
		Posted:   mw.clk.Now(),
		Lifespan: lifespan,
	}
	if err := p.Validate(); err != nil {
		return 0, err
	}
	mw.subResults[p.ID] = mw.openResults(p.Expiry())
	dc.opSub.register(p)
	return p.ID, nil
}

// CancelSubscription withdraws a subscription posted at the origin node.
func (mw *Middleware) CancelSubscription(origin dht.Key, id query.ID) error {
	dc := mw.dcs[origin]
	if dc == nil {
		return fmt.Errorf("core: unknown origin node %d", origin)
	}
	if !dc.opSub.cancel(id) {
		return fmt.Errorf("core: subscription %d not registered at node %d", id, origin)
	}
	return nil
}

// SubscriptionMatches returns the deduplicated detections pushed to the
// subscriber so far.
func (mw *Middleware) SubscriptionMatches(id query.ID) []query.Match {
	return mw.subResults[id].matches()
}

// SubscribedStreams returns the distinct stream ids detected for the
// subscription, sorted.
func (mw *Middleware) SubscribedStreams(id query.ID) []string {
	out := mw.subResults[id].streams()
	sort.Strings(out)
	return out
}

// deliverSubMatch folds a covering node's detections into the client
// state, deduplicating per (stream, seq) — range replication makes
// several nodes detect the same MBR.
func (mw *Middleware) deliverSubMatch(p SubMatchMsg) {
	mw.absorb(mw.subResults[p.SubID], p.Matches)
}

// PostAggregate poses a continuous windowed-aggregate query over the
// streams whose routing coordinate falls in [lo, hi]. Covering nodes push
// their per-stream window sketches every push period; the folded result
// is read with AggCount / AggQuantile / AggStreams.
func (mw *Middleware) PostAggregate(origin dht.Key, lo, hi float64, lifespan sim.Time) (query.ID, error) {
	dc := mw.dcs[origin]
	if dc == nil {
		return 0, fmt.Errorf("core: unknown origin node %d", origin)
	}
	q := &query.Aggregate{
		ID:       mw.newQueryID(),
		Origin:   origin,
		Lo:       lo,
		Hi:       hi,
		Posted:   mw.clk.Now(),
		Lifespan: lifespan,
	}
	if err := q.Validate(); err != nil {
		return 0, err
	}
	mw.aggFolds[q.ID] = cqe.NewSketchFold()
	dc.opAgg.register(q)
	return q.ID, nil
}

// deliverAggReply folds a covering node's sketch report, keeping the
// latest publication per stream.
func (mw *Middleware) deliverAggReply(p AggReplyMsg) {
	fold := mw.aggFolds[p.QueryID]
	if fold == nil {
		return // expired or unknown query
	}
	for _, it := range p.Items {
		fold.Absorb(it.StreamID, it.Seq, it.Sketch)
	}
}

// AggStreams returns the distinct streams reporting into the aggregate,
// sorted.
func (mw *Middleware) AggStreams(id query.ID) []string {
	fold := mw.aggFolds[id]
	if fold == nil {
		return nil
	}
	return fold.Streams()
}

// AggCount returns the windowed count estimate across the aggregated
// streams, as of now.
func (mw *Middleware) AggCount(id query.ID) uint64 {
	fold := mw.aggFolds[id]
	if fold == nil {
		return 0
	}
	return fold.Count(mw.clk.Now())
}

// AggQuantile returns the phi-quantile estimate of the merged windowed
// value distribution, as of now. ok is false before any sketch arrived
// (or when reported sketches are not merge-compatible).
func (mw *Middleware) AggQuantile(id query.ID, phi float64) (v float64, ok bool) {
	fold := mw.aggFolds[id]
	if fold == nil {
		return 0, false
	}
	return fold.Quantile(mw.clk.Now(), phi)
}

// PostTopK poses a continuous top-k frequency monitor over the MBR
// publications whose routing coordinate falls in [lo, hi]. The current
// ranking is read with TopK.
func (mw *Middleware) PostTopK(origin dht.Key, k int, lo, hi float64, lifespan sim.Time) (query.ID, error) {
	dc := mw.dcs[origin]
	if dc == nil {
		return 0, fmt.Errorf("core: unknown origin node %d", origin)
	}
	q := &query.TopK{
		ID:       mw.newQueryID(),
		Origin:   origin,
		K:        k,
		Lo:       lo,
		Hi:       hi,
		Posted:   mw.clk.Now(),
		Lifespan: lifespan,
	}
	if err := q.Validate(); err != nil {
		return 0, err
	}
	mw.topkTables[q.ID] = cqe.NewTopKTable()
	mw.topkK[q.ID] = k
	dc.opTopK.register(q)
	return q.ID, nil
}

// deliverTopKReport replaces the reporting node's frequency table at the
// monitoring client.
func (mw *Middleware) deliverTopKReport(p TopKReportMsg) {
	table := mw.topkTables[p.QueryID]
	if table == nil {
		return
	}
	table.Absorb(p.Node, p.Counts)
}

// TopK returns the monitor's current ranking: the k most frequently
// publishing streams with their summed per-node counts.
func (mw *Middleware) TopK(id query.ID) []cqe.StreamCount {
	table := mw.topkTables[id]
	if table == nil {
		return nil
	}
	return table.Top(mw.topkK[id])
}
