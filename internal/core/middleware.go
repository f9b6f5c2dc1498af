package core

import (
	"fmt"

	"streamdex/internal/clock"
	"streamdex/internal/cqe"
	"streamdex/internal/dht"
	"streamdex/internal/dsp"
	"streamdex/internal/metrics"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

// Middleware is one deployment of the distributed stream index: it owns a
// DataCenter per overlay node, the content-to-key mapper, the traffic
// collector, and the client-facing query API (the paper's "application
// view", Fig. 5).
type Middleware struct {
	cfg    Config
	clk    clock.Clock
	net    dht.Substrate
	mapper summary.Mapper
	col    *metrics.Collector
	rng    *sim.Rand

	dcs map[dht.Key]*DataCenter

	// sids interns stream ids for every (stream, seq) dedup set of this
	// deployment's data centers and result tables.
	sids *streamIndex

	nextQueryID query.ID

	// Client-side result tracking. simResults and subResults hold one
	// table per similarity query / subscription posted here; open lists
	// the tables that still deduplicate, for retireResults.
	simResults  map[query.ID]*resultTable
	simResponse map[query.ID]int
	ipValues    map[query.ID][]query.IPValue
	ipFailed    map[query.ID]bool
	subResults  map[query.ID]*resultTable
	open        []*resultTable
	nextRetire  sim.Time
	late        int64

	// Continuous-query-engine client state: aggregate sketch folds and
	// top-k report tables.
	aggFolds   map[query.ID]*cqe.SketchFold
	topkTables map[query.ID]*cqe.TopKTable
	topkK      map[query.ID]int

	// OnSimilarity, when non-nil, is invoked at each response delivery
	// with the newly reported matches (possibly none). The slice is
	// read-only and stays valid: the middleware keeps it as part of the
	// query's result table and never writes to it or reuses it, so the
	// callback may retain it.
	OnSimilarity func(id query.ID, matches []query.Match)
	// OnInnerProduct, when non-nil, is invoked at each periodic value
	// push.
	OnInnerProduct func(id query.ID, v query.IPValue)

	unclassified int64
}

// New attaches the middleware to every live node of an existing overlay —
// any dht.Substrate implementation (the simulated network with any routing
// machine, or the live TCP transport). All periodic processes are scheduled on the
// substrate's clock, so the same code runs in virtual and wall time. The
// collector is installed as the network's traffic observer.
func New(net dht.Substrate, cfg Config) (*Middleware, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Space != net.Space() {
		return nil, fmt.Errorf("core: middleware space m=%d differs from overlay m=%d", cfg.Space.M, net.Space().M)
	}
	mw := &Middleware{
		cfg:         cfg,
		clk:         net.Clock(),
		net:         net,
		mapper:      summary.NewMapper(cfg.Space),
		col:         metrics.NewCollector(classifier{}),
		rng:         sim.NewRand(cfg.Seed).Fork("middleware"),
		dcs:         make(map[dht.Key]*DataCenter),
		sids:        newStreamIndex(),
		simResults:  make(map[query.ID]*resultTable),
		simResponse: make(map[query.ID]int),
		ipValues:    make(map[query.ID][]query.IPValue),
		ipFailed:    make(map[query.ID]bool),
		subResults:  make(map[query.ID]*resultTable),
		aggFolds:    make(map[query.ID]*cqe.SketchFold),
		topkTables:  make(map[query.ID]*cqe.TopKTable),
		topkK:       make(map[query.ID]int),
	}
	net.SetObserver(mw.col)
	for _, id := range net.NodeIDs() {
		mw.AttachNode(id)
	}
	return mw, nil
}

// AttachNode creates (or returns) the DataCenter for an overlay node —
// called automatically for nodes present at construction, and manually
// after later joins.
func (mw *Middleware) AttachNode(id dht.Key) *DataCenter {
	if dc, ok := mw.dcs[id]; ok {
		return dc
	}
	dc := newDataCenter(id, mw)
	// A substrate with a data-plane worker pool (the live transport) gets
	// the concurrent paths: DeliverData upcalls, pooled ingest, and a way
	// to post worker-discovered control work back to the loop. The
	// simulator implements neither interface and stays fully serialized.
	if pp, ok := mw.net.(dht.PoolProvider); ok {
		if pool := pp.DataPool(); pool != nil {
			if poster, ok := mw.clk.(interface{ Post(func()) bool }); ok {
				dc.pool, dc.poster = pool, poster
			}
		}
	}
	mw.dcs[id] = dc
	mw.net.SetApp(id, dc)
	// Substrates that report neighborhood changes drive the eager churn
	// re-registration; everywhere else the periodic refresh in periodTick
	// re-homes standing registrations within one push period.
	if nw, ok := mw.net.(dht.NeighborWatcher); ok {
		nw.WatchNeighbors(id, dc.onRingChange)
	}
	dc.startTicker()
	return dc
}

// DataCenter returns the middleware instance on node id, or nil.
func (mw *Middleware) DataCenter(id dht.Key) *DataCenter { return mw.dcs[id] }

// Config returns the middleware configuration.
func (mw *Middleware) Config() Config { return mw.cfg }

// Collector exposes the traffic statistics collector.
func (mw *Middleware) Collector() *metrics.Collector { return mw.col }

// Mapper exposes the content-to-key mapping function h.
func (mw *Middleware) Mapper() summary.Mapper { return mw.mapper }

// Clock returns the clock the middleware schedules on.
func (mw *Middleware) Clock() clock.Clock { return mw.clk }

// Network returns the routing substrate.
func (mw *Middleware) Network() dht.Substrate { return mw.net }

// locKey is h2: the location-service key of a stream identifier (§IV-D).
func (mw *Middleware) locKey(sid string) dht.Key {
	return mw.cfg.Space.HashString("loc:" + sid)
}

// ExtractFeature computes the feature vector of a raw series of exactly
// WindowSize points, using the middleware's normalization — the same
// pipeline stream summaries go through, applied to a client's query
// sequence.
func (mw *Middleware) ExtractFeature(series []float64) (summary.Feature, error) {
	if len(series) != mw.cfg.WindowSize {
		return nil, fmt.Errorf("core: query series of %d points, want window size %d", len(series), mw.cfg.WindowSize)
	}
	sdft := newSeriesDFT(series, mw.cfg)
	return summary.FromCoeffs(sdft, mw.cfg.FeatureDims, mw.cfg.skipDC()), nil
}

// PostSimilarity poses a continuous similarity query (Q, radius, lifespan)
// at the given origin node, with Q given directly as a feature vector. It
// returns the query id results are tracked under.
func (mw *Middleware) PostSimilarity(origin dht.Key, f summary.Feature, radius float64, lifespan sim.Time) (query.ID, error) {
	if mw.dcs[origin] == nil {
		return 0, fmt.Errorf("core: unknown origin node %d", origin)
	}
	if len(f) != mw.cfg.FeatureDims {
		return 0, fmt.Errorf("core: feature of %d dims, want %d", len(f), mw.cfg.FeatureDims)
	}
	q := &query.Similarity{
		ID:       mw.newQueryID(),
		Origin:   origin,
		Feature:  f.Clone(),
		Radius:   radius,
		Norm:     mw.cfg.Norm,
		Posted:   mw.clk.Now(),
		Lifespan: lifespan,
	}
	if err := q.Validate(); err != nil {
		return 0, err
	}
	mw.col.CountEvent(metrics.EventQuery)
	mw.simResults[q.ID] = mw.openResults(q.Expiry())
	lo, hi := mw.mapper.QueryRange(f.Routing(), radius)
	middle := mw.cfg.Space.Midpoint(lo, hi)
	msg := sized(&dht.Message{Kind: KindQuery, Payload: SimQuery{Q: q, MiddleKey: middle}})
	dht.SendRange(mw.net, origin, lo, hi, msg, mw.cfg.RangeMode)
	return q.ID, nil
}

// PostSimilaritySeries is PostSimilarity for a raw query sequence of
// WindowSize points: the feature vector is extracted first, exactly as
// §IV-E prescribes.
func (mw *Middleware) PostSimilaritySeries(origin dht.Key, series []float64, radius float64, lifespan sim.Time) (query.ID, error) {
	f, err := mw.ExtractFeature(series)
	if err != nil {
		return 0, err
	}
	return mw.PostSimilarity(origin, f, radius, lifespan)
}

// PostInnerProduct poses a continuous inner-product query at the origin
// node. The stream source is resolved through the location service (with
// client-side caching) and the subscription is delivered to it; the source
// pushes reconstructed values every push period.
func (mw *Middleware) PostInnerProduct(origin dht.Key, sid string, index []int, weights []float64, lifespan sim.Time) (query.ID, error) {
	dc := mw.dcs[origin]
	if dc == nil {
		return 0, fmt.Errorf("core: unknown origin node %d", origin)
	}
	q := &query.InnerProduct{
		ID:       mw.newQueryID(),
		Origin:   origin,
		StreamID: sid,
		Index:    append([]int(nil), index...),
		Weights:  append([]float64(nil), weights...),
		Posted:   mw.clk.Now(),
		Lifespan: lifespan,
	}
	if err := q.Validate(); err != nil {
		return 0, err
	}
	switch {
	case dc.streams[sid] != nil:
		// Locally sourced stream: subscribe directly.
		dc.registerIPSub(q)
	case hasKey(dc.locCache, sid):
		dc.sendIPSub(dc.locCache[sid], q)
	default:
		pending := dc.pendingIP[sid]
		dc.pendingIP[sid] = append(pending, q)
		if len(pending) == 0 {
			// First query for this stream: resolve the source.
			msg := sized(&dht.Message{Kind: KindLocGet, Payload: LocGet{StreamID: sid, Requester: origin}})
			mw.net.Send(origin, mw.locKey(sid), msg)
		}
	}
	return q.ID, nil
}

func hasKey(m map[string]dht.Key, k string) bool {
	_, ok := m[k]
	return ok
}

func (mw *Middleware) newQueryID() query.ID {
	mw.nextQueryID++
	return mw.nextQueryID
}

// resultTable is the client-side record of one continuous query's
// detections: similarity responses or subscription matches.
type resultTable struct {
	// chunks are the never-before-reported matches of each delivery, in
	// arrival order. A chunk is written once, when it is built, and only
	// read afterwards — by the OnSimilarity callback it is handed to and
	// by the accessors that concatenate on demand.
	chunks [][]query.Match
	// seen deduplicates per (stream, seq): several nodes may report the
	// same MBR. It is released one push period after the query's expiry
	// (retireAt); a delivery arriving later still is counted late.
	seen     seqSet
	retireAt sim.Time
}

// openResults starts the result table of a query expiring at expiry.
func (mw *Middleware) openResults(expiry sim.Time) *resultTable {
	r := &resultTable{seen: seqSet{}, retireAt: expiry + mw.cfg.PushPeriod}
	mw.open = append(mw.open, r)
	return r
}

// retireResults releases the dedup set of every query that has been
// expired for a push period. Each data center's periodTick calls it; it
// scans the open tables at most once per push period.
func (mw *Middleware) retireResults(now sim.Time) {
	if now < mw.nextRetire {
		return
	}
	mw.nextRetire = now + mw.cfg.PushPeriod
	open := mw.open[:0]
	for _, r := range mw.open {
		if now >= r.retireAt {
			r.seen = nil
		} else {
			open = append(open, r)
		}
	}
	clear(mw.open[len(open):])
	mw.open = open
}

// absorb records the matches not reported before as one chunk and returns
// it (nil when there are none). On a table that is unknown (nil) or already
// retired the delivery is counted late and dropped.
func (mw *Middleware) absorb(r *resultTable, matches []query.Match) []query.Match {
	if r == nil || r.seen == nil {
		mw.late++
		return nil
	}
	var fresh []query.Match
	for _, m := range matches {
		if !r.seen.add(mw.sids.key(m.StreamID, m.Seq)) {
			continue
		}
		if fresh == nil {
			fresh = make([]query.Match, 0, len(matches))
		}
		fresh = append(fresh, m)
	}
	if fresh != nil {
		r.chunks = append(r.chunks, fresh)
	}
	return fresh
}

// matches returns a copy of every match recorded so far.
func (r *resultTable) matches() []query.Match {
	if r == nil {
		return nil
	}
	n := 0
	for _, c := range r.chunks {
		n += len(c)
	}
	if n == 0 {
		return nil
	}
	out := make([]query.Match, 0, n)
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return out
}

// streams returns the distinct stream ids recorded, in first-report order.
func (r *resultTable) streams() []string {
	if r == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for _, c := range r.chunks {
		for _, m := range c {
			if !seen[m.StreamID] {
				seen[m.StreamID] = true
				out = append(out, m.StreamID)
			}
		}
	}
	return out
}

// LateDeliveries returns how many similarity responses and subscription
// match pushes arrived for a query unknown here or expired for over a push
// period, and were dropped.
func (mw *Middleware) LateDeliveries() int64 { return mw.late }

// deliverSimilarity records a response arriving at the client node.
func (mw *Middleware) deliverSimilarity(at dht.Key, p ResponseMsg) {
	mw.simResponse[p.QueryID]++
	fresh := mw.absorb(mw.simResults[p.QueryID], p.Matches)
	if mw.OnSimilarity != nil {
		mw.OnSimilarity(p.QueryID, fresh)
	}
	_ = at
}

// deliverIP records an inner-product value arriving at the client node.
func (mw *Middleware) deliverIP(at dht.Key, p IPResp) {
	mw.ipValues[p.QueryID] = append(mw.ipValues[p.QueryID], p.Value)
	if mw.OnInnerProduct != nil {
		mw.OnInnerProduct(p.QueryID, p.Value)
	}
	_ = at
}

// failIP marks inner-product queries as unresolvable (unknown stream id).
func (mw *Middleware) failIP(qs []*query.InnerProduct) {
	for _, q := range qs {
		mw.ipFailed[q.ID] = true
	}
}

// SimilarityMatches returns the deduplicated matches reported to the
// client so far.
func (mw *Middleware) SimilarityMatches(id query.ID) []query.Match {
	return mw.simResults[id].matches()
}

// MatchedStreams returns the distinct stream ids reported for the query.
func (mw *Middleware) MatchedStreams(id query.ID) []string {
	return mw.simResults[id].streams()
}

// ResponseCount returns how many periodic responses (including empty ones)
// the client received for the query.
func (mw *Middleware) ResponseCount(id query.ID) int { return mw.simResponse[id] }

// InnerProductValues returns the periodic values received for the query.
func (mw *Middleware) InnerProductValues(id query.ID) []query.IPValue {
	return append([]query.IPValue(nil), mw.ipValues[id]...)
}

// InnerProductFailed reports whether the query could not be resolved.
func (mw *Middleware) InnerProductFailed(id query.ID) bool { return mw.ipFailed[id] }

// newSeriesDFT computes the first Coeffs normalized coefficients of a
// complete series in one shot (query-side feature extraction).
func newSeriesDFT(series []float64, cfg Config) []complex128 {
	return dsp.GoertzelBins(dsp.Normalize(series, cfg.Norm), cfg.Coeffs)
}
