package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"streamdex/internal/clock"
	"streamdex/internal/cqe"
	"streamdex/internal/dht"
	"streamdex/internal/dsp"
	"streamdex/internal/metrics"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/stream"
	"streamdex/internal/summary"
)

// DataCenter is the middleware instance running on one overlay node — a
// sensor proxy / base station in the paper's architecture. It implements
// dht.App.
//
// Concurrency: under the simulator every method runs on the single event
// loop and the locks below are uncontended formality. On the live
// transport the node's worker pool calls the *data plane* concurrently —
// DeliverData for MBR publishes and query evaluations, ingest closures for
// stream ticks — while everything else (notify absorption, aggregators,
// the location service, response pushes) stays confined to the run loop.
// The shared state those two planes touch is the sharded store (internally
// locked), the subscription table (subMu), each subscription's detection
// state (simSub.mu) and each local stream's summary pipeline
// (localStream.mu).
type DataCenter struct {
	id dht.Key
	mw *Middleware

	// streams this node is the source of. The map itself is loop-confined
	// (registration and lookups); each stream's pipeline state is guarded
	// by its own mutex for pool ingest.
	streams map[string]*localStream

	// store is the index partition: MBRs this node covers by content.
	store *Store

	// subs are the similarity subscriptions whose key range covers this
	// node, guarded by subMu: workers register subscriptions and match new
	// MBRs against them while the loop sweeps and flushes.
	subMu sync.RWMutex
	subs  map[query.ID]*simSub

	// aggs are the queries for which this node is the middle node.
	// Loop-confined: aggregation is control-plane work (notify absorption,
	// periodic response pushes).
	aggs map[query.ID]*aggregator

	// ipSubs are inner-product subscriptions on local streams.
	ipSubs map[query.ID]*ipSubState

	// locTable is this node's partition of the location service
	// (stream id -> source node for ids hashing here); locCache caches
	// resolutions this node obtained as a client ("remembers the mapping
	// so that next time it does not need to retrieve it").
	locTable map[string]dht.Key
	locCache map[string]dht.Key
	// pendingIP holds inner-product queries awaiting location
	// resolution.
	pendingIP map[string][]*query.InnerProduct

	// relay buffers notify items received from neighbors, to be moved
	// one further ring hop toward their middle node on the next period.
	relay []NotifyItem

	// matchScratch recycles candidate-walk buffers. Each walk takes its
	// own, so concurrent query evaluations never share the old single
	// dc.scratch slice.
	matchScratch sync.Pool

	// pool is the substrate's data-plane executor (nil under the
	// simulator); poster posts worker-discovered control work — aggregator
	// installation — back to the loop.
	pool   dht.Pool
	poster interface{ Post(func()) bool }

	// engine is the continuous-query operator registry all non-MBR
	// message kinds dispatch through; the typed references let the
	// middleware reach operator-specific entry points (registration,
	// sketch publication) without downcasts.
	engine *cqe.Engine
	opSim  *simOp
	opIP   *ipOp
	opSub  *subOp
	opAgg  *aggOp
	opTopK *topkOp
	opRep  *repOp

	// delivered counts every data-plane upcall at this node; the replica
	// operator samples it per push period into the load rate it gossips.
	delivered atomic.Int64

	// Admission control (Config.AdmitRate > 0): a token bucket charged one
	// token per MBR/replica store operation. admitShed counts sheds for
	// metrics.DataPlane.
	admitMu     sync.Mutex
	admitTokens float64
	admitLast   sim.Time
	admitSeeded bool
	admitShed   atomic.Int64

	ticker clock.Ticker
}

// localStream is one stream this data center sources. mu guards the
// summary pipeline (generator, sliding DFT, batcher): pool ingest advances
// it while the loop reads windows, features and coefficients.
type localStream struct {
	st stream.Stream

	mu      sync.Mutex
	sdft    *dsp.SlidingDFT
	batcher *summary.Batcher
	// sketch is the stream's windowed value sketch (nil unless
	// Config.Sketches), advanced by ingest and snapshotted at each MBR
	// publication.
	sketch *summary.Sketch

	ticker clock.Ticker
	// ingest is the closure streamTick hands the data-plane pool, built
	// once at registration instead of once per tick.
	ingest func()
}

func newDataCenter(id dht.Key, mw *Middleware) *DataCenter {
	// Every substrate gets the same store: the simulator's one goroutine
	// and the live transport's data-plane workers run identical code.
	dc := &DataCenter{
		id:        id,
		mw:        mw,
		streams:   make(map[string]*localStream),
		store:     NewShardedStore(mw.cfg.StoreShards),
		subs:      make(map[query.ID]*simSub),
		aggs:      make(map[query.ID]*aggregator),
		ipSubs:    make(map[query.ID]*ipSubState),
		locTable:  make(map[string]dht.Key),
		locCache:  make(map[string]dht.Key),
		pendingIP: make(map[string][]*query.InnerProduct),
	}
	dc.engine = newEngine(dc)
	return dc
}

// ID returns the data center's overlay identifier.
func (dc *DataCenter) ID() dht.Key { return dc.id }

// Store exposes the index partition (read-mostly; used by tests and the
// hierarchy extension).
func (dc *DataCenter) Store() *Store { return dc.store }

// SubCount returns the number of similarity subscriptions registered here.
// Safe from any goroutine.
func (dc *DataCenter) SubCount() int {
	dc.subMu.RLock()
	defer dc.subMu.RUnlock()
	return len(dc.subs)
}

// HasAggregator reports whether this node is the middle node of the query.
func (dc *DataCenter) HasAggregator(id query.ID) bool {
	_, ok := dc.aggs[id]
	return ok
}

// StreamIDs lists the streams sourced here.
func (dc *DataCenter) StreamIDs() []string {
	out := make([]string, 0, len(dc.streams))
	for sid := range dc.streams {
		out = append(out, sid)
	}
	return out
}

// StreamWindow returns a copy of the stream's current raw window (ground
// truth for tests), or nil when unknown or not yet full.
func (dc *DataCenter) StreamWindow(sid string) []float64 {
	ls := dc.streams[sid]
	if ls == nil {
		return nil
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if !ls.sdft.Full() {
		return nil
	}
	return ls.sdft.Window()
}

// StreamFeature returns the stream's current feature vector, or nil before
// the window fills.
func (dc *DataCenter) StreamFeature(sid string) summary.Feature {
	ls := dc.streams[sid]
	if ls == nil {
		return nil
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if !ls.sdft.Full() {
		return nil
	}
	cfg := dc.mw.cfg
	return summary.FromCoeffs(ls.sdft.NormalizedCoeffs(cfg.Norm), cfg.FeatureDims, cfg.skipDC())
}

// alive reports whether the underlying overlay node is up.
func (dc *DataCenter) alive() bool {
	return dc.mw.net.Alive(dc.id)
}

// RegisterStream makes this data center the source of st: new values are
// summarized incrementally on the stream's period, batched into MBRs and
// routed by content; the (sid -> source) pair is "put" into the location
// service at h2(sid) (§IV-D).
func (dc *DataCenter) RegisterStream(st stream.Stream) error {
	if err := st.Validate(); err != nil {
		return err
	}
	if _, dup := dc.streams[st.ID]; dup {
		return fmt.Errorf("core: stream %q already registered at node %d", st.ID, dc.id)
	}
	cfg := dc.mw.cfg
	ls := &localStream{
		st:      st,
		sdft:    dsp.NewSlidingDFT(cfg.WindowSize, cfg.Coeffs),
		batcher: summary.NewBatcher(st.ID, cfg.Beta),
	}
	if cfg.Sketches {
		ls.sketch = summary.NewSketch(cfg.MBRLifespan, sketchK, sketchBands, sketchLo, sketchHi)
	}
	dc.streams[st.ID] = ls
	if st.Prefill {
		// Prime the window with pre-deployment history; summaries are
		// not published for it (the index starts at the first live
		// value), but the first live value immediately yields a
		// feature. The window advances by a full window's worth of
		// points here, so the batch push path amortizes the transform
		// bookkeeping.
		hist := make([]float64, cfg.WindowSize)
		for i := range hist {
			hist[i] = st.Gen.Next()
		}
		ls.sdft.PushBatch(hist)
	}
	ls.ingest = func() { dc.ingest(ls) }
	phase := dc.mw.rng.UniformTime(0, st.Period)
	ls.ticker = dc.mw.clk.EveryAfter(phase, st.Period, func() { dc.streamTick(ls) })

	// Location-service registration.
	key := dc.mw.locKey(st.ID)
	msg := sized(&dht.Message{Kind: KindLocPut, Payload: LocPut{StreamID: st.ID, Source: dc.id}})
	dc.mw.net.Send(dc.id, key, msg)
	return nil
}

// streamTick fires on the loop once per stream period. With a data-plane
// pool the summary advance runs on a worker (multi-stream ingest becomes
// parallel); without one — or when the pool is momentarily full — it runs
// inline, exactly the historical path.
func (dc *DataCenter) streamTick(ls *localStream) {
	if !dc.alive() {
		ls.ticker.Stop()
		return
	}
	if dc.pool != nil && dc.pool.TrySubmit(ls.ingest) {
		return
	}
	ls.ingest()
}

// ingest advances one stream by one value: generator, sliding DFT, batcher,
// and — when a batch closes — MBR publication. The per-stream mutex keeps
// ingest, inner-product reconstruction and test reads coherent; publishMBR
// runs outside it (it takes the store and subscription locks).
func (dc *DataCenter) ingest(ls *localStream) {
	cfg := dc.mw.cfg
	ls.mu.Lock()
	v := ls.st.Gen.Next()
	ls.sdft.Push(v)
	if ls.sketch != nil {
		ls.sketch.Add(dc.mw.clk.Now(), v)
	}
	if !ls.sdft.Full() {
		ls.mu.Unlock()
		return
	}
	f := summary.FromCoeffs(ls.sdft.NormalizedCoeffs(cfg.Norm), cfg.FeatureDims, cfg.skipDC())
	mbr := ls.batcher.Add(f)
	var sk *summary.Sketch
	if mbr != nil && ls.sketch != nil {
		sk = ls.sketch.Clone()
	}
	ls.mu.Unlock()
	if mbr != nil {
		dc.publishMBR(mbr)
		if sk != nil {
			dc.opAgg.publishLocal(ls.st.ID, mbr, sk)
		}
	}
}

// publishMBR stamps, stores, matches and routes a finished MBR by content
// (§IV-G): it is replicated at every node that succeeds a key in
// [h(L1), h(H1)].
func (dc *DataCenter) publishMBR(b *summary.MBR) {
	now := dc.mw.clk.Now()
	b.Created = now
	b.Expiry = now + dc.mw.cfg.MBRLifespan
	dc.mw.col.CountEvent(metrics.EventMBR)

	// The summary is also stored locally (§IV-A) and fanned out to the
	// operators registered on this node (similarity matching, predicate
	// subscriptions, frequency monitors).
	dc.store.Put(b)
	dc.engine.OnMBR(dc, b)
	if dc.mw.cfg.Replicas > 1 {
		// Remember the live summary for periodic republish: replica sets
		// re-home after churn within one push period.
		dc.opRep.noteLocal(b)
	}

	lo, hi := b.KeyRange(dc.mw.mapper)
	msg := sized(&dht.Message{Kind: KindMBR, Payload: MBRUpdate{MBR: b}})
	dht.SendRange(dc.mw.net, dc.id, lo, hi, msg, dc.mw.cfg.RangeMode)
}

// matchNewMBR tests a just-arrived MBR against every registered
// subscription. Runs under the subscription read lock so it can execute on
// any number of workers at once; simSub.add serializes per subscription.
func (dc *DataCenter) matchNewMBR(b *summary.MBR) {
	now := dc.mw.clk.Now()
	dc.subMu.RLock()
	defer dc.subMu.RUnlock()
	for _, sub := range dc.subs {
		if now >= sub.q.Expiry() {
			continue
		}
		if d, ok := MatchMBR(b, sub.q.Feature, sub.q.Radius); ok {
			sub.add(query.Match{
				StreamID: b.StreamID,
				Seq:      b.Seq,
				DistLB:   d,
				FoundAt:  now,
				Node:     dc.id,
			})
		}
	}
}

// Deliver implements dht.App: the application upcall of the content-based
// routing substrate, on the substrate's loop. KindMBR — the index write
// path every operator observes — is handled natively; every other kind
// dispatches through the operator registry.
func (dc *DataCenter) Deliver(self dht.Key, msg *dht.Message) {
	dc.delivered.Add(1)
	if msg.Kind == KindMBR {
		dc.onMBR(msg)
		return
	}
	if !dc.engine.Deliver(dc, msg) {
		dc.mw.unclassified++
	}
}

// DeliverData implements dht.ConcurrentApp: the data-plane upcall a
// substrate's worker pool makes. MBR publishes are absorbed natively;
// each operator decides which of its kinds are worker-safe. Anything
// declined reports false and the substrate posts Deliver onto its loop.
func (dc *DataCenter) DeliverData(self dht.Key, msg *dht.Message) bool {
	dc.delivered.Add(1)
	if msg.Kind == KindMBR {
		dc.onMBR(msg)
		return true
	}
	return dc.engine.DeliverData(dc, msg)
}

// onMBR stores a replicated summary, matches it, and keeps the range
// multicast going. Safe on loop and workers alike: the store and the
// subscription table carry their own locks, and range continuation on the
// live transport routes against the lock-free ring view.
func (dc *DataCenter) onMBR(msg *dht.Message) {
	b := msg.Payload.(MBRUpdate).MBR
	live := !b.Expired(dc.mw.clk.Now())
	if live && dc.admit() {
		dc.store.Put(b)
		dc.engine.OnMBR(dc, b)
	}
	legs := dht.ContinueRange(dc.mw.net, dc.id, msg, 1)
	// Replica tail: the last natural coverer of a sequential-mode range
	// (no forward continuation left) walks the summary down Replicas-1
	// further successors, so every stored MBR is held by R ring-adjacent
	// nodes and the strided query walk sees it (§ DESIGN.md 15).
	if live && legs == 0 && dc.mw.cfg.Replicas > 1 &&
		msg.Mode == dht.RangeSequential && msg.Dir >= 0 {
		dc.opRep.sendTail(b)
	}
}

// admit charges the admission token bucket for one data-plane store
// operation. Always true with admission control off (the default). Sheds
// are counted, never blocked on: soft state repairs itself on the next
// republish cycle.
func (dc *DataCenter) admit() bool {
	cfg := dc.mw.cfg
	if cfg.AdmitRate <= 0 {
		return true
	}
	now := dc.mw.clk.Now()
	dc.admitMu.Lock()
	if !dc.admitSeeded {
		dc.admitTokens = cfg.AdmitBurst
		dc.admitLast = now
		dc.admitSeeded = true
	}
	if now > dc.admitLast {
		dc.admitTokens += cfg.AdmitRate * (float64(now-dc.admitLast) / float64(sim.Second))
		if dc.admitTokens > cfg.AdmitBurst {
			dc.admitTokens = cfg.AdmitBurst
		}
		dc.admitLast = now
	}
	if dc.admitTokens >= 1 {
		dc.admitTokens--
		dc.admitMu.Unlock()
		return true
	}
	dc.admitMu.Unlock()
	dc.admitShed.Add(1)
	return false
}

// AdmitShedCount returns the number of ingest operations shed by admission
// control since node start. Safe from any goroutine.
func (dc *DataCenter) AdmitShedCount() int64 { return dc.admitShed.Load() }

// handleQuery registers a similarity subscription at a covering node, scans
// the local index for immediate candidates, installs the aggregator when
// this node covers the middle key, sends what the scan found to the middle
// node at once (forwardCandidates: the first answer takes route time, not a
// push period), and continues the range multicast. onLoop distinguishes the
// serialized path (simulator, pool-less node) from a pool worker.
//
// Ordering fence: the subscription is registered *before* the store walk,
// and publishers insert into the store *before* matching subscriptions
// (publishMBR/onMBR). Any MBR concurrent with this query is therefore seen
// at least once — by the walk if its Put completed first, by the
// publisher's matchNewMBR otherwise (which finds the already-registered
// subscription) — and at most counted once, since simSub.add deduplicates
// by (stream, seq). The QUERY candidate-set semantics are exactly the
// serialized ones.
func (dc *DataCenter) handleQuery(msg *dht.Message, onLoop bool) {
	p := msg.Payload.(SimQuery)
	r := dc.mw.cfg.Replicas
	// Replica-aware read balancing: the first coverer of a query range
	// picks one of the R replicas by power-of-two-choices over the
	// gossiped load view and hands the query — middle key rewritten to the
	// chosen node so registration, aggregation and response pushes all
	// move with it — directly to that ring neighbor. A rewritten middle
	// key equal to the receiving node's own id marks the choice as already
	// made, so the handoff is applied at most once.
	if r > 1 && msg.Dir == 0 && msg.Mode == dht.RangeSequential && p.MiddleKey != dc.id {
		if rn, ok := dc.mw.net.(dht.Neighbors); ok {
			if off := dc.opRep.pickOffset(uint64(p.Q.ID)); off > 0 {
				if succs := rn.Successors(dc.id, off); len(succs) >= off {
					target := succs[off-1]
					c := msg.Clone()
					c.Payload = SimQuery{Q: p.Q, MiddleKey: target}
					rn.SendToNode(dc.id, target, sized(c))
					return
				}
			}
			// Offset 0 (or a successor list too short to jump): this node
			// is the chosen replica and aggregates locally.
			p = SimQuery{Q: p.Q, MiddleKey: dc.id}
			msg.Payload = p
			sized(msg)
		}
	}
	now := dc.mw.clk.Now()
	if now < p.Q.Expiry() {
		dc.subMu.Lock()
		sub := dc.subs[p.Q.ID]
		fresh := sub == nil
		if fresh {
			sub = newSimSub(p.Q, p.MiddleKey)
			dc.subs[p.Q.ID] = sub
		}
		dc.subMu.Unlock()
		if fresh {
			scratch, _ := dc.matchScratch.Get().(*[]query.Match)
			if scratch == nil {
				scratch = new([]query.Match)
			}
			*scratch = dc.store.AppendCandidates((*scratch)[:0], p.Q.Feature, p.Q.Radius, now, dc.id)
			found := len(*scratch) > 0
			sub.addAll(*scratch)
			dc.matchScratch.Put(scratch)
			if middle := dc.mw.net.Covers(dc.id, p.MiddleKey); middle || found {
				// Aggregators and routed sends belong to the loop, so a
				// worker hands both steps back in one post, installation
				// first. A post refused because the node is shutting down
				// costs the answer and nothing else; elsewhere on the ring
				// absorbOrRelay re-creates a missing aggregator from the
				// first notify item.
				step := func() {
					if middle {
						dc.installAggregator(p.Q.ID, p.Q.Origin, p.Q.Expiry())
					}
					dc.forwardCandidates(sub)
				}
				if onLoop {
					step()
				} else {
					dc.poster.Post(step)
				}
			}
		}
	}
	// A replicated deployment strides over the covering range: each landing
	// holds the skipped nodes' summaries as replicas.
	dht.ContinueRange(dc.mw.net, dc.id, msg, r)
}

// installAggregator makes this node the middle node of the query. Loop
// context.
func (dc *DataCenter) installAggregator(id query.ID, client dht.Key, expiry sim.Time) {
	if _, ok := dc.aggs[id]; !ok {
		dc.aggs[id] = newAggregator(id, client, expiry)
	}
}

// onNotify absorbs items destined for this node's aggregators and buffers
// the rest for the next relay period.
func (dc *DataCenter) onNotify(msg *dht.Message) {
	p := msg.Payload.(NotifyBatch)
	for _, item := range p.Items {
		dc.absorbOrRelay(item)
	}
}

// forwardCandidates moves a subscription's pending candidates to the
// query's middle node without waiting for the push period: absorbed on the
// spot when this node is the middle node, otherwise as one KindNotify
// routed by the middle key. Draining through takePending means the
// periodic flush never sends them again. Loop context.
func (dc *DataCenter) forwardCandidates(sub *simSub) {
	pending := sub.takePending()
	if len(pending) == 0 {
		return
	}
	item := NotifyItem{
		QueryID:   sub.q.ID,
		MiddleKey: sub.middleKey,
		ClientKey: sub.q.Origin,
		Expiry:    int64(sub.q.Expiry()),
		Matches:   pending,
	}
	if dc.mw.net.Covers(dc.id, sub.middleKey) {
		dc.absorbOrRelay(item)
		return
	}
	msg := sized(&dht.Message{Kind: KindNotify, Payload: NotifyBatch{Items: []NotifyItem{item}}})
	dc.mw.net.Send(dc.id, sub.middleKey, msg)
}

func (dc *DataCenter) absorbOrRelay(item NotifyItem) {
	now := dc.mw.clk.Now()
	if now >= dc.funnelDeadline(sim.Time(item.Expiry)) {
		return // stale query: drop
	}
	if dc.mw.net.Covers(dc.id, item.MiddleKey) {
		agg := dc.aggs[item.QueryID]
		if agg == nil {
			// Ring ownership shifted (churn), or a routed notify outran
			// the query multicast: adopt the aggregation duty; the item
			// carries everything needed.
			agg = newAggregator(item.QueryID, item.ClientKey, sim.Time(item.Expiry))
			dc.aggs[item.QueryID] = agg
		}
		agg.absorb(item.Matches)
		if !agg.delivered && len(agg.pending) > 0 {
			// The query's first match goes to the client now; from here
			// on the aggregator answers once per push period.
			dc.pushResponse(agg)
		}
		return
	}
	dc.relay = append(dc.relay, item)
}

// funnelDeadline is when the funnel stops moving a query's detections: one
// push period past its expiry, the grace the client's result table gives
// (resultTable.retireAt), so what a coverer matched in the query's last
// period still gets through.
func (dc *DataCenter) funnelDeadline(expiry sim.Time) sim.Time {
	return expiry + dc.mw.cfg.PushPeriod
}

// onLocGet answers a location-service lookup.
func (dc *DataCenter) onLocGet(msg *dht.Message) {
	p := msg.Payload.(LocGet)
	src, found := dc.locTable[p.StreamID]
	reply := sized(&dht.Message{Kind: KindLocReply, Payload: LocReply{StreamID: p.StreamID, Source: src, Found: found}})
	dc.mw.net.Send(dc.id, p.Requester, reply)
}

// onLocReply caches the resolution and dispatches the inner-product
// queries that were waiting for it.
func (dc *DataCenter) onLocReply(msg *dht.Message) {
	p := msg.Payload.(LocReply)
	waiting := dc.pendingIP[p.StreamID]
	delete(dc.pendingIP, p.StreamID)
	if !p.Found {
		dc.mw.failIP(waiting)
		return
	}
	dc.locCache[p.StreamID] = p.Source
	for _, q := range waiting {
		dc.sendIPSub(p.Source, q)
	}
}

func (dc *DataCenter) sendIPSub(source dht.Key, q *query.InnerProduct) {
	// A subscription on a locally sourced stream needs no network trip.
	if source == dc.id {
		dc.registerIPSub(q)
		return
	}
	msg := sized(&dht.Message{Kind: KindIPSub, Payload: IPSub{Q: q}})
	dc.mw.net.Send(dc.id, source, msg)
}

// onIPSub registers an inner-product subscription at the stream source.
func (dc *DataCenter) onIPSub(msg *dht.Message) {
	dc.registerIPSub(msg.Payload.(IPSub).Q)
}

func (dc *DataCenter) registerIPSub(q *query.InnerProduct) {
	if _, local := dc.streams[q.StreamID]; !local {
		dc.mw.failIP([]*query.InnerProduct{q})
		return
	}
	dc.ipSubs[q.ID] = &ipSubState{q: q}
}

// startTicker launches the periodic push/sweep process (NPER).
func (dc *DataCenter) startTicker() {
	period := dc.mw.cfg.PushPeriod
	phase := dc.mw.rng.UniformTime(0, period)
	dc.ticker = dc.mw.clk.EveryAfter(phase, period, dc.periodTick)
}

// periodTick runs once per push period: sweep the store (on the live node
// that only unlinks expired generations — no entry is copied on the loop),
// then run every operator's periodic slice —
// sweeping its soft state, funneling similarity information one hop toward
// middle nodes, pushing aggregated responses, inner-product values,
// subscription matches, sketch reports and frequency tables, and
// refreshing standing registrations — and last release the client-side
// dedup sets of queries expired for a push period.
func (dc *DataCenter) periodTick() {
	if !dc.alive() {
		dc.ticker.Stop()
		return
	}
	now := dc.mw.clk.Now()
	dc.store.Sweep(now)
	dc.engine.Tick(dc, now)
	dc.mw.retireResults(now)
}

// flushNotifies sends at most one KindNotify per ring direction, carrying
// the aggregated similarity information of all local subscriptions plus
// relayed items, one hop toward the respective middle nodes (§IV-F). The
// periodic per-direction message is sent whenever the node participates in
// at least one query range in that direction, matching the constant
// neighbor-exchange load component of Fig. 6(a).
func (dc *DataCenter) flushNotifies(now sim.Time) {
	var toSucc, toPred []NotifyItem
	dirSucc, dirPred := false, false

	bucket := func(item NotifyItem) {
		if dc.toSuccessor(item.MiddleKey) {
			toSucc = append(toSucc, item)
		} else {
			toPred = append(toPred, item)
		}
	}

	for _, item := range dc.relay {
		if now >= dc.funnelDeadline(sim.Time(item.Expiry)) {
			continue
		}
		bucket(item)
	}
	dc.relay = nil

	// The read lock keeps worker-side registrations out of the iteration;
	// per-subscription pending sets drain through their own mutex.
	dc.subMu.RLock()
	for id, sub := range dc.subs {
		if now >= sub.q.Expiry() {
			continue
		}
		pending := sub.takePending()
		if dc.mw.net.Covers(dc.id, sub.middleKey) {
			// This node is the middle node: its own candidates go
			// straight into the aggregator.
			if agg := dc.aggs[id]; agg != nil {
				agg.absorb(pending)
			}
			continue
		}
		// Participating in the range keeps the periodic heartbeat
		// flowing in this direction even with nothing detected.
		if dc.toSuccessor(sub.middleKey) {
			dirSucc = true
		} else {
			dirPred = true
		}
		if len(pending) == 0 {
			continue
		}
		bucket(NotifyItem{
			QueryID:   id,
			MiddleKey: sub.middleKey,
			ClientKey: sub.q.Origin,
			Expiry:    int64(sub.q.Expiry()),
			Matches:   pending,
		})
	}
	dc.subMu.RUnlock()

	if len(toSucc) > 0 || dirSucc {
		msg := sized(&dht.Message{Kind: KindNotify, Src: dc.id, SentAt: now, Payload: NotifyBatch{Items: toSucc}})
		dc.mw.net.SendToSuccessor(dc.id, msg)
	}
	if len(toPred) > 0 || dirPred {
		msg := sized(&dht.Message{Kind: KindNotify, Src: dc.id, SentAt: now, Payload: NotifyBatch{Items: toPred}})
		dc.mw.net.SendToPredecessor(dc.id, msg)
	}
}

// toSuccessor reports whether the middle key is reached faster clockwise.
func (dc *DataCenter) toSuccessor(middle dht.Key) bool {
	sp := dc.mw.net.Space()
	return sp.Distance(dc.id, middle) <= sp.Distance(middle, dc.id)
}

// pushResponses sends each aggregator's periodic response to its client,
// empty or not — one message per active query per period, so the response
// rate stays linearly proportional to the number of queries (§V). The one
// response outside this schedule is a query's first match, which
// absorbOrRelay pushes the moment it arrives.
//
// An expired aggregator answers only when it holds detections — what was
// pending at expiry, what arrives until the funnel deadline — and is
// deleted at that deadline.
func (dc *DataCenter) pushResponses(now sim.Time) {
	for id, agg := range dc.aggs {
		if now < agg.expiry || len(agg.pending) > 0 {
			dc.pushResponse(agg)
		}
		if now >= dc.funnelDeadline(agg.expiry) {
			delete(dc.aggs, id)
		}
	}
}

// pushResponse sends what the aggregator has collected since its last
// response to the client.
func (dc *DataCenter) pushResponse(agg *aggregator) {
	dc.mw.col.CountEvent(metrics.EventResponse)
	payload := ResponseMsg{QueryID: agg.queryID, Matches: agg.takePending()}
	if len(payload.Matches) > 0 {
		agg.delivered = true
	}
	if agg.client == dc.id {
		// Client co-located with the middle node: local delivery.
		dc.mw.deliverSimilarity(dc.id, payload)
		return
	}
	msg := sized(&dht.Message{Kind: KindResponse, Payload: payload})
	dc.mw.net.Send(dc.id, agg.client, msg)
}

// pushInnerProducts reconstructs each subscribed stream from its retained
// coefficients (inverse transform, Eq. 7) and pushes the weighted inner
// product to the client (§IV-D).
func (dc *DataCenter) pushInnerProducts(now sim.Time) {
	for id, st := range dc.ipSubs {
		ls := dc.streams[st.q.StreamID]
		if ls == nil {
			continue
		}
		// Hold the stream lock through reconstruction: Coeffs returns live
		// pipeline state a pool ingest may be advancing.
		ls.mu.Lock()
		if !ls.sdft.Full() {
			ls.mu.Unlock()
			continue
		}
		approx := dsp.Reconstruct(ls.sdft.Coeffs(), dc.mw.cfg.WindowSize)
		ls.mu.Unlock()
		var v float64
		for j, idx := range st.q.Index {
			if idx >= len(approx) {
				continue // window shorter than the index vector assumes
			}
			v += st.q.Weights[j] * approx[idx]
		}
		payload := IPResp{QueryID: id, Value: query.IPValue{Value: v, At: now, Approx: true}}
		if st.q.Origin == dc.id {
			dc.mw.deliverIP(dc.id, payload)
			continue
		}
		msg := sized(&dht.Message{Kind: KindIPResp, Payload: payload})
		dc.mw.net.Send(dc.id, st.q.Origin, msg)
	}
}
