package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"time"

	"streamdex/internal/clock"
	"streamdex/internal/core"
	"streamdex/internal/dht"
	"streamdex/internal/dsp"
	"streamdex/internal/metrics"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/stream"
	"streamdex/internal/summary"
	"streamdex/internal/transport"
	"streamdex/internal/wire"
)

// Per-layer numbers come from three places, all on the benchmark's side of
// the public boundary: cumulative counters the layers already export, read
// at both edges of the measure window (this file, layerCounters); the
// interposed spans (trace.go, aggregated in spanMetrics); and replays that
// drive one layer's public functions single-threaded on inputs recorded
// during the run (the replay* functions).

// layerCounters is one reading of the exported cumulative counters.
type layerCounters struct {
	loopBlockedNs []int64
	pool          []transport.PoolStats
	frames        int64
	flushes       int64
	arenaCarves   int64
	arenaRefills  int64
	storePuts     int64
	storeCow      int64
	storeLen      int
	stabilize     uint64
	mem           runtime.MemStats
	gcCPU, allCPU float64
}

var cpuSamples = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func (r *ring) readLayerCounters() *layerCounters {
	c := &layerCounters{}
	for i, n := range r.nodes {
		c.loopBlockedNs = append(c.loopBlockedNs, n.LoopStats().BlockedNs)
		c.pool = append(c.pool, n.PoolStats())
		fr, fl := n.WriteStats()
		c.frames += fr
		c.flushes += fl
		as := n.ArenaStats()
		c.arenaCarves += as.Carves
		c.arenaRefills += as.Refills
		store := r.mws[i].DataCenter(r.ids[i]).Store()
		puts, _ := store.Stats()
		c.storePuts += puts
		c.storeCow += store.SnapStats().CowCopied
		c.storeLen += store.Len()
		c.stabilize += n.RingStats().StabilizeRounds
	}
	runtime.ReadMemStats(&c.mem)
	s := append([]rtmetrics.Sample(nil), cpuSamples...)
	rtmetrics.Read(s)
	c.gcCPU, c.allCPU = s[0].Value.Float64(), s[1].Value.Float64()
	return c
}

// layerFinal is what can only be read once: high-water marks and ring
// tables just before Close, the collectors' reports just after.
type layerFinal struct {
	loopHighWater int
	longlinks     float64

	transmissions  [metrics.NumCategories]int64
	events         [metrics.NumEventTypes]int64
	hopSum, hopCnt float64
	collectorMsgs  int64
	counterMsgs    int64
}

func (r *ring) readLayerFinal() *layerFinal {
	f := &layerFinal{}
	for _, n := range r.nodes {
		if hw := n.LoopStats().HighWater; hw > f.loopHighWater {
			f.loopHighWater = hw
		}
		f.longlinks += float64(n.Ring().Fingers) / float64(len(r.nodes))
	}
	return f
}

// finish reads the per-node collectors. The ring is closed, so nothing
// writes to them any more.
func (f *layerFinal) finish(r *ring, lc *liveCapture) {
	for i, mw := range r.mws {
		rep := mw.Collector().Snapshot(sim.Time(lc.end/1e3), r.ids)
		for c, n := range rep.TotalByCategory {
			f.transmissions[c] += n
			f.collectorMsgs += n
		}
		for e, n := range rep.Events {
			f.events[e] += n
		}
		for h := range rep.HopCount {
			f.hopSum += rep.HopMean[h] * float64(rep.HopCount[h])
			f.hopCnt += float64(rep.HopCount[h])
		}
		f.counterMsgs += r.wires[i].msgs.Load()
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveLayers reports the counter- and span-derived per-layer metrics of a
// traced live run.
func liveLayers(lc *liveCapture, v *liveVerdict, spans []span, out *outcome) {
	a, b, f := lc.before.layers, lc.after.layers, lc.final
	secs := float64(lc.after.at-lc.before.at) / 1e9
	points := float64(lc.after.points - lc.before.points)

	var blockedMs float64
	for i := range b.loopBlockedNs {
		if d := float64(b.loopBlockedNs[i]-a.loopBlockedNs[i]) / 1e6; d > blockedMs {
			blockedMs = d
		}
	}
	out.add("host.slowdown", lc.slowdown, lc.calBursts)
	out.add("clock.loop_highwater", float64(f.loopHighWater), liveNodes)
	out.add("clock.loop_blocked_ms", blockedMs, liveNodes)

	var gaps sample
	period := float64(lc.spec.period) // µs
	for _, g := range lc.tickGaps {
		gaps = append(gaps, float64(g)/1e3-period)
	}
	gaps = gaps.sorted()
	out.add("clock.tick_lateness_us_p50", percentile(gaps, 0.50), len(gaps))
	out.add("clock.tick_lateness_us_p99", percentile(gaps, 0.99), len(gaps))

	out.add("wire.arena_hit_rate", 1-ratio(float64(b.arenaRefills-a.arenaRefills), float64(b.arenaCarves-a.arenaCarves)), int(b.arenaCarves-a.arenaCarves))

	var submitted, inline, poolBlockedNs int64
	for i := range b.pool {
		submitted += b.pool[i].Submitted - a.pool[i].Submitted
		inline += b.pool[i].Inline - a.pool[i].Inline
		poolBlockedNs += b.pool[i].BlockedNanos - a.pool[i].BlockedNanos
	}
	out.add("transport.frames_per_write", ratio(float64(b.frames-a.frames), float64(b.flushes-a.flushes)), int(b.flushes-a.flushes))
	out.add("transport.pool_inline_share", ratio(float64(inline), float64(inline+submitted)), int(inline+submitted))
	out.add("transport.pool_blocked_ms", float64(poolBlockedNs)/1e6, liveNodes)
	out.add("transport.dropped_frames", float64(v.dropped), 1)

	out.add("dht.msgs_per_point", ratio(float64(lc.after.msgs-lc.before.msgs), points), int(points))
	mbrs := float64(f.events[metrics.EventMBR])
	out.add("dht.mbr_range_legs_per_publish", ratio(float64(f.transmissions[metrics.MBRRange]), mbrs), int(mbrs))
	queries := float64(f.events[metrics.EventQuery])
	out.add("dht.query_range_legs_per_query", ratio(float64(f.transmissions[metrics.QueryRange]), queries), int(queries))
	out.add("dht.route_hops_mean", ratio(f.hopSum, f.hopCnt), int(f.hopCnt))

	puts := float64(b.storePuts - a.storePuts)
	out.add("core.store_cow_copied_per_put", ratio(float64(b.storeCow-a.storeCow), puts), int(puts))
	out.add("core.store_len_per_node", float64(a.storeLen+b.storeLen)/2/liveNodes, 2)

	out.add("overlay.stabilize_rounds_per_s", float64(b.stabilize-a.stabilize)/secs/liveNodes, int(b.stabilize-a.stabilize))
	out.add("overlay.longlinks", f.longlinks, liveNodes)

	out.add("runtime.alloc_bytes_per_point", ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), points), int(points))
	out.add("runtime.gc_cpu_share", ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU), int(b.mem.NumGC-a.mem.NumGC))
	out.add("runtime.gc_pause_ms_total", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6, int(b.mem.NumGC-a.mem.NumGC))
	out.add("runtime.goroutines", float64(lc.goroutines), 1)

	late := v.postLateness.sorted()
	out.add("loadgen.post_lateness_ms_p99", percentile(late, 0.99), len(late))

	spanMetrics(lc, spans, points, out)

	if f.collectorMsgs != f.counterMsgs {
		out.Correct = false
		out.notef("the collectors saw %d transmissions, the benchmark's observer %d", f.collectorMsgs, f.counterMsgs)
	}
}

// spanMetrics aggregates the interposed spans that fall inside the measure
// window.
func spanMetrics(lc *liveCapture, spans []span, points float64, out *outcome) {
	var sum, count [numSpanKinds]float64
	var busy, loopBusy float64
	var baseSum, baseCount float64 // MBR upcalls before the standing set existed
	var notifyItems, responses, emptyResponses float64
	type qtimes struct{ post, firstQuery, firstAnswer int64 }
	per := map[uint64]*qtimes{}
	at := func(id uint64) *qtimes {
		q := per[id]
		if q == nil {
			q = &qtimes{}
			per[id] = q
		}
		return q
	}
	baselineEnd := lc.start + int64(standingAt)
	for i := range spans {
		s := &spans[i]
		if s.kind == spanMBR && s.start < baselineEnd {
			baseSum += float64(s.dur())
			baseCount++
		}
		switch s.kind {
		case spanPost:
			at(s.query).post = s.start
		case spanQuery:
			if q := at(s.query); q.firstQuery == 0 {
				q.firstQuery = s.start
			}
		case spanResponse:
			if q := at(s.query); s.items > 0 && q.firstAnswer == 0 {
				q.firstAnswer = s.start
			}
		}
		if s.start < lc.open || s.start >= lc.shut {
			continue
		}
		sum[s.kind] += float64(s.dur())
		count[s.kind]++
		switch s.kind {
		case spanMBR, spanQuery, spanNotify, spanResponse, spanOther:
			busy += float64(s.self)
			if !s.worker {
				loopBusy += float64(s.self)
			}
		}
		switch s.kind {
		case spanNotify:
			notifyItems += float64(s.items)
		case spanResponse:
			responses++
			if s.items == 0 {
				emptyResponses++
			}
		}
	}
	us := func(k spanKind) float64 { return ratio(sum[k], count[k]) / 1e3 }
	out.add("core.deliver_mbr_us", us(spanMBR), int(count[spanMBR]))
	out.add("core.deliver_query_us", us(spanQuery), int(count[spanQuery]))
	out.add("core.deliver_notify_us", us(spanNotify), int(count[spanNotify]))
	out.add("core.deliver_response_us", us(spanResponse), int(count[spanResponse]))
	out.add("core.deliver_busy_s_per_mpoint", ratio(busy/1e9, points)*1e6, int(points))
	out.add("core.deliver_loop_share", ratio(loopBusy, busy), int(busy/1e3))
	standing := 0.0
	if lc.spec.standing > 0 {
		standing = us(spanMBR) - ratio(baseSum, baseCount)/1e3
	}
	out.add("cqe.standing_match_us_per_mbr", standing, int(baseCount))

	var route, funnel sample
	var posted float64
	for _, q := range per {
		if q.post < lc.open || q.post >= lc.shut {
			continue
		}
		posted++
		if q.firstQuery != 0 {
			route = append(route, msBetween(q.post, q.firstQuery))
		}
		if q.firstQuery != 0 && q.firstAnswer != 0 {
			funnel = append(funnel, msBetween(q.firstQuery, q.firstAnswer))
		}
	}
	out.add("query.route_ms", median(route), len(route))
	out.add("query.funnel_wait_ms", median(funnel), len(funnel))
	out.add("query.notify_relays_per_answer", ratio(notifyItems, responses-emptyResponses), int(responses-emptyResponses))
	out.add("query.responses_per_query", ratio(responses, posted), int(posted))
	out.add("query.empty_response_share", ratio(emptyResponses, responses), int(responses))
}

// --- replays ---------------------------------------------------------------

// sink keeps replayed results alive so the compiler cannot drop the calls.
var sink atomic.Uint64

func keep(v uint64) { sink.Add(v) }

// perOp times n iterations of fn and returns nanoseconds per iteration.
func perOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// replayInputs are the recorded inputs the layer replays run on.
type replayInputs struct {
	mbrs     []*summary.MBR
	queries  []summary.Feature
	storeLen int // steady-state entries per node during the run
	shards   int
}

// replayPipeline runs the public dsp and summary layers over a seeded random
// walk, timing them, and returns the MBRs they produce — the replay input
// of last resort for runs that delivered none (the simulator workload).
func replayPipeline(seed int64, out *outcome) []*summary.MBR {
	const points = 200_000
	walk := stream.DefaultRandomWalk(sim.NewRand(seed).Fork("replay-walk"))
	values := make([]float64, points)
	out.add("stream.randomwalk_next_ns", perOp(points, func(i int) { values[i] = walk.Next() }), points)

	sdft := dsp.NewSlidingDFT(windowSize, dftCoeffs)
	sdft.PushBatch(values[:windowSize])
	coeffs := make([][]complex128, 0, points-windowSize)
	out.add("dsp.push_ns", perOp(points-windowSize, func(i int) {
		sdft.Push(values[windowSize+i])
		coeffs = append(coeffs, sdft.NormalizedCoeffs(dsp.ZNorm))
	}), points-windowSize)

	var mbrs []*summary.MBR
	batcher := summary.NewBatcher("replay", batchBeta)
	out.add("summary.feature_batch_ns", perOp(len(coeffs), func(i int) {
		if b := batcher.Add(summary.FromCoeffs(coeffs[i], featureDims, true)); b != nil {
			mbrs = append(mbrs, b)
		}
	}), len(coeffs))

	mapper := summary.NewMapper(dht.NewSpace(32))
	out.add("summary.keyrange_ns", perOp(len(mbrs), func(i int) {
		lo, hi := mbrs[i].KeyRange(mapper)
		keep(uint64(lo ^ hi))
	}), len(mbrs))
	return mbrs
}

func replayClock(out *outcome) {
	w := clock.NewWall()
	var fires atomic.Int64
	start := time.Now()
	tk := w.EveryAfter(sim.Microsecond, sim.Microsecond, func() { fires.Add(1) })
	time.Sleep(200 * time.Millisecond)
	tk.Stop()
	elapsed := time.Since(start)
	w.Close()
	out.add("clock.tick_overhead_us", ratio(float64(elapsed.Microseconds()), float64(fires.Load()))-1, int(fires.Load()))
}

func replayWire(in replayInputs, out *outcome) {
	n := len(in.mbrs)
	msgs := make([]*dht.Message, n)
	for i, b := range in.mbrs {
		msgs[i] = &dht.Message{Kind: core.KindMBR, Key: 1, Src: 2, Payload: core.MBRUpdate{MBR: b}, Hops: 1}
	}
	frames := make([][]byte, n)
	buf := make([]byte, 0, 512)
	var bytes int
	out.add("wire.marshal_mbr_ns", perOp(n, func(i int) {
		b, err := wire.AppendMarshal(buf[:0], msgs[i])
		if err != nil {
			panic(err) // a recorded, once-delivered payload always packs
		}
		bytes += len(b)
		frames[i] = append([]byte(nil), b...)
	}), n)
	out.add("wire.mbr_frame_bytes", ratio(float64(bytes), float64(n)), n)

	arena := wire.NewArena(&wire.ArenaStats{})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	out.add("wire.unmarshal_mbr_ns", perOp(n, func(i int) {
		m, err := wire.UnmarshalArena(frames[i], arena)
		if err != nil {
			panic(err)
		}
		keep(uint64(m.Hops))
	}), n)
	runtime.ReadMemStats(&ms)
	out.add("wire.unmarshal_allocs_per_op", ratio(float64(ms.Mallocs-mallocs), float64(n)), n)

	qn := len(in.queries)
	out.add("wire.marshal_query_ns", perOp(qn*16, func(i int) {
		q := &query.Similarity{ID: query.ID(i), Origin: 3, Feature: in.queries[i%qn], Radius: queryRadius, Lifespan: queryLifespan}
		b, err := wire.AppendMarshal(buf[:0], &dht.Message{Kind: core.KindQuery, Payload: core.SimQuery{Q: q, MiddleKey: 7}, HasRange: true})
		if err != nil {
			panic(err)
		}
		keep(uint64(len(b)))
	}), qn*16)
}

// replayStore drives a sharded store at the run's steady-state size: each
// put is followed, every pushPeriod's worth of arrivals, by the sweep that
// expires as many entries as arrived.
func replayStore(in replayInputs, out *outcome) {
	store := core.NewShardedStore(in.shards)
	size := in.storeLen
	if size < 256 {
		size = 256
	}
	// Virtual time advances one tick per put and entries live `size`
	// ticks, so the store holds `size` entries once warm.
	var now sim.Time
	next := func(i int) *summary.MBR {
		c := *in.mbrs[i%len(in.mbrs)]
		c.Seq = uint64(i)
		c.Expiry = now + sim.Time(size)
		return &c
	}
	for i := 0; i < size; i++ {
		now++
		store.Put(next(i))
	}
	// One round is one push period of the run: lifespan/pushPeriod rounds
	// turn the store over once. Enough rounds for 20000 timed puts.
	perSweep := size * int(pushPeriod) / int(mbrLifespan)
	if perSweep < 1 {
		perSweep = 1
	}
	rounds := 20000/perSweep + 1
	var putNs, sweepNs time.Duration
	puts := 0
	for r := 0; r < rounds; r++ {
		batch := make([]*summary.MBR, perSweep)
		for k := range batch {
			now++
			batch[k] = next(size + puts + k)
		}
		start := time.Now()
		for _, b := range batch {
			store.Put(b)
		}
		putNs += time.Since(start)
		puts += perSweep
		start = time.Now()
		store.Sweep(now)
		sweepNs += time.Since(start)
	}
	out.add("core.store_put_ns", float64(putNs.Nanoseconds())/float64(puts), puts)
	out.add("core.store_sweep_ns", float64(sweepNs.Nanoseconds())/float64(rounds), rounds)

	_, scannedBefore := store.Stats()
	candidates := 0
	qn := len(in.queries)
	buf := make([]query.Match, 0, 1024)
	out.add("core.store_match_ns", perOp(qn*4, func(i int) {
		buf = store.AppendCandidates(buf[:0], in.queries[i%qn], queryRadius, now, 0)
		candidates += len(buf)
	}), qn*4)
	_, scannedAfter := store.Stats()
	out.add("core.store_scanned_per_candidate", ratio(float64(scannedAfter-scannedBefore), float64(candidates)), candidates)
}

// kindClassifier is a stand-in for core's unexported classifier with the
// same shape of work: a switch on the message kind.
type kindClassifier struct{}

func (kindClassifier) Classify(_ dht.Key, msg *dht.Message) metrics.Category {
	switch msg.Kind {
	case core.KindMBR:
		return metrics.MBRRange
	case core.KindQuery:
		return metrics.QueryRange
	case core.KindNotify:
		return metrics.NeighborNotify
	case core.KindResponse:
		return metrics.ResponseClient
	}
	return metrics.Other
}

func (kindClassifier) ClassifyHops(*dht.Message) metrics.HopClass { return metrics.HopOther }

func replayCollector(out *outcome) {
	col := metrics.NewCollector(kindClassifier{})
	msg := &dht.Message{Kind: core.KindMBR, Bytes: 150}
	const n = 1_000_000
	out.add("metrics.on_transmit_ns", perOp(n, func(i int) {
		col.OnTransmit(dht.Key(i%liveNodes), dht.Key((i+1)%liveNodes), msg)
	}), n)
}

// replayEngine pushes no-op events through the simulator's event heap at a
// standing population of the order of the 500-node run's (two tickers per
// node plus messages in flight).
func replayEngine(out *outcome) {
	eng := sim.NewEngine()
	const standing, n = 2000, 1_000_000
	rng := sim.NewRand(1)
	var fn func()
	fn = func() { eng.Schedule(sim.Time(1+rng.Intn(1000)), fn) }
	for i := 0; i < standing; i++ {
		eng.Schedule(sim.Time(rng.Intn(1000)), fn)
	}
	out.add("sim.event_ns", perOp(n, func(int) { eng.Step() }), n)
}

// replayLoopback pumps recorded MBR frames between two fresh transport
// nodes, in bursts small enough for the bounded peer queue.
func replayLoopback(in replayInputs, out *outcome) error {
	space := dht.NewSpace(32)
	ids := []dht.Key{1 << 20, 1 << 31}
	var nodes []*transport.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for _, id := range ids {
		tc := transport.DefaultConfig(id, "127.0.0.1:0")
		tc.Space = space
		n, err := transport.New(tc)
		if err != nil {
			return err
		}
		nodes = append(nodes, n)
	}
	var got atomic.Int64
	nodes[1].SetApp(ids[1], countingApp{&got})
	nodes[0].Create()
	if err := nodes[1].Join(nodes[0].Addr(), 10*time.Second); err != nil {
		return err
	}
	r := &ring{ids: ids, nodes: nodes}
	if err := r.awaitConvergence(30 * time.Second); err != nil {
		return err
	}
	const burst = 256
	total := 40 * burst
	start := time.Now()
	for sent := 0; sent < total; sent += burst {
		nodes[0].Do(func() {
			for k := 0; k < burst; k++ {
				b := in.mbrs[(sent+k)%len(in.mbrs)]
				nodes[0].Send(ids[0], ids[1], &dht.Message{Kind: core.KindMBR, Payload: core.MBRUpdate{MBR: b}})
			}
		})
		deadline := time.Now().Add(10 * time.Second)
		for got.Load() < int64(sent+burst) {
			if time.Now().After(deadline) {
				return fmt.Errorf("loopback pump stalled at %d of %d frames", got.Load(), sent+burst)
			}
			runtime.Gosched()
		}
	}
	out.add("transport.loopback_frames_per_s", float64(total)/time.Since(start).Seconds(), total)
	return nil
}

type countingApp struct{ n *atomic.Int64 }

func (a countingApp) Deliver(dht.Key, *dht.Message)          { a.n.Add(1) }
func (a countingApp) DeliverData(dht.Key, *dht.Message) bool { a.n.Add(1); return true }
