package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamdex/internal/core"
	"streamdex/internal/dht"
	"streamdex/internal/dsp"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/stream"
	"streamdex/internal/summary"
	"streamdex/internal/transport"
)

// Parameters every live workload shares (ISSUE 12): an in-process ring of
// transport.Nodes on 127.0.0.1 TCP running the chord machine with the
// data-plane settings adidas-node resolves (one worker per CPU, four store
// shards per CPU).
const (
	liveNodes     = 8
	windowSize    = 256
	batchBeta     = 10
	dftCoeffs     = 3
	mbrLifespan   = 5 * sim.Second
	pushPeriod    = 100 * sim.Millisecond
	queryRadius   = 0.1
	queryLifespan = 5 * sim.Second
	adhocPerSec   = 20
	// peerQueueLen is each peer's outbound frame queue. adidas-node runs the
	// transport default of 512, which the saturating workload overflows a
	// few hundred times per run (a burst behind a GC pause is enough); a
	// dropped MBR frame is a missed detection, and a benchmark workload
	// must not fail operations. 4096 is what the repository's own
	// saturating smoke test (TestParallelLoopbackSmoke) runs with.
	peerQueueLen = 4096

	// warmup exceeds both the MBR and the ad-hoc query lifespan, so the
	// stores and the subscription tables are at steady size when the
	// measure window opens.
	warmup = 7 * time.Second
	// standingAt is when, inside the warm-up, a workload registers its
	// standing queries: the upcalls traced before it are the in-run
	// baseline for cqe.standing_match_us_per_mbr.
	standingAt = 2 * time.Second
	// standingLifespan outlives any run.
	standingLifespan = sim.Time(time.Hour / time.Microsecond)
	// A detection is *required* of the system only when its MBR closed
	// well inside the query's life: postMargin after the post and
	// settleMargin before the life — or the measure window — ends. Both
	// are sized for the saturated ring. A query there can take 0.7 s to
	// register at its coverers and produce a first answer, and the only
	// required detections ever missed (3 in 40 runs, with a margin of two
	// push periods) closed 204-228 ms after their query's post. At the
	// other end subscriptions and aggregators discard what is still in the
	// funnel at expiry, and the slowest detection seen took 0.94 s. Neither
	// start-up nor soft-state expiry is what recall is meant to judge.
	postMargin   = time.Second
	settleMargin = 2 * time.Second
	// answerTolerance separates required from forbidden answers around the
	// radius: sliding and direct DFT agree far closer than this.
	answerTolerance = 1e-6
)

// liveSpec is what distinguishes one live workload from another.
type liveSpec struct {
	name           string
	streamsPerNode int
	period         sim.Time
	standing       int
	// closedLoop: the streams tick as fast as the nodes re-arm them, so the
	// ingest rate is set by the CPU and is reported at the reference host
	// speed; a paced workload's rate is set by its timers and is not.
	closedLoop bool
}

// wireCounter forwards to the middleware's collector (so the node pays the
// same serialized accounting cost adidas-node pays) and keeps the totals
// in atomics: the collector itself cannot be read while the ring runs.
type wireCounter struct {
	inner       dht.Observer
	msgs, bytes atomic.Int64
}

func (w *wireCounter) OnTransmit(from, to dht.Key, msg *dht.Message) {
	w.msgs.Add(1)
	w.bytes.Add(int64(msg.Bytes))
	w.inner.OnTransmit(from, to, msg)
}

func (w *wireCounter) OnDeliver(at dht.Key, msg *dht.Message) { w.inner.OnDeliver(at, msg) }

// ring is one booted live cluster with its probes.
type ring struct {
	spec  liveSpec
	ids   []dht.Key
	nodes []*transport.Node
	mws   []*core.Middleware
	wires []*wireCounter

	probes      []*genProbe // flat: node*streamsPerNode + stream
	streamNames []string
	streamIndex map[string]int

	tracer *tracer // nil on untraced runs
}

func coreConfig(space dht.Space, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Space = space
	cfg.WindowSize = windowSize
	cfg.Coeffs = dftCoeffs
	cfg.FeatureDims = featureDims
	cfg.Norm = dsp.ZNorm
	cfg.Beta = batchBeta
	cfg.MBRLifespan = mbrLifespan
	cfg.PushPeriod = pushPeriod
	cfg.Seed = seed
	cfg.StoreShards = 4 * runtime.GOMAXPROCS(0)
	return cfg
}

// bootRing performs one complete set-up: listeners, ring creation and
// joins, convergence of every predecessor/successor pointer, one
// middleware per node, and stream registration with window prefill.
func bootRing(spec liveSpec, seed int64, traced bool) (*ring, error) {
	r := &ring{spec: spec, streamIndex: map[string]int{}}
	space := dht.NewSpace(32)
	// Equidistant identifiers keep every node's arc, and with it the number
	// of coverers per query, the same from seed to seed; the seed rotates
	// the ring against the feature space.
	arc := space.Size() / liveNodes
	offset := uint64(sim.NewRand(seed).Fork("bench-ring").Int63n(int64(arc)))
	for i := 0; i < liveNodes; i++ {
		id := space.Wrap(dht.Key(uint64(i)*arc + offset))
		tc := transport.DefaultConfig(id, "127.0.0.1:0")
		tc.Space = space
		tc.QueueLen = peerQueueLen
		n, err := transport.New(tc)
		if err != nil {
			r.close()
			return nil, err
		}
		r.ids = append(r.ids, id)
		r.nodes = append(r.nodes, n)
	}
	r.nodes[0].Create()
	for _, n := range r.nodes[1:] {
		if err := n.Join(r.nodes[0].Addr(), 10*time.Second); err != nil {
			r.close()
			return nil, err
		}
	}
	if err := r.awaitConvergence(30 * time.Second); err != nil {
		r.close()
		return nil, err
	}

	cfg := coreConfig(space, seed)
	for _, n := range r.nodes {
		var mw *core.Middleware
		var err error
		n.Do(func() {
			if mw, err = core.New(n, cfg); err != nil {
				return
			}
			wc := &wireCounter{inner: mw.Collector()}
			n.SetObserver(wc)
			r.wires = append(r.wires, wc)
		})
		if err != nil {
			r.close()
			return nil, err
		}
		r.mws = append(r.mws, mw)
	}

	walks := newWalks(seed, liveNodes, spec.streamsPerNode)
	for i := range r.nodes {
		for j := 0; j < spec.streamsPerNode; j++ {
			name := streamName(i, j)
			r.streamIndex[name] = len(r.probes)
			r.streamNames = append(r.streamNames, name)
			r.probes = append(r.probes, &genProbe{
				inner: walks[i][j], prefill: windowSize, beta: batchBeta,
				traceGaps: traced && j == 0,
			})
		}
	}
	if traced {
		r.tracer = newTracer(liveNodes, r.streamIndex)
		for i, n := range r.nodes {
			n.SetApp(r.ids[i], tracedApp{dc: r.mws[i].DataCenter(r.ids[i]), t: r.tracer, node: i})
		}
	}
	for i, n := range r.nodes {
		for j := 0; j < spec.streamsPerNode; j++ {
			p := r.probes[i*spec.streamsPerNode+j]
			st := stream.Stream{ID: streamName(i, j), Gen: p, Period: spec.period, Prefill: true}
			var err error
			n.Do(func() { err = r.mws[i].DataCenter(r.ids[i]).RegisterStream(st) })
			if err != nil {
				r.close()
				return nil, err
			}
		}
	}
	return r, nil
}

// awaitConvergence waits until every node's successor and predecessor are
// its true ring neighbors.
func (r *ring) awaitConvergence(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	n := len(r.nodes)
	for {
		ok := true
		for i, nd := range r.nodes {
			info := nd.Ring()
			if len(info.SuccList) == 0 || info.SuccList[0].ID != r.ids[(i+1)%n] ||
				info.Pred == nil || info.Pred.ID != r.ids[(i+n-1)%n] {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ring of %d nodes did not converge within %v", n, limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (r *ring) close() {
	for _, n := range r.nodes {
		n.Close()
	}
}

// setupCopies is how many times a run sets up, for the median.
const setupCopies = 3

// setUp boots setupCopies identical rings side by side and keeps the first.
// Each boot is timed on its own; the median is setup_s. Convergence is
// paced by the 500 ms stabilize timer rather than by CPU, so concurrent
// boots measure what sequential ones would at a third of the wall time.
func setUp(spec liveSpec, seed int64, traced bool) (*ring, sample, error) {
	rings := make([]*ring, setupCopies)
	errs := make([]error, setupCopies)
	times := make(sample, setupCopies)
	var wg sync.WaitGroup
	for c := 0; c < setupCopies; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start := time.Now()
			rings[c], errs[c] = bootRing(spec, seed, traced && c == 0)
			times[c] = time.Since(start).Seconds()
		}(c)
	}
	wg.Wait()
	for _, extra := range rings[1:] {
		if extra != nil {
			extra.close()
		}
	}
	for _, err := range errs {
		if err != nil {
			if rings[0] != nil {
				rings[0].close()
			}
			return nil, nil, err
		}
	}
	return rings[0], times, nil
}

// postedQuery is one query as the load generator issued it.
type postedQuery struct {
	id       query.ID
	feature  feature
	standing bool
	due      int64 // when the schedule said to post it
	posted   int64 // when PostSimilarity ran on the gateway's loop
	expire   int64 // end of the query's life on the benchmark clock
}

// answer is one OnSimilarity callback at the gateway.
type answer struct {
	id      query.ID
	at      int64
	matches []query.Match
}

// counters is a reading of every cumulative counter the run reports deltas
// of. The per-layer part is only taken on traced runs.
type counters struct {
	at      int64
	points  int64
	ru      rusage
	msgs    int64
	bytes   int64
	dropped int64

	layers *layerCounters
}

func (r *ring) points() int64 {
	var n int64
	for _, p := range r.probes {
		n += p.livePoints()
	}
	return n
}

func (r *ring) readCounters() counters {
	c := counters{at: nowNs(), points: r.points(), ru: readRusage()}
	for i, n := range r.nodes {
		c.msgs += r.wires[i].msgs.Load()
		c.bytes += r.wires[i].bytes.Load()
		c.dropped += n.Dropped()
	}
	if r.tracer != nil {
		c.layers = r.readLayerCounters()
	}
	return c
}

// gateway is the node every query is posted at. core.Middleware numbers
// queries with a per-middleware counter, so on a live ring two origins
// issue the same query.ID and a coverer's subscription table silently
// keeps only the first; posting everything at one node is how a client
// avoids that today (see README, "One gateway, and why").
const gateway = 0

// loadGen is the benchmark's one load-generator thread: it posts standing
// and ad-hoc similarity queries at the gateway on an open-loop schedule.
type loadGen struct {
	r       *ring
	rng     *sim.Rand
	jitter  *sim.Rand // where in its slot each ad-hoc query is due
	queries []postedQuery
	seen    map[query.ID]bool
}

// currentFeature reads the present feature of a random stream from the
// node sourcing it, so every query has streams nearby.
func (g *loadGen) currentFeature() summary.Feature {
	for {
		i := g.rng.Intn(liveNodes)
		j := g.rng.Intn(g.r.spec.streamsPerNode)
		var f summary.Feature
		g.r.nodes[i].Do(func() { f = g.r.mws[i].DataCenter(g.r.ids[i]).StreamFeature(streamName(i, j)) })
		if f != nil {
			return f
		}
	}
}

func (g *loadGen) post(f summary.Feature, due int64, lifespan sim.Time, standing bool) error {
	q := postedQuery{standing: standing, due: due}
	copy(q.feature[:], f)
	var err error
	g.r.nodes[gateway].Do(func() {
		q.posted = nowNs()
		q.id, err = g.r.mws[gateway].PostSimilarity(g.r.ids[gateway], f, queryRadius, lifespan)
		if t := g.r.tracer; t != nil {
			t.record(span{kind: spanPost, node: gateway, start: q.posted, end: nowNs(), query: uint64(q.id), stream: -1})
		}
	})
	if err != nil {
		return err
	}
	if g.seen[q.id] {
		return fmt.Errorf("query id %d issued twice", q.id)
	}
	g.seen[q.id] = true
	q.expire = q.posted + int64(lifespan)*int64(time.Microsecond)
	g.queries = append(g.queries, q)
	return nil
}

// run posts until stop: the standing set once at standingAt, and one ad-hoc
// query in every slot of 1/adhocPerSec from start, due at a seeded uniformly
// random instant of its slot. On a strict 50 ms grid the posts would keep
// one of two phases against the coverers' 100 ms push timers for a whole
// run, and the first-response median would be whatever those phases happened
// to be (it spread by 7-11 % between runs; with the jitter, by 2 %). Each
// ad-hoc feature is fetched right after the previous post, so the fetch is
// off the timed path.
func (g *loadGen) run(start, stop int64) error {
	gap := int64(time.Second) / adhocPerSec
	standingDue := start + int64(standingAt)
	standingDone := g.r.spec.standing == 0
	for k := int64(0); ; k++ {
		due := start + k*gap + g.jitter.Int63n(gap)
		if due >= stop {
			return nil
		}
		f := g.currentFeature()
		if !standingDone && due >= standingDue {
			standingDone = true
			for s := 0; s < g.r.spec.standing; s++ {
				if err := g.post(g.currentFeature(), nowNs(), standingLifespan, true); err != nil {
					return err
				}
			}
		}
		if wait := due - nowNs(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		if err := g.post(f, due, queryLifespan, false); err != nil {
			return err
		}
	}
}

// liveCapture is everything a finished live run hands to the evaluator.
type liveCapture struct {
	spec       liveSpec
	seed       int64
	setupTimes sample

	start, open, shut, end int64 // warm-up start, window open/shut, just before Close
	before, after          counters
	slowdown               float64 // of the host over the window, against the reference speed
	calBursts              int

	queries []postedQuery
	answers []answer
	empties int // callbacks that carried no new match

	closeAt     [][]int64 // per stream, emit time of each MBR-closing point
	tickGaps    []int64   // traced runs: gaps between successive generator calls, one stream per node
	liveCalls   []int64   // per stream, generator calls at close (prefill included)
	streamNames []string
	streamIndex map[string]int

	goroutines   int
	peakRSSMB    float64
	droppedTotal int64

	// Traced runs only: readings taken around Close, the resolved spans
	// and the delivered MBRs kept for the layer replays.
	final       *layerFinal
	spans       []span
	sampledMBRs []*summary.MBR
}

// runLive boots the workload, drives it for warmup + seconds and
// returns what was observed. The ring is closed before it returns.
func runLive(spec liveSpec, seed int64, seconds float64, traced bool) (*liveCapture, error) {
	r, setupTimes, err := setUp(spec, seed, traced)
	if err != nil {
		return nil, err
	}
	defer r.close()
	lc := &liveCapture{spec: spec, seed: seed, setupTimes: setupTimes,
		streamNames: r.streamNames, streamIndex: r.streamIndex}

	// Answers are logged on the gateway's loop and read after Close.
	r.nodes[gateway].Do(func() {
		r.mws[gateway].OnSimilarity = func(id query.ID, fresh []query.Match) {
			at := nowNs()
			if len(fresh) == 0 {
				lc.empties++
				return
			}
			lc.answers = append(lc.answers, answer{id: id, at: at, matches: fresh})
			if t := r.tracer; t != nil {
				t.record(span{kind: spanCallback, node: gateway, start: at, end: nowNs(),
					query: uint64(id), items: len(fresh), stream: -1})
			}
		}
	})

	lc.start = nowNs()
	lc.open = lc.start + int64(warmup)
	lc.shut = lc.open + int64(seconds*float64(time.Second))
	gen := &loadGen{r: r, rng: sim.NewRand(seed).Fork("bench-queries"),
		jitter: sim.NewRand(seed).Fork("bench-query-times"), seen: map[query.ID]bool{}}
	genErr := make(chan error, 1)
	go func() { genErr <- gen.run(lc.start, lc.shut) }()

	time.Sleep(time.Duration(lc.open - nowNs()))
	cal := startCalibrator()
	lc.before = r.readCounters()
	time.Sleep(time.Duration(lc.shut - nowNs()))
	lc.after = r.readCounters()
	cal.close()
	lc.slowdown, lc.calBursts = cal.slowdown(lc.before.at, lc.after.at)
	lc.goroutines = runtime.NumGoroutine()
	if err := <-genErr; err != nil {
		return nil, err
	}
	lc.end = nowNs()
	lc.peakRSSMB = readRusage().maxRSSMB
	for _, n := range r.nodes { // before Close: frames to a closing peer are not the run's drops
		lc.droppedTotal += n.Dropped()
	}
	if traced {
		lc.final = r.readLayerFinal()
	}
	r.close()

	lc.queries = gen.queries
	for _, p := range r.probes {
		lc.closeAt = append(lc.closeAt, p.closeAt)
		lc.liveCalls = append(lc.liveCalls, p.calls.Load())
		lc.tickGaps = append(lc.tickGaps, p.gaps...)
	}
	if traced {
		lc.final.finish(r, lc)
		// Root spans of the MBR requests the trace file keeps.
		for idx, closes := range lc.closeAt {
			for seq := 0; seq < len(closes); seq += mbrTraceEvery {
				r.tracer.record(span{kind: spanEmit, node: idx / spec.streamsPerNode, worker: true,
					start: closes[seq], end: closes[seq], stream: idx, seq: uint64(seq)})
			}
		}
		lc.spans = r.tracer.merged()
		resolve(lc.spans)
		lc.sampledMBRs = r.tracer.mbrs
	}
	return lc, nil
}
