package core

import (
	"math"
	"slices"
	"testing"

	"streamdex/internal/chord"
	"streamdex/internal/dht"
	"streamdex/internal/metrics"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/stream"
	"streamdex/internal/summary"
)

// testConfig shrinks the evaluation configuration so windows fill within a
// couple of simulated seconds.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.WindowSize = 32
	cfg.Coeffs = 3
	cfg.FeatureDims = 3
	cfg.Beta = 5
	cfg.MBRLifespan = 5 * sim.Second
	cfg.PushPeriod = sim.Second
	return cfg
}

// testCluster builds an N-node overlay with one random-walk stream per
// node (stream id "s<i>" at node ids[i]) and returns everything needed.
func testCluster(t *testing.T, n int, cfg Config, withMaintenance bool) (*sim.Engine, *chord.Network, *Middleware, []dht.Key) {
	t.Helper()
	eng := sim.NewEngine()
	ccfg := chord.Config{Space: cfg.Space, HopDelay: 50 * sim.Millisecond, SuccListLen: 4}
	if withMaintenance {
		ccfg.StabilizeEvery = 200 * sim.Millisecond
		ccfg.FixFingersEvery = 100 * sim.Millisecond
	}
	net := chord.New(eng, ccfg)
	ids := chord.SortKeys(chord.UniformIDs(cfg.Space, n))
	net.BuildStable(ids, nil)
	mw, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	root := sim.NewRand(cfg.Seed)
	for i, id := range ids {
		rng := root.Fork("walk-" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		st := stream.Stream{
			ID:     streamName(i),
			Gen:    stream.DefaultRandomWalk(rng),
			Period: 100*sim.Millisecond + sim.Time(i%5)*20*sim.Millisecond,
		}
		if err := mw.DataCenter(id).RegisterStream(st); err != nil {
			t.Fatal(err)
		}
	}
	return eng, net, mw, ids
}

func streamName(i int) string {
	return "s" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestMBRsStoredAtContentSuccessor(t *testing.T) {
	cfg := testConfig()
	eng, net, mw, ids := testCluster(t, 16, cfg, false)
	eng.RunFor(20 * sim.Second)

	total := 0
	for _, id := range ids {
		total += mw.DataCenter(id).Store().Len()
	}
	if total == 0 {
		t.Fatal("no MBRs stored anywhere after 20 s")
	}
	// Spot-check placement: every stored MBR must cover a key interval
	// that intersects its holder's responsibility.
	for _, id := range ids {
		dc := mw.DataCenter(id)
		for _, b := range dc.store.allEntries() {
			lo, hi := b.KeyRange(mw.Mapper())
			// The holder must cover some key in [lo,hi], or be the
			// MBR's own source (local copy). A node intersects the
			// arc iff it covers either boundary (successor(lo) and
			// successor(hi) both own part of it) or its identifier
			// lies inside [lo,hi].
			ok := net.Covers(id, lo) || net.Covers(id, hi) ||
				(uint64(id) >= uint64(lo) && uint64(id) <= uint64(hi))
			if !ok && !sourcesStream(dc, b.StreamID) {
				t.Fatalf("node %d holds MBR %v outside its arc [%d,%d]", id, b, lo, hi)
			}
		}
	}
}

func sourcesStream(dc *DataCenter, sid string) bool {
	_, ok := dc.streams[sid]
	return ok
}

func TestPlantedSimilarStreamIsFound(t *testing.T) {
	cfg := testConfig()
	eng, _, mw, ids := testCluster(t, 12, cfg, false)

	// Plant two identical streams at two different nodes: their features
	// coincide at all times, so each must be reported as similar to the
	// other's pattern.
	twinA := stream.Stream{ID: "twinA", Gen: stream.DefaultRandomWalk(sim.NewRand(777)), Period: 100 * sim.Millisecond}
	twinB := stream.Stream{ID: "twinB", Gen: stream.DefaultRandomWalk(sim.NewRand(777)), Period: 100 * sim.Millisecond}
	if err := mw.DataCenter(ids[0]).RegisterStream(twinA); err != nil {
		t.Fatal(err)
	}
	if err := mw.DataCenter(ids[5]).RegisterStream(twinB); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(15 * sim.Second) // windows fill, MBRs circulate

	f := mw.DataCenter(ids[0]).StreamFeature("twinA")
	if f == nil {
		t.Fatal("twinA feature not ready")
	}
	qid, err := mw.PostSimilarity(ids[9], f, 0.15, 30*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(15 * sim.Second)

	matched := map[string]bool{}
	for _, sid := range mw.MatchedStreams(qid) {
		matched[sid] = true
	}
	if !matched["twinB"] {
		t.Fatalf("twinB not reported; matched = %v", mw.MatchedStreams(qid))
	}
	if !matched["twinA"] {
		t.Fatalf("twinA itself not reported; matched = %v", mw.MatchedStreams(qid))
	}
}

func TestNoFalseDismissals(t *testing.T) {
	// Every stream whose feature is well inside the query radius at post
	// time (with margin for drift) must be reported.
	cfg := testConfig()
	eng, _, mw, ids := testCluster(t, 20, cfg, false)
	eng.RunFor(15 * sim.Second)

	q := summary.Feature{0, 0, 0}
	radius := 0.4
	margin := 0.25
	var mustFind []string
	for i, id := range ids {
		f := mw.DataCenter(id).StreamFeature(streamName(i))
		if f == nil {
			t.Fatalf("stream %s window not full", streamName(i))
		}
		if f.Dist(q) <= radius-margin {
			mustFind = append(mustFind, streamName(i))
		}
	}
	if len(mustFind) == 0 {
		t.Skip("no stream close enough to the probe this seed; adjust seed")
	}
	qid, err := mw.PostSimilarity(ids[0], q, radius, 20*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(10 * sim.Second)
	matched := map[string]bool{}
	for _, sid := range mw.MatchedStreams(qid) {
		matched[sid] = true
	}
	for _, sid := range mustFind {
		if !matched[sid] {
			t.Errorf("stream %s inside radius not reported (false dismissal)", sid)
		}
	}
}

func TestResponsesArrivePeriodically(t *testing.T) {
	cfg := testConfig()
	eng, _, mw, ids := testCluster(t, 10, cfg, false)
	eng.RunFor(10 * sim.Second)

	qid, err := mw.PostSimilarity(ids[2], summary.Feature{0.1, 0, 0}, 0.1, 12*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(20 * sim.Second)
	// Lifespan 12 s with 1 s push period: expect on the order of 12
	// responses (allow slack for phase and propagation).
	got := mw.ResponseCount(qid)
	if got < 8 || got > 14 {
		t.Fatalf("responses = %d, want ~12 (1/s for 12s)", got)
	}
	// No responses after expiry.
	before := mw.ResponseCount(qid)
	eng.RunFor(10 * sim.Second)
	if mw.ResponseCount(qid) != before {
		t.Fatal("responses kept arriving after query expiry")
	}
}

func TestSubscriptionsExpire(t *testing.T) {
	cfg := testConfig()
	eng, _, mw, ids := testCluster(t, 10, cfg, false)
	eng.RunFor(8 * sim.Second)
	if _, err := mw.PostSimilarity(ids[0], summary.Feature{0, 0, 0}, 0.2, 5*sim.Second); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(2 * sim.Second)
	subs := 0
	for _, id := range ids {
		subs += mw.DataCenter(id).SubCount()
	}
	if subs == 0 {
		t.Fatal("no subscriptions registered")
	}
	eng.RunFor(10 * sim.Second) // lifespan passed + sweep periods
	for _, id := range ids {
		if c := mw.DataCenter(id).SubCount(); c != 0 {
			t.Fatalf("node %d still holds %d subscriptions after expiry", id, c)
		}
		if len(mw.DataCenter(id).aggs) != 0 {
			t.Fatalf("node %d still holds aggregators after expiry", id)
		}
	}
}

func TestStoreBoundedByLifespan(t *testing.T) {
	cfg := testConfig()
	eng, _, mw, ids := testCluster(t, 10, cfg, false)
	eng.RunFor(30 * sim.Second)
	size1 := 0
	for _, id := range ids {
		size1 += mw.DataCenter(id).Store().Len()
	}
	eng.RunFor(30 * sim.Second)
	size2 := 0
	for _, id := range ids {
		size2 += mw.DataCenter(id).Store().Len()
	}
	// Soft state: the store reaches a steady state, it does not grow
	// without bound. Allow 50% slack for phase effects.
	if float64(size2) > 1.5*float64(size1)+5 {
		t.Fatalf("store grew from %d to %d; lifespan sweep not working", size1, size2)
	}
}

func TestInnerProductApproximatesAverage(t *testing.T) {
	cfg := testConfig()
	eng, _, mw, ids := testCluster(t, 10, cfg, false)
	eng.RunFor(10 * sim.Second)

	// Average of the most recent 8 window values of node 3's stream,
	// posted from node 7 (location service + remote subscription path).
	sid := streamName(3)
	idx := make([]int, 8)
	w := make([]float64, 8)
	for i := range idx {
		idx[i] = cfg.WindowSize - 8 + i
		w[i] = 1.0 / 8
	}
	qid, err := mw.PostInnerProduct(ids[7], sid, idx, w, 10*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(8 * sim.Second)

	vals := mw.InnerProductValues(qid)
	if len(vals) < 3 {
		t.Fatalf("inner-product pushes = %d, want several", len(vals))
	}
	// Ground truth: compare the last value against the exact average of
	// the source's current window. The reconstruction uses 3 of 17
	// coefficients of a smooth random walk, so demand agreement within
	// 15% of the window's value scale.
	window := mw.DataCenter(ids[3]).StreamWindow(sid)
	if window == nil {
		t.Fatal("source window unavailable")
	}
	var exact float64
	for i := cfg.WindowSize - 8; i < cfg.WindowSize; i++ {
		exact += window[i] / 8
	}
	got := vals[len(vals)-1].Value
	scale := math.Abs(exact) + 1
	if math.Abs(got-exact)/scale > 0.15 {
		t.Fatalf("approximate average %v vs exact %v", got, exact)
	}
	if !vals[0].Approx {
		t.Fatal("values must be flagged approximate")
	}
}

func TestInnerProductLocationCaching(t *testing.T) {
	cfg := testConfig()
	eng, _, mw, ids := testCluster(t, 10, cfg, false)
	eng.RunFor(8 * sim.Second)
	mw.Collector().Reset(eng.Now())

	sid := streamName(2)
	if _, err := mw.PostInnerProduct(ids[6], sid, []int{0}, []float64{1}, 5*sim.Second); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(3 * sim.Second)
	rep1 := mw.Collector().Snapshot(eng.Now(), ids)
	loc1 := rep1.TotalByCategory[metrics.Location]
	if loc1 == 0 {
		t.Fatal("first inner-product query generated no location traffic")
	}
	// A second query for the same stream from the same origin must use
	// the cache: zero additional location messages.
	mw.Collector().Reset(eng.Now())
	if _, err := mw.PostInnerProduct(ids[6], sid, []int{1}, []float64{1}, 5*sim.Second); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(3 * sim.Second)
	rep2 := mw.Collector().Snapshot(eng.Now(), ids)
	if rep2.TotalByCategory[metrics.Location] != 0 {
		t.Fatalf("cached resolution still sent %d location messages", rep2.TotalByCategory[metrics.Location])
	}
	if rep2.TotalByCategory[metrics.InnerProduct] == 0 {
		t.Fatal("second subscription sent no inner-product traffic")
	}
}

func TestInnerProductLocalStreamNoNetwork(t *testing.T) {
	cfg := testConfig()
	eng, _, mw, ids := testCluster(t, 8, cfg, false)
	eng.RunFor(8 * sim.Second)
	mw.Collector().Reset(eng.Now())
	// Query a stream at its own source node.
	sid := streamName(4)
	qid, err := mw.PostInnerProduct(ids[4], sid, []int{0}, []float64{1}, 5*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(4 * sim.Second)
	rep := mw.Collector().Snapshot(eng.Now(), ids)
	if rep.TotalByCategory[metrics.Location] != 0 || rep.TotalByCategory[metrics.InnerProduct] != 0 {
		t.Fatal("local subscription should produce no location or subscription traffic")
	}
	if len(mw.InnerProductValues(qid)) == 0 {
		t.Fatal("local subscription produced no values")
	}
}

func TestInnerProductUnknownStream(t *testing.T) {
	cfg := testConfig()
	eng, _, mw, ids := testCluster(t, 8, cfg, false)
	eng.RunFor(5 * sim.Second)
	qid, err := mw.PostInnerProduct(ids[0], "no-such-stream", []int{0}, []float64{1}, 5*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(3 * sim.Second)
	if !mw.InnerProductFailed(qid) {
		t.Fatal("query for unknown stream not marked failed")
	}
	if len(mw.InnerProductValues(qid)) != 0 {
		t.Fatal("values for unknown stream")
	}
}

func TestExtractFeatureMatchesStreamPipeline(t *testing.T) {
	cfg := testConfig()
	eng, _, mw, ids := testCluster(t, 8, cfg, false)
	eng.RunFor(10 * sim.Second)
	sid := streamName(1)
	dc := mw.DataCenter(ids[1])
	window := dc.StreamWindow(sid)
	want := dc.StreamFeature(sid)
	got, err := mw.ExtractFeature(window)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dist(want) > 1e-6 {
		t.Fatalf("query-side feature %v != stream-side %v", got, want)
	}
}

func TestExtractFeatureWrongLength(t *testing.T) {
	cfg := testConfig()
	_, _, mw, _ := testCluster(t, 4, cfg, false)
	if _, err := mw.ExtractFeature(make([]float64, 5)); err == nil {
		t.Fatal("wrong-length series accepted")
	}
}

func TestPostValidationErrors(t *testing.T) {
	cfg := testConfig()
	_, _, mw, ids := testCluster(t, 4, cfg, false)
	if _, err := mw.PostSimilarity(12345, summary.Feature{0, 0, 0}, 0.1, sim.Second); err == nil {
		t.Fatal("unknown origin accepted")
	}
	if _, err := mw.PostSimilarity(ids[0], summary.Feature{0, 0}, 0.1, sim.Second); err == nil {
		t.Fatal("wrong dimensionality accepted")
	}
	if _, err := mw.PostSimilarity(ids[0], summary.Feature{0, 0, 0}, -1, sim.Second); err == nil {
		t.Fatal("negative radius accepted")
	}
	if _, err := mw.PostInnerProduct(ids[0], "s", nil, nil, sim.Second); err == nil {
		t.Fatal("empty index vector accepted")
	}
	if _, err := mw.PostInnerProduct(54321, "s", []int{0}, []float64{1}, sim.Second); err == nil {
		t.Fatal("unknown origin accepted for inner product")
	}
}

func TestQueryAfterNodeFailure(t *testing.T) {
	cfg := testConfig()
	eng, net, mw, ids := testCluster(t, 14, cfg, true)
	eng.RunFor(10 * sim.Second)

	// Crash two nodes; the ring heals through stabilization and queries
	// posted afterwards are still answered from surviving replicas.
	net.Fail(ids[3])
	net.Fail(ids[8])
	eng.RunFor(15 * sim.Second)

	origin := ids[0]
	qid, err := mw.PostSimilarity(origin, summary.Feature{0, 0, 0}, 0.5, 20*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(15 * sim.Second)
	if mw.ResponseCount(qid) == 0 {
		t.Fatal("no responses after node failures")
	}
	if len(mw.MatchedStreams(qid)) == 0 {
		t.Fatal("no matches after node failures despite wide radius")
	}
}

func TestDeterministicCounters(t *testing.T) {
	run := func() ([metrics.NumCategories]int64, [metrics.NumEventTypes]int64) {
		cfg := testConfig()
		eng, _, mw, ids := testCluster(t, 12, cfg, false)
		eng.RunFor(8 * sim.Second)
		if _, err := mw.PostSimilarity(ids[1], summary.Feature{0.05, 0, 0}, 0.2, 10*sim.Second); err != nil {
			t.Fatal(err)
		}
		eng.RunFor(10 * sim.Second)
		rep := mw.Collector().Snapshot(eng.Now(), ids)
		return rep.TotalByCategory, rep.Events
	}
	c1, e1 := run()
	c2, e2 := run()
	if c1 != c2 {
		t.Fatalf("non-deterministic category totals:\n%v\n%v", c1, c2)
	}
	if e1 != e2 {
		t.Fatalf("non-deterministic event counts: %v vs %v", e1, e2)
	}
}

func TestClassifierCategories(t *testing.T) {
	cl := classifier{}
	cases := []struct {
		msg  dht.Message
		from dht.Key
		want metrics.Category
	}{
		{dht.Message{Kind: KindMBR, Src: 5, Hops: 1}, 5, metrics.MBRSource},
		{dht.Message{Kind: KindMBR, Src: 5, Hops: 2}, 7, metrics.MBRTransit},
		{dht.Message{Kind: KindMBR, Src: 5, Hops: 4, Dir: 1}, 7, metrics.MBRRange},
		{dht.Message{Kind: KindQuery, Src: 5, Hops: 1}, 5, metrics.QueryInitial},
		{dht.Message{Kind: KindQuery, Src: 5, Hops: 3}, 9, metrics.QueryTransit},
		{dht.Message{Kind: KindQuery, Src: 5, Hops: 3, Dir: -1}, 9, metrics.QueryRange},
		{dht.Message{Kind: KindNotify, Src: 5, Hops: 1}, 5, metrics.NeighborNotify},
		{dht.Message{Kind: KindNotify, Src: 5, Hops: 2}, 8, metrics.ResponseTransit},
		{dht.Message{Kind: KindResponse, Src: 5, Hops: 1}, 5, metrics.ResponseClient},
		{dht.Message{Kind: KindResponse, Src: 5, Hops: 2}, 8, metrics.ResponseTransit},
		{dht.Message{Kind: KindLocGet, Src: 5, Hops: 1}, 5, metrics.Location},
		{dht.Message{Kind: KindIPSub, Src: 5, Hops: 1}, 5, metrics.InnerProduct},
		{dht.Message{Kind: 99, Src: 5, Hops: 1}, 5, metrics.Other},
	}
	for i, c := range cases {
		if got := cl.Classify(c.from, &c.msg); got != c.want {
			t.Errorf("case %d: Classify = %v, want %v", i, got, c.want)
		}
	}
}

func TestClassifierHopClasses(t *testing.T) {
	cl := classifier{}
	cases := []struct {
		msg  dht.Message
		want metrics.HopClass
	}{
		{dht.Message{Kind: KindMBR}, metrics.HopMBR},
		{dht.Message{Kind: KindMBR, Dir: 1}, metrics.HopMBRInternal},
		{dht.Message{Kind: KindQuery}, metrics.HopQuery},
		{dht.Message{Kind: KindQuery, Dir: -1}, metrics.HopQueryInternal},
		{dht.Message{Kind: KindResponse}, metrics.HopResponse},
		{dht.Message{Kind: KindIPResp}, metrics.HopResponse},
		{dht.Message{Kind: KindNotify}, metrics.HopOther},
	}
	for i, c := range cases {
		if got := cl.ClassifyHops(&c.msg); got != c.want {
			t.Errorf("case %d: ClassifyHops = %v, want %v", i, got, c.want)
		}
	}
}

func TestMiddlewareSpaceMismatch(t *testing.T) {
	eng := sim.NewEngine()
	net := chord.New(eng, chord.Config{Space: dht.NewSpace(16), SuccListLen: 2})
	net.BuildStable([]dht.Key{1, 100}, nil)
	cfg := testConfig() // m = 32
	if _, err := New(net, cfg); err == nil {
		t.Fatal("space mismatch accepted")
	}
}

func TestDuplicateStreamRejected(t *testing.T) {
	cfg := testConfig()
	_, _, mw, ids := testCluster(t, 4, cfg, false)
	dc := mw.DataCenter(ids[0])
	st := stream.Stream{ID: "dup", Gen: stream.DefaultRandomWalk(sim.NewRand(1)), Period: sim.Second}
	if err := dc.RegisterStream(st); err != nil {
		t.Fatal(err)
	}
	if err := dc.RegisterStream(st); err == nil {
		t.Fatal("duplicate stream accepted")
	}
}

// TestResultTablesChunkedAndRetired pins the gateway result tables: every
// delivery's never-before-reported matches become one chunk that is handed
// to OnSimilarity and kept as is (never copied, written to or reused);
// SimilarityMatches / MatchedStreams concatenate the chunks on demand; the
// dedup set is released one push period after the query's expiry, and a
// delivery arriving later still — or for a query never posted here — is
// counted late instead of re-creating it. Subscriptions go the same way.
func TestResultTablesChunkedAndRetired(t *testing.T) {
	cfg := testConfig()
	eng, _, mw, ids := testCluster(t, 4, cfg, false)
	var handed [][]query.Match
	mw.OnSimilarity = func(_ query.ID, fresh []query.Match) { handed = append(handed, fresh) }

	qid, err := mw.PostSimilarity(ids[0], summary.Feature{0, 0, 0}, 0.01, 3*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	m := func(sid string, seq uint64) query.Match { return query.Match{StreamID: sid, Seq: seq} }
	first := []query.Match{m("a", 1), m("a", 2), m("b", 1)}
	mw.deliverSimilarity(ids[0], ResponseMsg{QueryID: qid, Matches: first})
	mw.deliverSimilarity(ids[0], ResponseMsg{QueryID: qid, Matches: []query.Match{m("a", 2), m("c", 7)}})
	mw.deliverSimilarity(ids[0], ResponseMsg{QueryID: qid, Matches: []query.Match{m("a", 1)}})
	if len(handed) != 3 || len(handed[0]) != 3 || len(handed[1]) != 1 || handed[1][0] != m("c", 7) || handed[2] != nil {
		t.Fatalf("OnSimilarity was handed %v, want the fresh matches of each delivery", handed)
	}
	first[0] = m("overwritten", 0) // the payload slice is the caller's
	want := []query.Match{m("a", 1), m("a", 2), m("b", 1), m("c", 7)}
	if got := mw.SimilarityMatches(qid); !slices.Equal(got, want) {
		t.Fatalf("SimilarityMatches = %v, want %v", got, want)
	}
	if got := mw.MatchedStreams(qid); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("MatchedStreams = %v", got)
	}
	// The chunks the callback received are the table's own: same backing
	// arrays, still intact after later deliveries.
	if r := mw.simResults[qid]; len(r.chunks) != 2 || &r.chunks[0][0] != &handed[0][0] || &r.chunks[1][0] != &handed[1][0] {
		t.Fatal("result table copied the chunks it handed to OnSimilarity")
	}
	if !slices.Equal(handed[0], want[:3]) {
		t.Fatalf("a chunk handed to OnSimilarity changed afterwards: %v", handed[0])
	}

	sid, err := mw.PostSubscription(ids[0], summary.Feature{-1, -1, -1}, summary.Feature{1, 1, 1}, 3*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	mw.deliverSubMatch(SubMatchMsg{SubID: sid, Matches: []query.Match{m("zz", 1), m("zz", 1), m("zy", 1)}})
	if got := mw.SubscribedStreams(sid); !slices.Equal(got, []string{"zy", "zz"}) {
		t.Fatalf("SubscribedStreams = %v", got)
	}

	// Up to one push period past expiry the tables still deduplicate...
	eng.RunFor(3*sim.Second + cfg.PushPeriod/2)
	if mw.simResults[qid].seen == nil || mw.subResults[sid].seen == nil {
		t.Fatal("dedup set released before the query had been expired for a push period")
	}
	late := mw.LateDeliveries()
	mw.deliverSimilarity(ids[0], ResponseMsg{QueryID: qid, Matches: []query.Match{m("a", 1), m("d", 1)}})
	if got := len(mw.SimilarityMatches(qid)); got != 5 || mw.LateDeliveries() != late {
		t.Fatalf("a response half a period after expiry: %d matches, %d late", got, mw.LateDeliveries()-late)
	}
	// ...after that they are released, and stragglers are counted late.
	eng.RunFor(2 * cfg.PushPeriod)
	if mw.simResults[qid].seen != nil || mw.subResults[sid].seen != nil || len(mw.open) != 0 {
		t.Fatalf("dedup sets not released two periods past expiry (%d tables open)", len(mw.open))
	}
	mw.deliverSimilarity(ids[0], ResponseMsg{QueryID: qid, Matches: []query.Match{m("e", 1)}})
	mw.deliverSimilarity(ids[0], ResponseMsg{QueryID: qid + 1000, Matches: []query.Match{m("e", 1)}})
	mw.deliverSubMatch(SubMatchMsg{SubID: sid, Matches: []query.Match{m("e", 1)}})
	if got := mw.LateDeliveries() - late; got != 3 {
		t.Fatalf("%d deliveries counted late, want 3", got)
	}
	if got := len(mw.SimilarityMatches(qid)); got != 5 {
		t.Fatalf("a late response changed the results: %d matches", got)
	}
	if got := mw.SimilarityMatches(qid + 1000); got != nil {
		t.Fatalf("a response for a query never posted here created results: %v", got)
	}
	if handed[len(handed)-1] != nil {
		t.Fatalf("OnSimilarity was handed the matches of a late response: %v", handed[len(handed)-1])
	}
}
