package core

import (
	"testing"

	"streamdex/internal/chord"
	"streamdex/internal/dht"
	_ "streamdex/internal/pastry" // register the pastry routing machine
	"streamdex/internal/sim"
	"streamdex/internal/stream"
	"streamdex/internal/summary"
)

// The middleware must run unmodified on every routing machine — the
// paper's portability claim (§II-B). These tests execute the same
// end-to-end scenario on the Pastry-style machine that middleware_test.go
// runs on Chord.

func pastryCluster(t *testing.T, n int, cfg Config) (*sim.Engine, *chord.Network, *Middleware, []dht.Key) {
	t.Helper()
	eng := sim.NewEngine()
	net := chord.New(eng, chord.Config{Space: cfg.Space, HopDelay: 50 * sim.Millisecond, SuccListLen: 4, Machine: "pastry"})
	ids := chord.SortKeys(chord.UniformIDs(cfg.Space, n))
	net.BuildStable(ids, nil)
	mw, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, net, mw, ids
}

func TestPlantedSimilarityOnPastry(t *testing.T) {
	cfg := testConfig()
	eng, net, mw, ids := pastryCluster(t, 12, cfg)

	twinA := stream.Stream{ID: "twinA", Gen: stream.DefaultRandomWalk(sim.NewRand(777)), Period: 100 * sim.Millisecond}
	twinB := stream.Stream{ID: "twinB", Gen: stream.DefaultRandomWalk(sim.NewRand(777)), Period: 100 * sim.Millisecond}
	if err := mw.DataCenter(ids[0]).RegisterStream(twinA); err != nil {
		t.Fatal(err)
	}
	if err := mw.DataCenter(ids[5]).RegisterStream(twinB); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(15 * sim.Second)

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
	if !matched["twinB"] || !matched["twinA"] {
		t.Fatalf("twins not matched on pastry substrate: %v", mw.MatchedStreams(qid))
	}
	if net.Dropped() != 0 {
		t.Fatalf("dropped %d messages on a stable pastry overlay", net.Dropped())
	}
}

func TestInnerProductOnPastry(t *testing.T) {
	cfg := testConfig()
	eng, _, mw, ids := pastryCluster(t, 10, cfg)
	st := stream.Stream{ID: "prices", Gen: stream.DefaultRandomWalk(sim.NewRand(3)), Period: 100 * sim.Millisecond}
	if err := mw.DataCenter(ids[2]).RegisterStream(st); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(8 * sim.Second)
	qid, err := mw.PostInnerProduct(ids[7], "prices", []int{0, 1}, []float64{0.5, 0.5}, 8*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(6 * sim.Second)
	if len(mw.InnerProductValues(qid)) == 0 {
		t.Fatal("no inner-product values via pastry location service")
	}
}

func TestSameResultsAcrossSubstrates(t *testing.T) {
	// The set of matched streams for a planted query must agree between
	// substrates: routing differs, delivery semantics do not.
	run := func(build func(cfg Config) (*sim.Engine, dht.Substrate, *Middleware, []dht.Key)) map[string]bool {
		cfg := testConfig()
		eng, _, mw, ids := build(cfg)
		for i, id := range ids {
			st := stream.Stream{
				ID:     streamName(i),
				Gen:    stream.DefaultRandomWalk(sim.NewRand(int64(100 + i))),
				Period: 100 * sim.Millisecond,
			}
			if err := mw.DataCenter(id).RegisterStream(st); err != nil {
				t.Fatal(err)
			}
		}
		eng.RunFor(12 * sim.Second)
		qid, err := mw.PostSimilarity(ids[0], summary.Feature{0, 0, 0}, 0.35, 15*sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		eng.RunFor(12 * sim.Second)
		out := map[string]bool{}
		for _, sid := range mw.MatchedStreams(qid) {
			out[sid] = true
		}
		return out
	}

	chordMatches := run(func(cfg Config) (*sim.Engine, dht.Substrate, *Middleware, []dht.Key) {
		eng, net, mw, ids := testClusterBare(t, 10, cfg)
		return eng, net, mw, ids
	})
	pastryMatches := run(func(cfg Config) (*sim.Engine, dht.Substrate, *Middleware, []dht.Key) {
		eng, net, mw, ids := pastryCluster(t, 10, cfg)
		return eng, net, mw, ids
	})
	if len(chordMatches) == 0 {
		t.Skip("no matches this seed")
	}
	for sid := range chordMatches {
		if !pastryMatches[sid] {
			t.Errorf("stream %s matched on chord but not pastry", sid)
		}
	}
	for sid := range pastryMatches {
		if !chordMatches[sid] {
			t.Errorf("stream %s matched on pastry but not chord", sid)
		}
	}
}

// testClusterBare builds a chord-backed middleware without streams.
func testClusterBare(t *testing.T, n int, cfg Config) (*sim.Engine, *chord.Network, *Middleware, []dht.Key) {
	t.Helper()
	eng := sim.NewEngine()
	net := chord.New(eng, chord.Config{Space: cfg.Space, HopDelay: 50 * sim.Millisecond, SuccListLen: 4})
	ids := chord.SortKeys(chord.UniformIDs(cfg.Space, n))
	net.BuildStable(ids, nil)
	mw, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, net, mw, ids
}
