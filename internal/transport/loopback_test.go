package transport_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"streamdex/internal/chord"
	"streamdex/internal/core"
	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/stream"
	"streamdex/internal/summary"
	"streamdex/internal/transport"
)

// The loopback integration test: boot a real cluster of TCP nodes on
// ephemeral 127.0.0.1 ports, run the full middleware on it (streams,
// MBR publication, a similarity query, the notify/response cycle), and
// check the client's matched-stream set against the simulator running the
// identical configuration.
//
// The workload is engineered so the matched set is a function of the data
// alone, never of timing: every stream is a noiseless sinusoid whose
// period divides the window size, so its feature vector rotates on a
// circle of constant norm as the window slides. "In-band" streams
// (period = window) put all their energy in DFT bin 1 — retained — giving
// a feature norm far above the query radius at every instant; "out-of-band"
// streams (period = window/4) put it in bin 4 — discarded — giving a
// feature that is identically zero. A query for the zero vector with an
// in-between radius therefore matches exactly the out-of-band streams, on
// the simulator and on the sockets alike, regardless of scheduling.

const (
	nNodes   = 5
	nStreams = 6
)

func clusterConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.WindowSize = 16
	cfg.Coeffs = 3
	cfg.FeatureDims = 4 // 2*(Coeffs-1) under ZNorm
	cfg.Beta = 2
	cfg.MBRLifespan = 60 * sim.Second
	cfg.PushPeriod = 250 * sim.Millisecond
	cfg.Seed = 7
	return cfg
}

// nodeIDs spreads the nodes evenly over the 32-bit ring.
func nodeIDs(space dht.Space) []dht.Key {
	ids := make([]dht.Key, nNodes)
	for i := range ids {
		ids[i] = space.Wrap(dht.Key(uint64(i)*space.Size()/nNodes + 12345))
	}
	return ids
}

// clusterStreams builds the test workload: stream i lives on node i%nNodes;
// odd streams are out-of-band (they must match), even ones in-band.
func clusterStreams() []stream.Stream {
	out := make([]stream.Stream, nStreams)
	for i := range out {
		period := 16.0 // in-band: all energy in retained bin 1
		if i%2 == 1 {
			period = 4.0 // out-of-band: all energy in discarded bin 4
		}
		out[i] = stream.Stream{
			ID:     fmt.Sprintf("s%d", i),
			Gen:    stream.NewSine(nil, 3, period, 10, 0),
			Period: 20 * sim.Millisecond,
		}
	}
	return out
}

func wantMatched() []string {
	var want []string
	for i := 0; i < nStreams; i++ {
		if i%2 == 1 {
			want = append(want, fmt.Sprintf("s%d", i))
		}
	}
	return want
}

// simMatchedStreams runs the workload on the simulator and returns the
// sorted matched-stream set of the query.
func simMatchedStreams(t *testing.T, cfg core.Config) []string {
	t.Helper()
	eng := sim.NewEngine()
	net := chord.New(eng, chord.Config{
		Space:       cfg.Space,
		HopDelay:    50 * sim.Millisecond,
		SuccListLen: 4,
	})
	ids := nodeIDs(cfg.Space)
	sorted := append([]dht.Key(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	net.BuildStable(sorted, nil)
	mw, err := core.New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range clusterStreams() {
		if err := mw.DataCenter(ids[i%nNodes]).RegisterStream(st); err != nil {
			t.Fatal(err)
		}
	}
	// Let windows fill and MBRs publish, then query.
	eng.RunFor(2 * sim.Second)
	zero := make(summary.Feature, cfg.FeatureDims)
	qid, err := mw.PostSimilarity(ids[0], zero, 0.3, 60*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(10 * sim.Second)
	got := mw.MatchedStreams(qid)
	sort.Strings(got)
	return got
}

// liveCluster boots nNodes transport nodes, joins them into one ring and
// waits for convergence. Each node carries its own middleware.
func liveCluster(t *testing.T, cfg core.Config) ([]*transport.Node, []*core.Middleware) {
	t.Helper()
	ids := nodeIDs(cfg.Space)
	nodes := make([]*transport.Node, nNodes)
	for i, id := range ids {
		tc := transport.DefaultConfig(id, "127.0.0.1:0")
		tc.Space = cfg.Space
		tc.StabilizeEvery = 50_000 // 50 ms: converge fast in a test
		tc.FixFingersEvery = 50_000
		tc.SuccListLen = 4
		n, err := transport.New(tc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		nodes[i] = n
	}
	nodes[0].Create()
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Addr(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	waitRingConverged(t, nodes, ids)

	mws := make([]*core.Middleware, nNodes)
	for i, n := range nodes {
		var err error
		n.Do(func() { mws[i], err = core.New(n, cfg) })
		if err != nil {
			t.Fatal(err)
		}
	}
	return nodes, mws
}

// waitRingConverged polls until every node's successor and predecessor
// match the ideal ring over ids. Takes testing.TB so the loopback
// throughput benchmark shares it.
func waitRingConverged(t testing.TB, nodes []*transport.Node, ids []dht.Key) {
	t.Helper()
	sorted := append([]dht.Key(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pos := make(map[dht.Key]int, len(sorted))
	for i, id := range sorted {
		pos[id] = i
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		converged := true
		for _, n := range nodes {
			info := n.Ring()
			i := pos[info.Self.ID]
			wantSucc := sorted[(i+1)%len(sorted)]
			wantPred := sorted[(i+len(sorted)-1)%len(sorted)]
			if len(info.SuccList) == 0 || info.SuccList[0].ID != wantSucc ||
				info.Pred == nil || info.Pred.ID != wantPred {
				converged = false
				break
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			for _, n := range nodes {
				t.Logf("ring state: %+v", n.Ring())
			}
			t.Fatal("ring did not converge within 15s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestLoopbackClusterMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock integration test")
	}
	cfg := clusterConfig()

	simSet := simMatchedStreams(t, cfg)
	want := wantMatched()
	if fmt.Sprint(simSet) != fmt.Sprint(want) {
		t.Fatalf("simulator matched %v, want %v (workload invariant broken)", simSet, want)
	}

	nodes, mws := liveCluster(t, cfg)
	ids := nodeIDs(cfg.Space)

	// Register the same streams on the same nodes.
	registerClusterStreams(t, nodes, mws, ids)
	// Windows fill in WindowSize*Period = 320 ms; leave margin.
	time.Sleep(1 * time.Second)

	// Post the same query at the same origin node.
	var qid query.ID
	var qerr error
	zero := make(summary.Feature, cfg.FeatureDims)
	nodes[0].Do(func() {
		qid, qerr = mws[0].PostSimilarity(ids[0], zero, 0.3, 60*sim.Second)
	})
	if qerr != nil {
		t.Fatal(qerr)
	}

	// Matches relay one ring hop per push period toward the middle node,
	// then flow back to the client; poll until the live set equals the
	// simulator's or time runs out.
	deadline := time.Now().Add(20 * time.Second)
	var got []string
	for {
		nodes[0].Do(func() { got = mws[0].MatchedStreams(qid) })
		sort.Strings(got)
		if fmt.Sprint(got) == fmt.Sprint(simSet) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live cluster matched %v, simulator matched %v", got, simSet)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The client must also have received periodic responses (the paper's
	// continuous-query contract), not a single burst.
	var responses int
	nodes[0].Do(func() { responses = mws[0].ResponseCount(qid) })
	if responses == 0 {
		t.Error("client saw matches but no periodic responses were counted")
	}

	// No node should have dropped data-plane traffic in a healthy run.
	for i, n := range nodes {
		if d := n.Dropped(); d > 0 {
			t.Logf("node %d dropped %d frames (non-fatal: early-route races)", i, d)
		}
	}
}

// TestRingConvergence is the cheap smoke version: five nodes, no
// middleware, just ring formation.
func TestRingConvergence(t *testing.T) {
	space := dht.NewSpace(16)
	ids := []dht.Key{100, 9000, 21000, 40000, 61000}
	nodes := make([]*transport.Node, len(ids))
	for i, id := range ids {
		tc := transport.DefaultConfig(id, "127.0.0.1:0")
		tc.Space = space
		tc.StabilizeEvery = 30_000
		tc.FixFingersEvery = 30_000
		n, err := transport.New(tc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		nodes[i] = n
	}
	nodes[0].Create()
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Addr(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	waitRingConverged(t, nodes, ids)
}
