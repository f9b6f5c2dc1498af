package streamdex

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"streamdex/internal/sim"
	"streamdex/internal/stream"
)

// smallOpts keeps facade tests fast: short windows fill in seconds.
func smallOpts() ClusterOptions {
	return ClusterOptions{
		Nodes:       12,
		WindowSize:  32,
		BatchFactor: 5,
		PushPeriod:  time.Second,
		Seed:        3,
	}
}

func TestNewClusterDefaults(t *testing.T) {
	c, err := NewCluster(ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes()) != 16 {
		t.Fatalf("default nodes = %d", len(c.Nodes()))
	}
	if c.WindowSize() != 4096 {
		t.Fatalf("default window = %d", c.WindowSize())
	}
}

func TestNewClusterRejectsTiny(t *testing.T) {
	if _, err := NewCluster(ClusterOptions{Nodes: 1}); err == nil {
		t.Fatal("1-node cluster accepted")
	}
}

func TestEndToEndSimilarity(t *testing.T) {
	c, err := NewCluster(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.Nodes()
	// Two identical streams planted at different nodes.
	for i, node := range []NodeID{nodes[0], nodes[7]} {
		name := []string{"a", "b"}[i]
		gen := stream.DefaultRandomWalk(sim.NewRand(99))
		if err := c.AddStreamPrefilled(node, "twin-"+name, gen, 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(10 * time.Second)

	qid, err := c.SimilarityQueryToStream(nodes[0], "twin-a", 0.15, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(15 * time.Second)
	found := map[string]bool{}
	for _, sid := range c.MatchedStreams(qid) {
		found[sid] = true
	}
	if !found["twin-b"] {
		t.Fatalf("planted twin not found; matched %v", c.MatchedStreams(qid))
	}
}

func TestEndToEndSimilarityWithRawPattern(t *testing.T) {
	c, err := NewCluster(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.Nodes()
	gen := stream.NewSine(nil, 2, 16, 10, 0)
	if err := c.AddStreamPrefilled(nodes[2], "wave", gen, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	c.Run(8 * time.Second)
	// Query with an identical sine pattern, generated independently.
	pat := make([]float64, c.WindowSize())
	pgen := stream.NewSine(nil, 2, 16, 10, 0)
	for i := range pat {
		pat[i] = pgen.Next()
	}
	qid, err := c.SimilarityQuery(nodes[9], pat, 0.2, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Second)
	found := false
	for _, sid := range c.MatchedStreams(qid) {
		if sid == "wave" {
			found = true
		}
	}
	if !found {
		t.Fatalf("sine stream not matched by its own pattern; got %v", c.MatchedStreams(qid))
	}
}

func TestEndToEndAverageQuery(t *testing.T) {
	c, err := NewCluster(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.Nodes()
	gen := stream.DefaultRandomWalk(sim.NewRand(5))
	if err := c.AddStreamPrefilled(nodes[4], "prices", gen, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Second)
	qid, err := c.AverageQuery(nodes[8], "prices", 8, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(8 * time.Second)
	vals := c.Values(qid)
	if len(vals) < 2 {
		t.Fatalf("got %d values, want several periodic pushes", len(vals))
	}
	// Random walk around 500: the average must be in a plausible band.
	v := vals[len(vals)-1].Value
	if math.IsNaN(v) || v < 0 || v > 1000 {
		t.Fatalf("implausible average %v", v)
	}
}

func TestCallbacks(t *testing.T) {
	c, err := NewCluster(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.Nodes()
	gen := stream.DefaultRandomWalk(sim.NewRand(5))
	if err := c.AddStreamPrefilled(nodes[0], "s", gen, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Second)
	simCalls, ipCalls := 0, 0
	c.OnSimilarity(func(QueryID, []Match) { simCalls++ })
	c.OnInnerProduct(func(QueryID, IPValue) { ipCalls++ })
	if _, err := c.SimilarityQueryToStream(nodes[0], "s", 0.3, 8*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AverageQuery(nodes[3], "s", 4, 8*time.Second); err != nil {
		t.Fatal(err)
	}
	c.Run(8 * time.Second)
	if simCalls == 0 || ipCalls == 0 {
		t.Fatalf("callbacks: sim=%d ip=%d", simCalls, ipCalls)
	}
}

func TestStatsAndReset(t *testing.T) {
	c, err := NewCluster(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.Nodes()
	gen := stream.DefaultRandomWalk(sim.NewRand(5))
	if err := c.AddStreamPrefilled(nodes[0], "s", gen, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Second)
	s := c.Stats()
	if s.MBRs == 0 || s.MessagesPerNodePerSecond <= 0 {
		t.Fatalf("stats empty: %+v", s)
	}
	c.ResetStats()
	s2 := c.Stats()
	if s2.MBRs != 0 {
		t.Fatalf("reset did not clear events: %+v", s2)
	}
}

// TestChurnSurvivesFailure: on each ring machine with membership
// dynamics, crashed nodes are repaired around and a planted twin is still
// found afterwards.
func TestChurnSurvivesFailure(t *testing.T) {
	for _, machine := range []string{"chord", "koorde"} {
		t.Run(machine, func(t *testing.T) {
			opts := smallOpts()
			opts.Churn = true
			opts.Nodes = 14
			opts.Substrate = machine
			c, err := NewCluster(opts)
			if err != nil {
				t.Fatal(err)
			}
			nodes := c.Nodes()
			for i, at := range []NodeID{nodes[0], nodes[8]} {
				gen := stream.DefaultRandomWalk(sim.NewRand(7))
				if err := c.AddStreamPrefilled(at, []string{"s", "twin"}[i], gen, 100*time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
			c.Run(5 * time.Second)
			for _, v := range []NodeID{nodes[6], nodes[10]} {
				if err := c.FailNode(v); err != nil {
					t.Fatal(err)
				}
			}
			c.Run(15 * time.Second) // heal
			qid, err := c.SimilarityQueryToStream(nodes[0], "s", 0.5, 15*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			c.Run(12 * time.Second)
			if !slices.Contains(c.MatchedStreams(qid), "twin") {
				t.Fatalf("planted twin not found after failures: %v", c.MatchedStreams(qid))
			}
			if len(c.Nodes()) != 12 {
				t.Fatalf("live nodes = %d, want 12", len(c.Nodes()))
			}
		})
	}
}

func TestPastrySubstrateEndToEnd(t *testing.T) {
	opts := smallOpts()
	opts.Substrate = "pastry"
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.Nodes()
	for i, node := range []NodeID{nodes[0], nodes[7]} {
		name := []string{"a", "b"}[i]
		gen := stream.DefaultRandomWalk(sim.NewRand(99))
		if err := c.AddStreamPrefilled(node, "twin-"+name, gen, 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(10 * time.Second)
	qid, err := c.SimilarityQueryToStream(nodes[0], "twin-a", 0.15, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(15 * time.Second)
	found := map[string]bool{}
	for _, sid := range c.MatchedStreams(qid) {
		found[sid] = true
	}
	if !found["twin-b"] {
		t.Fatalf("planted twin not found on pastry; matched %v", c.MatchedStreams(qid))
	}
	// A static machine has no membership dynamics to fail a node in.
	if err := c.FailNode(nodes[1]); err == nil || !strings.Contains(err.Error(), "membership dynamics") {
		t.Fatalf("FailNode on pastry: %v, want the static-machine error", err)
	}
}

func TestTreeMulticastEndToEnd(t *testing.T) {
	opts := smallOpts()
	opts.TreeMulticast = true
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.Nodes()
	for i, node := range []NodeID{nodes[0], nodes[6]} {
		name := []string{"a", "b"}[i]
		gen := stream.DefaultRandomWalk(sim.NewRand(42))
		if err := c.AddStreamPrefilled(node, "twin-"+name, gen, 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(10 * time.Second)
	qid, err := c.SimilarityQueryToStream(nodes[0], "twin-a", 0.2, 25*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(15 * time.Second)
	found := map[string]bool{}
	for _, sid := range c.MatchedStreams(qid) {
		found[sid] = true
	}
	if !found["twin-b"] {
		t.Fatalf("planted twin not found under tree multicast: %v", c.MatchedStreams(qid))
	}
	// Mutual exclusion check.
	bad := smallOpts()
	bad.TreeMulticast = true
	bad.Bidirectional = true
	if _, err := NewCluster(bad); err == nil {
		t.Fatal("Bidirectional+TreeMulticast accepted")
	}
}

func TestSubstrateValidation(t *testing.T) {
	opts := smallOpts()
	opts.Substrate = "bogus"
	if _, err := NewCluster(opts); err == nil {
		t.Fatal("bogus substrate accepted")
	}
	opts.Substrate = "pastry"
	opts.Churn = true
	if _, err := NewCluster(opts); err == nil {
		t.Fatal("churn on pastry accepted")
	}
}

func TestCorrelationQuery(t *testing.T) {
	c, err := NewCluster(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.Nodes()
	for i, node := range []NodeID{nodes[0], nodes[5]} {
		name := []string{"a", "b"}[i]
		gen := stream.DefaultRandomWalk(sim.NewRand(31))
		if err := c.AddStreamPrefilled(node, "tw-"+name, gen, 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(8 * time.Second)
	window := c.mw.DataCenter(nodes[0]).StreamWindow("tw-a")
	qid, err := c.CorrelationQuery(nodes[3], window, 0.99, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(12 * time.Second)
	found := map[string]bool{}
	for _, sid := range c.MatchedStreams(qid) {
		found[sid] = true
	}
	if !found["tw-b"] {
		t.Fatalf("perfectly correlated twin not found: %v", c.MatchedStreams(qid))
	}
	// Every match's correlation bound must respect the threshold's radius.
	for _, m := range c.Matches(qid) {
		if m.CorrelationBound() < 0.99-1e-9 {
			t.Fatalf("match %v has correlation bound %.4f below threshold", m.StreamID, m.CorrelationBound())
		}
	}
	// Validation.
	if _, err := c.CorrelationQuery(nodes[3], window, 1.5, time.Second); err == nil {
		t.Fatal("correlation > 1 accepted")
	}
	pat := smallOpts()
	pat.Normalization = Pattern
	pc, err := NewCluster(pat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.CorrelationQuery(pc.Nodes()[0], make([]float64, pc.WindowSize()), 0.9, time.Second); err == nil {
		t.Fatal("correlation query accepted under Pattern normalization")
	}
}

func TestVirtualClock(t *testing.T) {
	c, err := NewCluster(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	c.Run(1500 * time.Millisecond)
	if c.Now() != 1500*time.Millisecond {
		t.Fatalf("Now = %v", c.Now())
	}
}

func TestUnknownNodeErrors(t *testing.T) {
	c, err := NewCluster(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	bogus := NodeID(1)
	for _, n := range c.Nodes() {
		if n == bogus {
			t.Skip("collision with real node id")
		}
	}
	if err := c.AddStream(bogus, "s", GeneratorFunc(func() float64 { return 0 }), time.Second); err == nil {
		t.Fatal("unknown node accepted for AddStream")
	}
	if _, err := c.SimilarityQueryToStream(bogus, "s", 0.1, time.Second); err == nil {
		t.Fatal("unknown node accepted for query")
	}
}
