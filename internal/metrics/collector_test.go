package metrics

import (
	"math"
	"slices"
	"testing"

	"streamdex/internal/dht"
	"streamdex/internal/sim"
)

// kindClassifier treats msg.Kind as the Category directly and Dir != 0 as
// "internal" for hop classification — a minimal stand-in for the
// middleware's classifier.
type kindClassifier struct{}

func (kindClassifier) Classify(from dht.Key, msg *dht.Message) Category {
	return Category(msg.Kind)
}

func (kindClassifier) ClassifyHops(msg *dht.Message) HopClass {
	if msg.Dir != 0 {
		return HopQueryInternal
	}
	return HopQuery
}

func TestCollectorLoadAccounting(t *testing.T) {
	c := NewCollector(kindClassifier{})
	c.Reset(0)
	msg := &dht.Message{Kind: dht.Kind(MBRSource)}
	// Two transmissions: 1 -> 2 -> 3.
	c.OnTransmit(1, 2, msg)
	c.OnTransmit(2, 3, msg)
	rep := c.Snapshot(10*sim.Second, []dht.Key{1, 2, 3})
	// Node 1 sent 1, node 2 sent 1 + received 1, node 3 received 1:
	// total 4 message endpoints over 3 nodes over 10 s.
	wantAvg := 4.0 / 10.0 / 3.0
	if math.Abs(rep.LoadByCategory[MBRSource]-wantAvg) > 1e-12 {
		t.Fatalf("avg load = %v, want %v", rep.LoadByCategory[MBRSource], wantAvg)
	}
	if math.Abs(rep.NodeLoad[2]-0.2) > 1e-12 {
		t.Fatalf("node 2 load = %v, want 0.2", rep.NodeLoad[2])
	}
	if rep.TotalByCategory[MBRSource] != 2 {
		t.Fatalf("raw transmissions = %d, want 2", rep.TotalByCategory[MBRSource])
	}
}

func TestCollectorHopStats(t *testing.T) {
	c := NewCollector(kindClassifier{})
	c.Reset(0)
	c.OnDeliver(1, &dht.Message{Hops: 3})
	c.OnDeliver(1, &dht.Message{Hops: 5})
	c.OnDeliver(1, &dht.Message{Hops: 7, Dir: 1})
	rep := c.Snapshot(sim.Second, []dht.Key{1})
	if rep.HopMean[HopQuery] != 4 {
		t.Fatalf("mean hops = %v, want 4", rep.HopMean[HopQuery])
	}
	if rep.HopMax[HopQuery] != 5 || rep.HopCount[HopQuery] != 2 {
		t.Fatalf("max/count = %d/%d", rep.HopMax[HopQuery], rep.HopCount[HopQuery])
	}
	if rep.HopMean[HopQueryInternal] != 7 {
		t.Fatalf("internal mean = %v", rep.HopMean[HopQueryInternal])
	}
}

func TestCollectorEventsAndOverhead(t *testing.T) {
	c := NewCollector(kindClassifier{})
	c.Reset(0)
	for i := 0; i < 4; i++ {
		c.CountEvent(EventMBR)
	}
	msg := &dht.Message{Kind: dht.Kind(MBRTransit)}
	for i := 0; i < 10; i++ {
		c.OnTransmit(1, 2, msg)
	}
	rep := c.Snapshot(sim.Second, []dht.Key{1, 2})
	if got := rep.Overhead(MBRTransit, EventMBR); got != 2.5 {
		t.Fatalf("overhead = %v, want 2.5", got)
	}
	if got := rep.Overhead(MBRTransit, EventQuery); got != 0 {
		t.Fatalf("overhead with zero events = %v, want 0", got)
	}
	if c.Events(EventMBR) != 4 {
		t.Fatalf("Events = %d", c.Events(EventMBR))
	}
}

func TestCollectorReset(t *testing.T) {
	c := NewCollector(kindClassifier{})
	c.Reset(0)
	c.OnTransmit(1, 2, &dht.Message{})
	c.CountEvent(EventQuery)
	c.OnDeliver(2, &dht.Message{Hops: 9})
	c.Reset(5 * sim.Second)
	rep := c.Snapshot(15*sim.Second, []dht.Key{1, 2})
	if rep.TotalLoad != 0 || rep.Events[EventQuery] != 0 || rep.HopCount[HopQuery] != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if rep.Duration != 10*sim.Second {
		t.Fatalf("duration = %v, want 10s", rep.Duration)
	}
}

func TestLoadDistribution(t *testing.T) {
	r := &Report{NodeLoad: map[dht.Key]float64{
		1: 1, 2: 2, 3: 3, 4: 4, 5: 10,
	}}
	bounds, counts := r.LoadDistribution(5)
	if len(bounds) != 5 || len(counts) != 5 {
		t.Fatal("wrong bucket count")
	}
	if bounds[4] != 10 {
		t.Fatalf("top bound = %v, want 10", bounds[4])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 5 {
		t.Fatalf("histogram holds %d nodes, want 5", total)
	}
	if counts[4] != 1 {
		t.Fatalf("top bucket = %d, want 1 (the outlier)", counts[4])
	}
}

func TestLoadDistributionAllZero(t *testing.T) {
	r := &Report{NodeLoad: map[dht.Key]float64{1: 0, 2: 0}}
	_, counts := r.LoadDistribution(4)
	if counts[0] != 2 {
		t.Fatalf("zero loads should fall into the first bucket: %v", counts)
	}
}

func TestLoadQuantilesAndMax(t *testing.T) {
	r := &Report{NodeLoad: map[dht.Key]float64{}}
	for i := 1; i <= 100; i++ {
		r.NodeLoad[dht.Key(i)] = float64(i)
	}
	qs := r.LoadQuantiles(0, 0.5, 1)
	if qs[0] != 1 || qs[2] != 100 {
		t.Fatalf("quantiles = %v", qs)
	}
	if qs[1] < 45 || qs[1] > 55 {
		t.Fatalf("median = %v", qs[1])
	}
	id, l := r.MaxLoadNode()
	if id != 100 || l != 100 {
		t.Fatalf("max = (%d,%v)", id, l)
	}
}

func TestEmptySnapshot(t *testing.T) {
	c := NewCollector(kindClassifier{})
	c.Reset(0)
	rep := c.Snapshot(0, nil)
	if rep.TotalLoad != 0 || rep.Nodes != 0 {
		t.Fatal("empty snapshot not zero")
	}
}

func TestCategoryStrings(t *testing.T) {
	for c := Category(0); c < NumCategories; c++ {
		if c.String() == "" {
			t.Fatalf("category %d has empty name", c)
		}
	}
	for h := HopClass(0); h < NumHopClasses; h++ {
		if h.String() == "" {
			t.Fatalf("hop class %d has empty name", h)
		}
	}
	for e := EventType(0); e < NumEventTypes; e++ {
		if e.String() == "" {
			t.Fatalf("event type %d has empty name", e)
		}
	}
}

func TestCollectorByteAccounting(t *testing.T) {
	c := NewCollector(kindClassifier{})
	c.Reset(0)
	msg := &dht.Message{Kind: dht.Kind(MBRSource), Bytes: 100}
	c.OnTransmit(1, 2, msg)
	c.OnTransmit(2, 3, msg)
	unsized := &dht.Message{Kind: dht.Kind(MBRSource)}
	c.OnTransmit(1, 3, unsized)
	rep := c.Snapshot(10*sim.Second, []dht.Key{1, 2, 3})
	if rep.BytesByCategory[MBRSource] != 200 {
		t.Fatalf("BytesByCategory = %d, want 200", rep.BytesByCategory[MBRSource])
	}
	// 2 transmissions x 100 B, each counted at both endpoints -> 400 B
	// total over 3 nodes over 10 s.
	want := 400.0 / 10 / 3
	if math.Abs(rep.BandwidthPerNode-want) > 1e-9 {
		t.Fatalf("BandwidthPerNode = %v, want %v", rep.BandwidthPerNode, want)
	}
}

// noNaN fails the test if v is NaN or infinite.
func noNaN(t *testing.T, name string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("%s = %v, want a finite number", name, v)
	}
}

func TestSnapshotZeroIntervalIsAllZeros(t *testing.T) {
	c := NewCollector(kindClassifier{})
	c.Reset(5 * sim.Second)
	msg := &dht.Message{Kind: dht.Kind(MBRSource), Bytes: 64}
	c.OnTransmit(1, 2, msg)
	nodes := []dht.Key{1, 2, 3}

	// Zero-length and backwards measurement intervals: every rate must
	// come back zero, never NaN/Inf, and NodeLoad must still carry one
	// entry per node.
	for _, now := range []sim.Time{5 * sim.Second, 4 * sim.Second} {
		rep := c.Snapshot(now, nodes)
		noNaN(t, "TotalLoad", rep.TotalLoad)
		noNaN(t, "BandwidthPerNode", rep.BandwidthPerNode)
		if rep.TotalLoad != 0 || rep.BandwidthPerNode != 0 {
			t.Fatalf("zero-interval snapshot has non-zero rates: %v, %v", rep.TotalLoad, rep.BandwidthPerNode)
		}
		if len(rep.NodeLoad) != len(nodes) {
			t.Fatalf("NodeLoad has %d entries, want %d", len(rep.NodeLoad), len(nodes))
		}
		for id, l := range rep.NodeLoad {
			noNaN(t, "NodeLoad", l)
			if l != 0 {
				t.Fatalf("node %d load = %v, want 0", id, l)
			}
		}
		// Raw counters are interval-independent and must survive the guard.
		if rep.TotalByCategory[MBRSource] != 1 || rep.BytesByCategory[MBRSource] != 64 {
			t.Fatalf("raw counters lost in degenerate snapshot: %+v", rep.TotalByCategory)
		}
	}
}

func TestSnapshotNoNodesIsAllZeros(t *testing.T) {
	c := NewCollector(kindClassifier{})
	c.Reset(0)
	rep := c.Snapshot(10*sim.Second, nil)
	noNaN(t, "TotalLoad", rep.TotalLoad)
	noNaN(t, "BandwidthPerNode", rep.BandwidthPerNode)
	if len(rep.NodeLoad) != 0 {
		t.Fatalf("NodeLoad has %d entries for an empty node set", len(rep.NodeLoad))
	}
	qs := rep.LoadQuantiles(0, 0.5, 1)
	for i, q := range qs {
		noNaN(t, "LoadQuantiles", q)
		if q != 0 {
			t.Fatalf("quantile %d = %v on an empty report, want 0", i, q)
		}
	}
}

func TestLoadQuantilesEmptyReport(t *testing.T) {
	r := &Report{NodeLoad: map[dht.Key]float64{}}
	got := r.LoadQuantiles(0, 0.25, 0.5, 0.99, 1)
	if len(got) != 5 {
		t.Fatalf("got %d quantiles, want 5", len(got))
	}
	for i, q := range got {
		noNaN(t, "LoadQuantiles", q)
		if q != 0 {
			t.Fatalf("quantile %d = %v on an empty NodeLoad, want 0", i, q)
		}
	}
}

func TestGini(t *testing.T) {
	cases := []struct {
		name  string
		loads []float64
		want  float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 0},
		{"all equal", []float64{3, 3, 3, 3}, 0},
		{"all zero", []float64{0, 0, 0}, 0},
		{"one hot", []float64{0, 0, 0, 1}, 0.75}, // (n-1)/n
		{"linear ramp", []float64{1, 2, 3, 4}, 0.25},
		{"order independent", []float64{4, 1, 3, 2}, 0.25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Gini(tc.loads)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("Gini(%v) = %v, want %v", tc.loads, got, tc.want)
			}
		})
	}
}

func TestGiniDoesNotMutateInput(t *testing.T) {
	loads := []float64{4, 1, 3, 2}
	Gini(loads)
	want := []float64{4, 1, 3, 2}
	for i := range loads {
		if loads[i] != want[i] {
			t.Fatalf("input mutated: %v", loads)
		}
	}
}

func TestMaxLoadNodeTieGoesToLowerID(t *testing.T) {
	r := &Report{NodeLoad: map[dht.Key]float64{9: 2.5, 4: 2.5, 7: 1, 2: 0.5}}
	for i := 0; i < 50; i++ { // map order varies call to call
		if id, l := r.MaxLoadNode(); id != 4 || l != 2.5 {
			t.Fatalf("max = (%d,%v), want the lower of the tied ids (4, 2.5)", id, l)
		}
	}
	if ids := r.NodeIDs(); !slices.Equal(ids, []dht.Key{2, 4, 7, 9}) {
		t.Fatalf("NodeIDs = %v, want ascending", ids)
	}
}
