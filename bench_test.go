package streamdex

// One benchmark per table and figure of the paper's evaluation (§V), plus
// the ablations of DESIGN.md. Each benchmark regenerates its table/figure
// rows with the real simulation pipeline and logs them (run with -v to see
// the tables):
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig6aLoad -v
//
// The full paper-scale sweeps take a few seconds per iteration, so the
// default -benchtime leaves them at one iteration. BENCH_FAST=1 in the
// environment shrinks the sweeps for quick smoke runs.

import (
	"os"
	"testing"

	"streamdex/internal/experiments"
	"streamdex/internal/sim"
	"streamdex/internal/workload"
)

// benchBase returns the Table I workload configuration used by all figure
// benchmarks. The measurement window is shortened from the interactive
// default to keep a full `go test -bench=.` run in minutes; shapes are
// unaffected (verified by the experiments tests).
func benchBase() workload.Config {
	cfg := workload.DefaultConfig(0)
	cfg.Warmup = 20 * sim.Second
	cfg.Measure = 60 * sim.Second
	if fastBench() {
		cfg.Warmup = 10 * sim.Second
		cfg.Measure = 20 * sim.Second
	}
	return cfg
}

func fastBench() bool { return os.Getenv("BENCH_FAST") != "" }

func benchSizes() []int {
	if fastBench() {
		return []int{25, 50}
	}
	return experiments.PaperSizes
}

func benchOverheadSizes() []int {
	if fastBench() {
		return []int{25, 50}
	}
	return experiments.OverheadSizes
}

// BenchmarkTable1Workload regenerates Table I and measures the cost of one
// full workload construction + measurement at 50 nodes.
func BenchmarkTable1Workload(b *testing.B) {
	b.Log("\n" + experiments.TableI().String())
	cfg := benchBase()
	cfg.Nodes = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := workload.RunOnce(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.TotalLoad, "msgs/node/s")
	}
}

// BenchmarkFig3bFourierLocality regenerates the Fourier-locality analysis
// of Fig. 3(b) on a synthetic host-load trace.
func BenchmarkFig3bFourierLocality(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := experiments.FourierLocality(128, 3, 20000, 1)
		ratio = r.Ratio
	}
	b.ReportMetric(ratio, "consec/random-dist")
	b.Log("\n" + experiments.Fig3b(128, 3, 20000, 1).String())
}

// BenchmarkFig6aLoad regenerates Fig. 6(a): per-node message load by
// component across system sizes.
func BenchmarkFig6aLoad(b *testing.B) {
	var rows []experiments.LoadRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.LoadVsNodes(benchSizes(), benchBase(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.Total, "msgs/node/s@max-N")
	b.ReportMetric(last.MBRsInTransit, "mbr-transit@max-N")
	b.Log("\n" + experiments.Fig6a(rows).String())
}

// BenchmarkFig6bLoadDistribution regenerates Fig. 6(b): the load histogram
// at 200 nodes.
func BenchmarkFig6bLoadDistribution(b *testing.B) {
	nodes := 200
	if fastBench() {
		nodes = 50
	}
	var d experiments.Distribution
	for i := 0; i < b.N; i++ {
		var err error
		d, err = experiments.LoadDistribution(nodes, 8, benchBase())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.Quantiles[3]/d.Quantiles[0], "max/median-load")
	b.Log("\n" + experiments.Fig6b(d).String())
}

// BenchmarkFig7aOverhead regenerates Fig. 7(a): message overhead per input
// event at query radius 0.1.
func BenchmarkFig7aOverhead(b *testing.B) {
	benchOverhead(b, "a", 0.1)
}

// BenchmarkFig7bOverhead regenerates Fig. 7(b): the radius-0.2 variant.
func BenchmarkFig7bOverhead(b *testing.B) {
	benchOverhead(b, "b", 0.2)
}

func benchOverhead(b *testing.B, label string, radius float64) {
	var rows []experiments.OverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Overhead(benchOverheadSizes(), benchBase(), radius, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.QueryMessages, "query-range-msgs/query@max-N")
	b.Log("\n" + experiments.Fig7(label, radius, rows).String())
}

// BenchmarkFig8Hops regenerates Fig. 8: hops per message class across
// system sizes.
func BenchmarkFig8Hops(b *testing.B) {
	var rows []experiments.HopsRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Hops(benchSizes(), benchBase(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.QueryInternal, "internal-query-hops@max-N")
	b.ReportMetric(last.MBR, "mbr-hops@max-N")
	b.Log("\n" + experiments.Fig8(rows).String())
}

// BenchmarkAblationRangeMulticast regenerates ablation A1: sequential vs.
// bidirectional range multicast delay.
func BenchmarkAblationRangeMulticast(b *testing.B) {
	widths := []int{2, 4, 8, 16, 32, 64}
	var rows []experiments.MulticastRow
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = experiments.RangeMulticast("", 256, widths); err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.SeqDelay)/float64(last.BidiDelay), "seq/bidi-delay")
	b.Log("\n" + experiments.AblationMulticast("", 256, rows).String())
}

// BenchmarkAblationBaselines regenerates ablation A2: the distributed
// index against the centralized and flooding strawmen.
func BenchmarkAblationBaselines(b *testing.B) {
	sizes := []int{50, 100}
	if fastBench() {
		sizes = []int{25}
	}
	var rows []experiments.BaselineRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Baselines(sizes, benchBase(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + experiments.AblationBaselines(rows).String())
}

// BenchmarkAblationBatchSweep regenerates ablation A3: the MBR batching
// factor trade-off.
func BenchmarkAblationBatchSweep(b *testing.B) {
	betas := []int{1, 5, 10, 25, 50}
	var rows []experiments.BatchRow
	for i := 0; i < b.N; i++ {
		rows = experiments.BatchSweep(betas, 0.1, 1)
	}
	b.ReportMetric(rows[len(rows)-1].FalsePositive, "fp-rate@beta50")
	b.Log("\n" + experiments.AblationBatch(rows, 0.1).String())
}

// BenchmarkAblationAdaptive regenerates ablation A4: fixed vs. adaptive
// MBR precision.
func BenchmarkAblationAdaptive(b *testing.B) {
	var rows []experiments.AdaptiveRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AdaptiveComparison(32, 0.1, 1)
	}
	b.Log("\n" + experiments.AblationAdaptive("", rows, 0.1).String())
}

// BenchmarkAblationHierarchy regenerates ablation A5: flat range multicast
// vs. the cluster-leader hierarchy for wide queries.
func BenchmarkAblationHierarchy(b *testing.B) {
	radii := []float64{0.05, 0.1, 0.2, 0.4, 0.8}
	var rows []experiments.HierarchyRow
	for i := 0; i < b.N; i++ {
		rows = experiments.HierarchyComparison(512, radii, 16)
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.FlatMsgs)/float64(max(1, last.HierMsgs)), "flat/hier-msgs@r0.8")
	b.Log("\n" + experiments.AblationHierarchy("", 512, rows).String())
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BenchmarkAblationTreeHops regenerates ablation A9: Fig. 8's internal-hop
// bottleneck under sequential walk vs. finger-tree dissemination.
func BenchmarkAblationTreeHops(b *testing.B) {
	sizes := benchSizes()
	var rows []experiments.TreeHopsRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TreeHops(sizes, benchBase(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.SeqQueryInternal/last.TreeQueryInternal, "seq/tree-hops@max-N")
	b.Log("\n" + experiments.AblationTreeHops(rows).String())
}

// BenchmarkAblationResilience regenerates ablation A6: service continuity
// under node failures with ring self-repair.
func BenchmarkAblationResilience(b *testing.B) {
	nodes, fails := 100, []int{0, 5, 10}
	if fastBench() {
		nodes, fails = 25, []int{0, 3}
	}
	var rows []experiments.ResilienceRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Resilience(nodes, fails, benchBase(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[len(rows)-1].Dropped), "dropped@max-fail")
	b.Log("\n" + experiments.AblationResilience(rows).String())
}

// BenchmarkAblationBandwidth regenerates ablation A8: serialized update
// volume, individual feature propagation vs. MBR batching.
func BenchmarkAblationBandwidth(b *testing.B) {
	nodes, betas := 100, []int{1, 5, 25}
	if fastBench() {
		nodes, betas = 24, []int{1, 25}
	}
	var rows []experiments.BandwidthRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Bandwidth(nodes, betas, benchBase(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].MBRBytes/rows[len(rows)-1].MBRBytes, "beta1/beta25-bytes")
	b.Log("\n" + experiments.AblationBandwidth(nodes, rows).String())
}

// BenchmarkAblationSubstrates regenerates ablation A7: the same middleware
// over Chord and Pastry-style prefix routing.
func BenchmarkAblationSubstrates(b *testing.B) {
	sizes := []int{100, 300}
	if fastBench() {
		sizes = []int{25}
	}
	var rows []experiments.SubstrateRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Substrates(sizes, benchBase(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + experiments.AblationSubstrates(rows).String())
}

// BenchmarkClusterEndToEnd measures the facade: build a 32-node cluster
// with one stream per node, run 30 virtual seconds with a live query.
func BenchmarkClusterEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := NewCluster(ClusterOptions{Nodes: 32, WindowSize: 64, BatchFactor: 5, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		nodes := c.Nodes()
		for j, id := range nodes {
			gen := walkGen(int64(j))
			if err := c.AddStreamPrefilled(id, nodeStreamName(j), gen, 200_000_000); err != nil {
				b.Fatal(err)
			}
		}
		c.Run(10_000_000_000) // 10 virtual seconds
		if _, err := c.SimilarityQueryToStream(nodes[0], nodeStreamName(0), 0.2, 20_000_000_000); err != nil {
			b.Fatal(err)
		}
		c.Run(20_000_000_000)
	}
}

func nodeStreamName(i int) string {
	return "s" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

func walkGen(seed int64) Generator {
	r := sim.NewRand(seed)
	x := 500.0
	return GeneratorFunc(func() float64 {
		x += r.Uniform(-1, 1)
		return x
	})
}
