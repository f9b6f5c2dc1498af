package experiments

import (
	"strings"
	"testing"

	"streamdex/internal/sim"
	"streamdex/internal/workload"
)

// fastBase returns a scaled-down Table I workload for test speed.
func fastBase() workload.Config {
	cfg := workload.DefaultConfig(0)
	cfg.Core.WindowSize = 32
	cfg.Core.Beta = 5
	cfg.Warmup = 15 * sim.Second
	cfg.Measure = 30 * sim.Second
	return cfg
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "a", "bb")
	tb.AddRow(1, 2.5)
	tb.AddRow("xyz", "w")
	tb.AddNote("note %d", 7)
	s := tb.String()
	for _, want := range []string{"Title", "a", "bb", "2.500", "xyz", "# note 7", "--"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestParallelOrderAndCompleteness(t *testing.T) {
	jobs := make([]func() int, 50)
	for i := range jobs {
		i := i
		jobs[i] = func() int { return i * i }
	}
	for _, workers := range []int{0, 1, 4, 100} {
		got := Parallel(workers, jobs)
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestTableIValues(t *testing.T) {
	s := TableI().String()
	for _, want := range []string{"150ms", "250ms", "5000ms", "2q/sec", "20sec", "100sec", "2sec"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table I missing %q:\n%s", want, s)
		}
	}
}

func TestFourierLocality(t *testing.T) {
	r := FourierLocality(64, 3, 3000, 7)
	if r.Ratio >= 0.5 {
		t.Fatalf("locality ratio = %.3f, want << 1 (consecutive summaries must cluster)", r.Ratio)
	}
	if r.ConsecutiveMean <= 0 || r.RandomMean <= 0 {
		t.Fatal("degenerate distances")
	}
	if len(r.Points) == 0 {
		t.Fatal("no scatter points")
	}
	for _, p := range r.Points {
		if !p.Valid() {
			t.Fatalf("invalid scatter point %v", p)
		}
	}
}

func TestLoadVsNodesShape(t *testing.T) {
	sizes := []int{16, 48}
	rows, err := LoadVsNodes(sizes, fastBase(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	small, big := rows[0], rows[1]
	// MBR transit grows with N (overlay routing is O(log N)).
	if big.MBRsInTransit <= small.MBRsInTransit {
		t.Fatalf("MBR transit did not grow: %.3f -> %.3f", small.MBRsInTransit, big.MBRsInTransit)
	}
	// Responses to clients shrink per node (constant total over more
	// nodes).
	if big.Responses >= small.Responses {
		t.Fatalf("response load did not shrink per node: %.3f -> %.3f", small.Responses, big.Responses)
	}
	// MBR source rate is per-stream and constant.
	ratio := big.MBRs / small.MBRs
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("MBR source rate not constant: %.3f -> %.3f", small.MBRs, big.MBRs)
	}
	if small.Total <= 0 || big.Total <= 0 {
		t.Fatal("zero totals")
	}
	// Rendering sanity.
	if !strings.Contains(Fig6a(rows).String(), "Figure 6(a)") {
		t.Fatal("Fig6a table missing title")
	}
}

func TestLoadDistributionLightTailed(t *testing.T) {
	d, err := LoadDistribution(48, 8, fastBase())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range d.Counts {
		total += c
	}
	if total != 48 {
		t.Fatalf("histogram covers %d nodes, want 48", total)
	}
	// Not heavy-tailed: the max load is within a small factor of the
	// median.
	if d.Quantiles[3] > 5*d.Quantiles[0] {
		t.Fatalf("heavy tail: median %.2f, max %.2f", d.Quantiles[0], d.Quantiles[3])
	}
	if !strings.Contains(Fig6b(d).String(), "distribution of load") {
		t.Fatal("Fig6b table missing title")
	}
}

func TestOverheadRadiusDoubling(t *testing.T) {
	sizes := []int{48}
	base := fastBase()
	r1, err := Overhead(sizes, base, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Overhead(sizes, base, 0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A twice bigger query radius spans roughly twice as many nodes
	// (paper: "the most significant difference here is in an even higher
	// number of query messages").
	ratio := r2[0].QueryMessages / r1[0].QueryMessages
	if ratio < 1.5 || ratio > 2.8 {
		t.Fatalf("query-range overhead ratio r=0.2/r=0.1 = %.2f, want ~2", ratio)
	}
	if !strings.Contains(Fig7("a", 0.1, r1).String(), "radius=0.1") {
		t.Fatal("Fig7 table missing radius")
	}
}

func TestOverheadQueryRangeLinearInN(t *testing.T) {
	rows, err := Overhead([]int{16, 48}, fastBase(), 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Tripling N should roughly triple the covered range.
	ratio := rows[1].QueryMessages / rows[0].QueryMessages
	if ratio < 2 || ratio > 4.5 {
		t.Fatalf("query-range overhead 16->48 nodes scaled by %.2f, want ~3", ratio)
	}
}

func TestHopsShape(t *testing.T) {
	rows, err := Hops([]int{16, 48}, fastBase(), 2)
	if err != nil {
		t.Fatal(err)
	}
	small, big := rows[0], rows[1]
	// Routed MBR hops grow slowly (O(log N)); internal query hops grow
	// linearly and dominate at scale.
	if big.MBR <= 0 || big.Query <= 0 {
		t.Fatal("zero hop means")
	}
	if big.QueryInternal <= small.QueryInternal {
		t.Fatalf("internal query hops did not grow: %.2f -> %.2f", small.QueryInternal, big.QueryInternal)
	}
	if big.QueryInternal <= big.MBR {
		t.Fatalf("internal query hops (%.2f) should dominate routed MBR hops (%.2f) at 48 nodes",
			big.QueryInternal, big.MBR)
	}
	if !strings.Contains(Fig8(rows).String(), "Figure 8") {
		t.Fatal("Fig8 table missing title")
	}
}

func TestFullEvaluationSharesSweep(t *testing.T) {
	loads, overheads, hops, err := FullEvaluation([]int{16}, fastBase(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 1 || len(overheads) != 1 || len(hops) != 1 {
		t.Fatal("wrong row counts")
	}
	if loads[0].Nodes != 16 || overheads[0].Nodes != 16 || hops[0].Nodes != 16 {
		t.Fatal("size mismatch")
	}
}

func TestRangeMulticastAblation(t *testing.T) {
	rows, err := RangeMulticast("", 64, []int{2, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatal("row count")
	}
	for _, r := range rows {
		if r.SeqMsgs == 0 || r.BidiMsgs == 0 {
			t.Fatalf("no messages for width %d", r.RangeNodes)
		}
	}
	// For wide ranges bidirectional must be clearly faster.
	wide := rows[2]
	if float64(wide.BidiDelay) > 0.8*float64(wide.SeqDelay) {
		t.Fatalf("bidirectional %v vs sequential %v on 32-node range", wide.BidiDelay, wide.SeqDelay)
	}
	// Message counts comparable (within one extra leg).
	if wide.BidiMsgs > wide.SeqMsgs+2 {
		t.Fatalf("bidirectional costs %d msgs vs %d sequential", wide.BidiMsgs, wide.SeqMsgs)
	}
	if !strings.Contains(AblationMulticast("", 64, rows).String(), "Ablation A1") {
		t.Fatal("A1 table missing title")
	}
	if _, err := RangeMulticast("bogus", 64, []int{2}); err == nil {
		t.Fatal("unknown substrate accepted")
	}
}

func TestBaselinesAblation(t *testing.T) {
	base := fastBase()
	rows, err := Baselines([]int{24}, base, 3)
	if err != nil {
		t.Fatal(err)
	}
	byDesign := map[string]BaselineRow{}
	for _, r := range rows {
		byDesign[r.Design] = r
	}
	dist, cent, flood := byDesign["distributed"], byDesign["centralized"], byDesign["flooding"]
	if cent.Imbalance <= 2*dist.Imbalance {
		t.Fatalf("centralized imbalance %.1f not clearly worse than distributed %.1f",
			cent.Imbalance, dist.Imbalance)
	}
	if flood.QueryMsgs <= dist.QueryMsgs {
		t.Fatalf("flooding query cost %.1f not above distributed %.1f", flood.QueryMsgs, dist.QueryMsgs)
	}
	if !strings.Contains(AblationBaselines(rows).String(), "Ablation A2") {
		t.Fatal("A2 table missing title")
	}
}

func TestBatchSweepTradeoff(t *testing.T) {
	rows := BatchSweep([]int{1, 10, 50}, 0.1, 3)
	if len(rows) != 3 {
		t.Fatal("row count")
	}
	// Bandwidth falls with beta.
	if !(rows[0].MBRsPerSecond > rows[1].MBRsPerSecond && rows[1].MBRsPerSecond > rows[2].MBRsPerSecond) {
		t.Fatalf("MBR rate not decreasing: %+v", rows)
	}
	// Rectangle extent grows with beta.
	if !(rows[0].AvgSide <= rows[1].AvgSide && rows[1].AvgSide <= rows[2].AvgSide) {
		t.Fatalf("avg side not increasing: %+v", rows)
	}
	// False positives grow with beta (wider rectangles).
	if rows[2].FalsePositive < rows[0].FalsePositive {
		t.Fatalf("false positives fell with beta: %+v", rows)
	}
	if !strings.Contains(AblationBatch(rows, 0.1).String(), "Ablation A3") {
		t.Fatal("A3 table missing title")
	}
}

func TestAdaptiveAblation(t *testing.T) {
	rows := AdaptiveComparison(32, 0.1, 5)
	if len(rows) != 3 {
		t.Fatal("row count")
	}
	loose, tight, adapt := rows[0], rows[1], rows[2]
	if loose.MBRCount == 0 || tight.MBRCount == 0 || adapt.MBRCount == 0 {
		t.Fatal("no MBRs produced")
	}
	// Precision: the adaptive strategy keeps far fewer over-target
	// rectangles than the loose fixed baseline.
	looseBad := float64(loose.WideMBRs) / float64(loose.MBRCount)
	adaptBad := float64(adapt.WideMBRs) / float64(adapt.MBRCount)
	if adaptBad >= looseBad {
		t.Fatalf("adaptive over-target fraction %.2f not below loose fixed %.2f", adaptBad, looseBad)
	}
	// Bandwidth: it sends fewer updates than the tight fixed baseline
	// (it only pays for precision when the stream is volatile).
	if adapt.MBRCount >= tight.MBRCount {
		t.Fatalf("adaptive sent %d MBRs, not below tight fixed %d", adapt.MBRCount, tight.MBRCount)
	}
	if !strings.Contains(AblationAdaptive("", rows, 0.1).String(), "Ablation A4") {
		t.Fatal("A4 table missing title")
	}
}

func TestHierarchyAblation(t *testing.T) {
	rows := HierarchyComparison(512, []float64{0.05, 0.2, 0.4, 0.8}, 16)
	if len(rows) != 4 {
		t.Fatal("row count")
	}
	// Flat cost grows with the radius.
	if rows[3].FlatMsgs <= rows[0].FlatMsgs {
		t.Fatal("flat cost not growing with radius")
	}
	// For the widest query the hierarchy wins on this sparse population.
	if rows[3].HierMsgs >= rows[3].FlatMsgs {
		t.Fatalf("hierarchy %d msgs vs flat %d for radius 0.8", rows[3].HierMsgs, rows[3].FlatMsgs)
	}
	if !strings.Contains(AblationHierarchy("", 512, rows).String(), "Ablation A5") {
		t.Fatal("A5 table missing title")
	}
}
