package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"streamdex/internal/chord"
	"streamdex/internal/core"
	"streamdex/internal/dht"
	"streamdex/internal/sim"
	"streamdex/internal/stream"
	"streamdex/internal/summary"
)

// --- percentile rule and spreads --------------------------------------------

func TestPercentileNearestRank(t *testing.T) {
	s := make(sample, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %v, want %v", c.p*100, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The highest quotable tail is the one with at least ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {300, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// quartiles must be statistics.quantiles(values, n=4) of Python, which is
// what the driver computes spreads with: for 1..10 that is 2.75 and 8.25,
// for [10, 12, 19] it is 10 and 19.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q3 := quartiles(sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles(sample{19, 10, 12})
	if q1 != 10 || q3 != 19 {
		t.Errorf("quartiles(10,12,19) = %v, %v, want 10, 19", q1, q3)
	}
	if got := spread(sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// One stalled second moves the sliced tail as little as it would move a
// long run's; slices too thin to carry the percentile are left out.
func TestSlicedTailIsTheTypicalSecond(t *testing.T) {
	const second = int64(1e9)
	var values sample
	var at []int64
	for s := int64(0); s < 5; s++ {
		for i := 1; i <= 20; i++ {
			v := float64(i)
			if s == 2 {
				v *= 10 // the stalled second
			}
			values, at = append(values, v), append(at, 100+s*second+int64(i))
		}
	}
	// Nearest-rank p95 of 20 is the 19th: 19 in a quiet second, 190 in the
	// stalled one; pooled, the 95th of the 100 values is the stalled
	// second's 15th.
	if got := slicedTail(values, at, 100, 0.95, 10); got != 19 {
		t.Errorf("sliced p95 = %v, want 19", got)
	}
	if got := percentile(values.sorted(), 0.95); got != 150 {
		t.Errorf("pooled p95 = %v, want 150", got)
	}
	// A sixth second with three samples does not vote ...
	values, at = append(values, 1000, 1000, 1000), append(at, 100+5*second, 101+5*second, 102+5*second)
	if got := slicedTail(values, at, 100, 0.95, 10); got != 19 {
		t.Errorf("sliced p95 with a thin slice = %v, want 19", got)
	}
	// ... and with fewer than three usable slices the pooled value is returned.
	if got := slicedTail(values[:40], at[:40], 100, 0.95, 10); got != 19 {
		t.Errorf("pooled fallback = %v, want 19", got)
	}
}

func TestCalibratorSlowdown(t *testing.T) {
	c := &calibrator{at: []int64{10, 20, 30, 40}, burstNs: []float64{calRefNs, 1.2 * calRefNs, 1.4 * calRefNs, 9 * calRefNs}}
	if got, n := c.slowdown(15, 35); math.Abs(got-1.3) > 1e-12 || n != 2 {
		t.Errorf("slowdown(15, 35) = %v from %d bursts, want 1.3 from 2", got, n)
	}
	if got, n := c.slowdown(50, 60); got != 1 || n != 0 {
		t.Errorf("slowdown over an interval without bursts = %v from %d, want 1 from 0", got, n)
	}
}

// The calibrator's bursts land in the interval it ran for and take a time of
// the order of the reference.
func TestCalibratorRuns(t *testing.T) {
	from := nowNs()
	c := startCalibrator()
	time.Sleep(4 * calPeriod)
	c.close()
	c.close() // idempotent
	got, n := c.slowdown(from, nowNs())
	if n < 2 || got < 0.2 || got > 20 {
		t.Errorf("slowdown %v from %d bursts in %v", got, n, 4*calPeriod)
	}
}

// --- span self time and parents -----------------------------------------------

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	spans := []*span{
		{start: 0, end: 100},   // parent
		{start: 10, end: 30},   // child
		{start: 15, end: 20},   // grandchild
		{start: 50, end: 60},   // second child
		{start: 120, end: 130}, // sibling of the parent
	}
	selfTimes(spans)
	for i, want := range []int64{70, 15, 5, 10, 10} {
		if spans[i].self != want {
			t.Errorf("span %d self = %d, want %d", i, spans[i].self, want)
		}
	}
}

// One query's spans — post, coverer upcalls, a notify relay, the response
// and the callback inside it — must chain by cause, across nodes.
func TestResolveStitchesAQueryAcrossHops(t *testing.T) {
	all := []span{
		{kind: spanPost, node: 0, start: 0, end: 10, query: 7, stream: -1},
		{kind: spanQuery, node: 3, worker: true, start: 20, end: 40, query: 7, stream: -1},
		{kind: spanQuery, node: 4, worker: true, start: 50, end: 60, query: 7, stream: -1},
		{kind: spanQuery, node: 3, worker: true, start: 55, end: 58, query: 9, stream: -1}, // another query
		{kind: spanNotify, node: 3, start: 100, end: 110, queries: []uint64{7, 9}, stream: -1},
		{kind: spanResponse, node: 0, start: 200, end: 230, query: 7, items: 2, stream: -1},
		{kind: spanCallback, node: 0, start: 205, end: 215, query: 7, stream: -1},
		{kind: spanEmit, node: 1, worker: true, start: 1, end: 1, stream: 5, seq: 64},
		{kind: spanMBR, node: 2, worker: true, start: 30, end: 35, stream: 5, seq: 64},
	}
	// resolve wants start order.
	ordered := []int{0, 7, 1, 8, 2, 3, 4, 5, 6}
	sorted := make([]span, len(all))
	for i, j := range ordered {
		sorted[i] = all[j]
	}
	resolve(sorted)
	name := func(i int) string {
		if i < 0 {
			return "root"
		}
		return spanNames[sorted[i].kind]
	}
	// The notify batch serves queries 7 and 9; its parent is the latest
	// coverer upcall of either, which is query 9's.
	want := map[int]int{0: -1, 1: -1, 2: 0, 3: 1, 4: 2, 5: -1, 6: 5, 7: 6, 8: 7}
	for i, p := range want {
		if sorted[i].parent != p {
			t.Errorf("%s@%d has parent %s@%d, want %s@%d", name(i), sorted[i].start, name(sorted[i].parent), sorted[i].parent, name(p), p)
		}
	}
	// The callback ran inside the response upcall on the gateway's loop.
	if got := sorted[7].self; got != 20 {
		t.Errorf("response self time = %d, want 30 - 10", got)
	}
}

func TestTraceFileSampling(t *testing.T) {
	for _, c := range []struct {
		s    span
		want bool
	}{
		{span{stream: -1, query: queryTraceEvery}, true},
		{span{stream: -1, query: queryTraceEvery + 1}, false},
		{span{stream: 0, seq: mbrTraceEvery}, true},
		{span{stream: 0, seq: 3}, false},
		{span{stream: -1, queries: []uint64{7, 2 * queryTraceEvery}}, true},
		{span{stream: -1, queries: []uint64{7, 9}}, false},
		{span{stream: -1}, false}, // belongs to no request
	} {
		if got := c.s.inTraceFile(); got != c.want {
			t.Errorf("inTraceFile(%+v) = %v, want %v", c.s, got, c.want)
		}
	}
}

// --- oracle ---------------------------------------------------------------------

// The direct DFT must agree with an independent evaluation by the textbook
// formula on a window that is not a random walk.
func TestDirectDFTAgainstFormula(t *testing.T) {
	const w = 64
	x := make([]float64, w)
	for i := range x {
		x[i] = 3 + 2*math.Cos(2*math.Pi*float64(i)/w) - math.Sin(2*math.Pi*2*float64(i)/w) + float64(i%5)
	}
	got := newDirectDFT(w).feature(x)
	var mean, energy float64
	for _, v := range x {
		mean += v / w
	}
	for _, v := range x {
		energy += (v - mean) * (v - mean)
	}
	var want feature
	for h := 1; h <= 2; h++ {
		var re, im float64
		for i, v := range x {
			angle := -2 * math.Pi * float64(h) * float64(i) / w
			re += v * math.Cos(angle)
			im += v * math.Sin(angle)
		}
		re /= math.Sqrt(w) * math.Sqrt(energy)
		im /= math.Sqrt(w) * math.Sqrt(energy)
		if h == 1 {
			want[0], want[1] = re, im
		} else {
			want[2] = re
		}
	}
	for d := range want {
		if math.Abs(got[d]-want[d]) > 1e-12 {
			t.Errorf("feature[%d] = %v, want %v", d, got[d], want[d])
		}
	}
	if (newDirectDFT(w).feature(make([]float64, w)) != feature{}) {
		t.Errorf("constant window must map to the origin")
	}
}

// The mapping the whole oracle rests on, pinned against the real ingest
// path: a DataCenter on the simulated ring, fed by a probe-wrapped walk
// with Prefill, numbers its MBRs from 0 and closes seq q at live point
// (q+1)·beta — and the oracle, replaying an identical walk, rebuilds the
// same rectangles, so its MINDIST equals core's for every stored MBR.
func TestOracleMatchesTheIngestPath(t *testing.T) {
	const seed = 11
	eng := sim.NewEngine()
	space := dht.NewSpace(32)
	net := chord.New(eng, chord.Config{Space: space, HopDelay: sim.Millisecond, SuccListLen: 4})
	ids := chord.SortKeys(chord.UniformIDs(space, 4))
	net.BuildStable(ids, nil)
	cfg := coreConfig(space, seed)
	cfg.MBRLifespan = sim.Time(1) << 40 // keep every MBR for the comparison
	mw, err := core.New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := &genProbe{inner: newWalks(seed, 1, 1)[0][0], prefill: windowSize, beta: batchBeta}
	dc := mw.DataCenter(ids[0])
	st := stream.Stream{ID: streamName(0, 0), Gen: probe, Period: 10 * sim.Millisecond, Prefill: true}
	if err := dc.RegisterStream(st); err != nil {
		t.Fatal(err)
	}
	if got := probe.calls.Load(); got != windowSize {
		t.Fatalf("registration drew %d values, want the %d-point prefill", got, windowSize)
	}
	eng.RunFor(5 * sim.Second)

	live := probe.livePoints()
	if live < 400 {
		t.Fatalf("only %d live points in 5 virtual seconds", live)
	}
	closed := uint64(live) / batchBeta
	if uint64(len(probe.closeAt)) != closed {
		t.Fatalf("probe stamped %d closing points for %d live points, want %d", len(probe.closeAt), live, closed)
	}
	// Seq q closes at live point (q+1)·beta: the last closed MBR's point has
	// been drawn, the next one's has not.
	if int64(closed)*batchBeta > live || int64(closed+1)*batchBeta <= live {
		t.Fatalf("%d live points do not place the boundary after %d closed MBRs", live, closed)
	}

	or := newStreamOracle(newDirectDFT(windowSize), batchBeta, newWalks(seed, 1, 1)[0][0], probe.calls.Load())
	if or.seqs() != closed {
		t.Fatalf("oracle rebuilt %d MBRs, the data center closed %d", or.seqs(), closed)
	}
	// The source stores its own MBRs; a radius no feature can exceed
	// returns all of them with core's MINDIST to the query point.
	rng := sim.NewRand(seed)
	for trial := 0; trial < 20; trial++ {
		q := feature{rng.Uniform(-0.8, 0.8), rng.Uniform(-0.8, 0.8), rng.Uniform(-0.8, 0.8)}
		got := dc.Store().Candidates(summary.Feature(q[:]), 10, eng.Now(), ids[0])
		seen := map[uint64]bool{}
		for _, m := range got {
			if m.StreamID != st.ID {
				continue
			}
			seen[m.Seq] = true
			if m.Seq >= closed {
				t.Fatalf("stored MBR seq %d, but only %d closed", m.Seq, closed)
			}
			b := or.mbr(m.Seq)
			if d := b.minDist(q); math.Abs(d-m.DistLB) > 1e-9 {
				t.Fatalf("seq %d: oracle MINDIST %v, core %v", m.Seq, d, m.DistLB)
			}
		}
		for seq := uint64(0); seq < closed; seq++ {
			if !seen[seq] {
				t.Fatalf("MBR seq %d closed by the probe's count but is not in the store", seq)
			}
		}
		// And the candidate decision itself, at the workload's radius.
		for seq := uint64(0); seq < closed; seq++ {
			b := or.mbr(seq)
			sys := &summary.MBR{Lo: summary.Feature(b.lo[:]), Hi: summary.Feature(b.hi[:])}
			d, ok := core.MatchMBR(sys, summary.Feature(q[:]), queryRadius)
			if math.Abs(d-b.minDist(q)) > 1e-12 || ok != (b.minDist(q) <= queryRadius) {
				t.Fatalf("seq %d: MatchMBR (%v, %v) disagrees with oracle distance %v", seq, d, ok, b.minDist(q))
			}
		}
	}
}

// Two calls with the same arguments must yield walks that replay the same
// values; a different seed must not.
func TestNewWalksReplay(t *testing.T) {
	a, b, c := newWalks(3, 2, 2), newWalks(3, 2, 2), newWalks(4, 2, 2)
	differs := false
	for i := 0; i < 100; i++ {
		va, vb, vc := a[1][1].Next(), b[1][1].Next(), c[1][1].Next()
		if va != vb {
			t.Fatalf("value %d: %v vs %v from identical arguments", i, va, vb)
		}
		differs = differs || va != vc
	}
	if !differs {
		t.Fatal("seeds 3 and 4 generated the same walk")
	}
}

// --- -agree -----------------------------------------------------------------------

func setOf(workload, name string, values ...float64) resultSet {
	var set resultSet
	for i, v := range values {
		set.Outcomes = append(set.Outcomes, &outcome{Workload: workload, Seed: int64(i),
			Metrics: []metric{{Name: name, Value: v}}})
	}
	return set
}

func TestAgreeVerdicts(t *testing.T) {
	defs := []metricDef{{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.10}, {Name: "tput", Unit: "1/s", Better: "higher", Bound: 0.10}}
	w := workloads[0].Name
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{100, 140, 60, 100, 150, 50, 100, 130, 70, 100}
	for _, c := range []struct {
		metric string
		a, b   []float64
		want   verdictKind
	}{
		{"lat", steady, scale(1.05), agreed},
		{"lat", steady, scale(1.2), regressed},
		{"lat", steady, scale(0.5), agreed},     // better is never a regression
		{"tput", steady, scale(0.8), regressed}, // lower throughput is worse
		{"tput", steady, scale(1.3), agreed},
		{"lat", noisy, steady, unresolved}, // spread wider than the bound: no verdict, not a pass
		{"lat", steady, noisy, unresolved},
	} {
		got := compareSets(setOf(w, c.metric, c.a...), setOf(w, c.metric, c.b...), defs)
		if len(got) != 1 || got[0].Verdict != c.want {
			t.Errorf("%s %v -> %v: got %+v, want %s", c.metric, c.a[:2], c.b[:2], got, c.want)
		}
	}
}

func TestAgreeExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, set resultSet) string {
		b, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	w, m := workloads[1].Name, "detect_ms_p50"
	base := write("a.json", setOf(w, m, 50, 51, 49, 50, 50.5))
	same := write("b.json", setOf(w, m, 50.2, 51, 49.5, 50, 50.1))
	slow := write("c.json", setOf(w, m, 70, 71, 69, 70, 70.5))
	wild := write("d.json", setOf(w, m, 30, 90, 50, 10, 70))
	for _, c := range []struct {
		b    string
		code int
		word string
	}{{same, 0, "ok"}, {slow, 1, "REGRESSED"}, {wild, 3, "UNRESOLVED"}} {
		var out bytes.Buffer
		if code := run([]string{"-agree", base, c.b}, &out, &out); code != c.code {
			t.Errorf("-agree a %s: exit %d, want %d\n%s", filepath.Base(c.b), code, c.code, out.String())
		} else if !strings.Contains(out.String(), c.word) {
			t.Errorf("-agree a %s: output lacks %q:\n%s", filepath.Base(c.b), c.word, out.String())
		}
	}
}

// --- the contract -----------------------------------------------------------------

var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
)

// BENCHMARK.json is `-spec` output and stays inside the driver's limits.
func TestBenchmarkJSONIsTheSpec(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, specJSON()) {
		t.Errorf("BENCHMARK.json differs from `-spec` output; regenerate it with: bash benchmark/run.sh -spec > BENCHMARK.json")
	}
	spec := currentSpec()
	if len(onDisk) > 64<<10 || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("file of %d bytes, run_seconds %d", len(onDisk), spec.RunSeconds)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	used := map[string]bool{}
	check := func(name string) {
		if !nameRule.MatchString(name) || used[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		used[name] = true
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len([]rune(w.Why)) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is %d characters or not one line", w.Name, len([]rune(w.Why)))
		}
		if _, live := liveSpecs[w.Name]; !live && w.Name != simWorkload {
			t.Errorf("workload %s is declared but not runnable", w.Name)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check(m.Name)
		if !unitRule.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
		if !unitRule.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
		if !strings.Contains(m.Name, ".") {
			t.Errorf("per-layer metric %s lacks its <module>. prefix", m.Name)
		}
	}
}

func TestDriverLine(t *testing.T) {
	out := &outcome{Correct: true, Attempted: 12, Failed: 0}
	for _, m := range endToEnd {
		out.add(m.Name, 1.25, 3)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(driverLine(out), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Errorf("driver line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEnd {
		if got := metrics[m.Name]; got.Value != 1.25 || got.Unit != m.Unit {
			t.Errorf("%s = %+v, want 1.25 %s", m.Name, got, m.Unit)
		}
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the line, want %d", len(metrics), len(endToEnd))
	}
}

// A traced outcome lists every per-layer metric, in BENCHMARK.json order,
// whatever subset the workload measured.
func TestFillPerLayer(t *testing.T) {
	out := &outcome{Traced: true}
	out.add("sim.event_ns", 120, 5)
	out.add("dsp.push_ns", 40, 7)
	fillPerLayer(out)
	if len(out.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want %d", len(out.Metrics), len(perLayer))
	}
	for i, def := range perLayer {
		m := out.Metrics[i]
		want := map[string]float64{"sim.event_ns": 120, "dsp.push_ns": 40}[def.Name]
		if m.Name != def.Name || m.Unit != def.Unit || m.Value != want {
			t.Errorf("slot %d = %+v, want %s = %v %s", i, m, def.Name, want, def.Unit)
		}
	}
}

func TestTraceFlagForms(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"--workload x --trace 1 --seed 2", "--workload x -trace=1 --seed 2"},
		{"--trace 0", "-trace=0"},
		{"-trace -seed 2", "-trace=1 -seed 2"},
		{"-workload x -trace", "-workload x -trace=1"},
		{"-trace=0 -seed 1", "-trace=0 -seed 1"},
	} {
		if got := strings.Join(normalizeTrace(strings.Fields(c.in)), " "); got != c.want {
			t.Errorf("normalizeTrace(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	var out bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &out); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	out.Reset()
	if code := run([]string{"-spec"}, &out, &out); code != 0 || !bytes.Equal(out.Bytes(), specJSON()) {
		t.Errorf("-spec: exit %d, %d bytes", code, out.Len())
	}
}
