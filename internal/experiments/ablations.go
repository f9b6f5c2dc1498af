package experiments

import (
	"fmt"

	"streamdex/internal/adaptive"
	"streamdex/internal/baseline"
	"streamdex/internal/chord"
	"streamdex/internal/dht"
	"streamdex/internal/dsp"
	"streamdex/internal/hierarchy"
	"streamdex/internal/metrics"
	"streamdex/internal/overlay"
	"streamdex/internal/sim"
	"streamdex/internal/stream"
	"streamdex/internal/summary"
	"streamdex/internal/workload"
)

// --- Ablation A1: sequential vs. bidirectional range multicast (§IV-C) -----

// MulticastRow compares the two range-multicast strategies for one range
// width.
type MulticastRow struct {
	RangeNodes int
	SeqDelay   sim.Time
	BidiDelay  sim.Time
	TreeDelay  sim.Time
	SeqMsgs    int
	BidiMsgs   int
	TreeMsgs   int
}

// RangeMulticast measures completion delay (time until the last covered
// node delivers) and message count of both strategies on an n-node
// overlay of the named substrate (workload.NewSubstrate) with 50 ms hops,
// for each requested range width (in covered nodes). The substrate matters
// for the tree mode: its fan-out set is the substrate's own routing
// entries, and on Koorde wide arcs leave as routed split legs. An empty
// name means Chord.
func RangeMulticast(substrate string, n int, widths []int) ([]MulticastRow, error) {
	space := dht.NewSpace(20)
	ids := chord.EquidistantIDs(space, n)
	// Ring machines run A1 with a 4-entry successor list. A static
	// machine's successor list is half its leaf set, its short-range
	// routing state, so it keeps the 8 (L = 16) every other experiment
	// gives it.
	ring := chord.Config{Space: space, HopDelay: 50 * sim.Millisecond, SuccListLen: 4}
	if fac, ok := overlay.Lookup(substrate); ok && fac.Static {
		ring.SuccListLen = 8
	}
	rows := make([]MulticastRow, 0, len(widths))
	var err error
	run := func(width int, mode dht.RangeMode) (sim.Time, int) {
		eng := sim.NewEngine()
		var net *chord.Network
		if net, err = workload.NewSubstrate(eng, substrate, ring); err != nil {
			return 0, 0
		}
		net.BuildStable(ids, nil)
		var last sim.Time
		msgs := 0
		net.SetObserver(countObserver{onTransmit: func() { msgs++ }})
		for _, id := range net.NodeIDs() {
			net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
				last = eng.Now()
				dht.ContinueRange(net, self, msg, 1)
			}))
		}
		// Cover exactly `width` nodes starting away from the sender.
		lo := ids[n/4]
		hi := ids[(n/4+width-1)%n]
		dht.SendRange(net, ids[0], lo, hi, &dht.Message{}, mode)
		eng.Run()
		return last, msgs
	}
	for _, w := range widths {
		if w < 1 || w > n {
			return nil, fmt.Errorf("experiments: range width %d on %d nodes", w, n)
		}
		sd, sm := run(w, dht.RangeSequential)
		bd, bm := run(w, dht.RangeBidirectional)
		td, tm := run(w, dht.RangeTree)
		if err != nil {
			return nil, err
		}
		rows = append(rows, MulticastRow{
			RangeNodes: w,
			SeqDelay:   sd, BidiDelay: bd, TreeDelay: td,
			SeqMsgs: sm, BidiMsgs: bm, TreeMsgs: tm,
		})
	}
	return rows, nil
}

// machineLabel names the ring machine a table ran on; the empty default
// is Chord, matching chord.Config.
func machineLabel(machine string) string {
	if machine == "" {
		return "chord"
	}
	return machine
}

type countObserver struct {
	onTransmit func()
}

func (o countObserver) OnTransmit(from, to dht.Key, msg *dht.Message) { o.onTransmit() }
func (o countObserver) OnDeliver(at dht.Key, msg *dht.Message)        {}

// AblationMulticast renders the A1 comparison RangeMulticast measured on n
// nodes of the named substrate.
func AblationMulticast(substrate string, n int, rows []MulticastRow) *Table {
	t := NewTable(fmt.Sprintf("Ablation A1: range multicast on %d %s nodes (50 ms/hop)", n, machineLabel(substrate)),
		"range-nodes", "seq-delay", "bidi-delay", "tree-delay", "seq-msgs", "bidi-msgs", "tree-msgs")
	for _, r := range rows {
		t.AddRow(r.RangeNodes, r.SeqDelay.String(), r.BidiDelay.String(), r.TreeDelay.String(),
			r.SeqMsgs, r.BidiMsgs, r.TreeMsgs)
	}
	t.AddNote("bidirectional propagation roughly halves wide-range delay at equal message cost (§IV-C);")
	t.AddNote("finger-tree dissemination makes it logarithmic — the native range multicast §VI-B calls for")
	return t
}

// --- Ablation A2: distributed index vs. centralized vs. flooding (§IV-A) ---

// BaselineRow compares the three designs at one system size.
type BaselineRow struct {
	Nodes     int
	Design    string
	MeanLoad  float64
	MaxLoad   float64
	Imbalance float64 // max / mean
	QueryMsgs float64 // query-related messages per query event
}

// Baselines runs the distributed middleware and both strawmen on the same
// workload.
func Baselines(sizes []int, base workload.Config, workers int) ([]BaselineRow, error) {
	var rows []BaselineRow
	type job struct {
		row BaselineRow
		err error
	}
	var jobs []func() job
	for _, n := range sizes {
		n := n
		cfg := base
		cfg.Nodes = n
		jobs = append(jobs, func() job {
			rep, err := workload.RunOnce(cfg)
			if err != nil {
				return job{err: err}
			}
			return job{row: baselineRow(n, "distributed", rep)}
		})
		for _, mode := range []baseline.Mode{baseline.Centralized, baseline.Flooding} {
			mode := mode
			jobs = append(jobs, func() job {
				bcfg := baseline.DefaultConfig(mode, n)
				bcfg.WindowSize = cfg.Core.WindowSize
				bcfg.Beta = cfg.Core.Beta
				bcfg.Warmup, bcfg.Measure = cfg.Warmup, cfg.Measure
				bcfg.Radius = cfg.Radius
				bcfg.Seed = cfg.Seed
				sys, err := baseline.Build(bcfg)
				if err != nil {
					return job{err: err}
				}
				return job{row: baselineRow(n, mode.String(), sys.Execute())}
			})
		}
	}
	for _, res := range Parallel(workers, jobs) {
		if res.err != nil {
			return nil, res.err
		}
		rows = append(rows, res.row)
	}
	return rows, nil
}

func baselineRow(n int, design string, rep *metrics.Report) BaselineRow {
	var sum float64
	for _, id := range rep.NodeIDs() {
		sum += rep.NodeLoad[id]
	}
	mean := sum / float64(len(rep.NodeLoad))
	_, max := rep.MaxLoadNode()
	imb := 0.0
	if mean > 0 {
		imb = max / mean
	}
	qm := rep.Overhead(metrics.QueryInitial, metrics.EventQuery) +
		rep.Overhead(metrics.QueryRange, metrics.EventQuery) +
		rep.Overhead(metrics.QueryTransit, metrics.EventQuery)
	return BaselineRow{Nodes: n, Design: design, MeanLoad: mean, MaxLoad: max, Imbalance: imb, QueryMsgs: qm}
}

// AblationBaselines renders the A2 comparison.
func AblationBaselines(rows []BaselineRow) *Table {
	t := NewTable("Ablation A2: distributed index vs. centralized vs. flooding",
		"nodes", "design", "mean-load/s", "max-load/s", "imbalance", "query-msgs/query")
	for _, r := range rows {
		t.AddRow(r.Nodes, r.Design, r.MeanLoad, r.MaxLoad, r.Imbalance, r.QueryMsgs)
	}
	t.AddNote("centralized: max-load explodes with N (hotspot, single point of failure);")
	t.AddNote("flooding: query cost ~N; distributed: balanced load, query cost ~r*N + log N")
	return t
}

// --- Ablation A3: MBR batching factor sweep (§IV-G) -------------------------

// BatchRow reports the bandwidth/precision trade-off of one batching
// factor.
type BatchRow struct {
	Beta          int
	MBRsPerSecond float64 // update messages per stream per second
	AvgSide       float64 // mean longest MBR side (precision)
	FalsePositive float64 // fraction of candidate matches that fail the exact test
}

// BatchSweep measures, for each batching factor, the stream's MBR rate and
// the false-positive rate of the candidate test against random similarity
// probes. Smaller beta means more update messages but tighter rectangles.
func BatchSweep(betas []int, radius float64, seed int64) []BatchRow {
	const (
		window  = 128
		dims    = 3
		steps   = 20000
		period  = 200 * sim.Millisecond
		queries = 400
	)
	rows := make([]BatchRow, 0, len(betas))
	for _, beta := range betas {
		rng := sim.NewRand(seed)
		gen := stream.DefaultRandomWalk(rng.Fork("walk"))
		sdft := dsp.NewSlidingDFT(window, dims/2+2)
		bt := summary.NewBatcher("s", beta)
		var mbrs []*summary.MBR
		var feats [][]summary.Feature // features inside each MBR
		var cur []summary.Feature
		var sideSum float64
		for i := 0; i < steps; i++ {
			sdft.Push(gen.Next())
			if !sdft.Full() {
				continue
			}
			f := summary.FromCoeffs(sdft.NormalizedCoeffs(dsp.ZNorm), dims, true)
			cur = append(cur, f)
			if b := bt.Add(f); b != nil {
				mbrs = append(mbrs, b)
				feats = append(feats, cur)
				cur = nil
				sideSum += b.MaxSide()
			}
		}
		if len(mbrs) == 0 {
			panic("experiments: batch sweep produced no MBRs")
		}
		// Probe with random query points; a candidate is a false
		// positive when no contained feature is truly within radius.
		qRng := rng.Fork("probes")
		candidates, falsePos := 0, 0
		for i := 0; i < queries; i++ {
			q := make(summary.Feature, dims)
			q[0] = qRng.Uniform(-1, 1)
			for d := 1; d < dims; d++ {
				q[d] = qRng.Uniform(-0.3, 0.3)
			}
			for mi, b := range mbrs {
				if b.MinDist(q) > radius {
					continue
				}
				candidates++
				real := false
				for _, f := range feats[mi] {
					if f.Dist(q) <= radius {
						real = true
						break
					}
				}
				if !real {
					falsePos++
				}
			}
		}
		fp := 0.0
		if candidates > 0 {
			fp = float64(falsePos) / float64(candidates)
		}
		rows = append(rows, BatchRow{
			Beta:          beta,
			MBRsPerSecond: 1 / (float64(beta) * period.Seconds()),
			AvgSide:       sideSum / float64(len(mbrs)),
			FalsePositive: fp,
		})
	}
	return rows
}

// AblationBatch renders the A3 sweep.
func AblationBatch(rows []BatchRow, radius float64) *Table {
	t := NewTable(fmt.Sprintf("Ablation A3: MBR batching factor sweep (radius=%.2f)", radius),
		"beta", "MBRs/s per stream", "avg-side", "false-positive-rate")
	for _, r := range rows {
		t.AddRow(r.Beta, r.MBRsPerSecond, fmt.Sprintf("%.4f", r.AvgSide), fmt.Sprintf("%.3f", r.FalsePositive))
	}
	t.AddNote("larger beta cuts update bandwidth linearly but widens rectangles, raising false positives (§IV-G)")
	return t
}

// --- Ablation A4: fixed vs. adaptive MBR precision (§VI-A) ------------------

// AdaptiveRow compares one strategy on a regime-switching stream.
type AdaptiveRow struct {
	Strategy string
	MBRCount int
	AvgSide  float64
	WideMBRs int // rectangles wider than the precision target
}

// AdaptiveComparison runs two fixed-factor batchers (loose and tight) and
// the adaptive controller over the same regime-switching stream: a stable
// periodic signal (features nearly static), then a volatile random walk
// (features drifting fast), then the stable regime again.
func AdaptiveComparison(fixedBeta int, radius float64, seed int64) []AdaptiveRow {
	const (
		window = 256
		dims   = 3
		phase  = 8000
	)
	target := adaptive.TargetForRadius(radius)
	makeGen := func() func(i int) float64 {
		rng := sim.NewRand(seed)
		calm := stream.NewSine(rng.Fork("calm"), 3, 32, 500, 0.2)
		wild := stream.NewRandomWalk(rng.Fork("wild"), 500, 5, 0, 1000)
		return func(i int) float64 {
			if i/phase == 1 { // middle phase is volatile
				return wild.Next()
			}
			return calm.Next()
		}
	}
	type batcher interface {
		Add(summary.Feature) *summary.MBR
	}
	run := func(name string, bt batcher) AdaptiveRow {
		gen := makeGen()
		sdft := dsp.NewSlidingDFT(window, dims/2+2)
		row := AdaptiveRow{Strategy: name}
		var sideSum float64
		for i := 0; i < 3*phase; i++ {
			sdft.Push(gen(i))
			if !sdft.Full() {
				continue
			}
			f := summary.FromCoeffs(sdft.NormalizedCoeffs(dsp.ZNorm), dims, true)
			if b := bt.Add(f); b != nil {
				row.MBRCount++
				sideSum += b.MaxSide()
				if b.MaxSide() > target {
					row.WideMBRs++
				}
			}
		}
		if row.MBRCount > 0 {
			row.AvgSide = sideSum / float64(row.MBRCount)
		}
		return row
	}
	loose := run(fmt.Sprintf("fixed beta=%d", fixedBeta), summary.NewBatcher("s", fixedBeta))
	tight := run("fixed beta=2", summary.NewBatcher("s", 2))
	ctl := adaptive.NewController(1, 4*fixedBeta, target)
	adapt := run("adaptive", adaptive.NewBatcher("s", ctl))
	return []AdaptiveRow{loose, tight, adapt}
}

// AblationAdaptive renders the A4 comparison. The machine names the ring
// substrate the MBR updates would travel: the batching decision itself is
// overlay-independent, but each MBR sent costs that machine's per-lookup
// hops, so the row counts read against the named machine's transit price.
func AblationAdaptive(machine string, rows []AdaptiveRow, radius float64) *Table {
	t := NewTable(fmt.Sprintf("Ablation A4: fixed vs. adaptive MBR precision (radius=%.2f, %s substrate)",
		radius, machineLabel(machine)),
		"strategy", "MBRs-sent", "avg-side", "over-target-MBRs")
	for _, r := range rows {
		t.AddRow(r.Strategy, r.MBRCount, fmt.Sprintf("%.4f", r.AvgSide), r.WideMBRs)
	}
	t.AddNote("the adaptive controller keeps rectangles near the precision target across regimes (§VI-A),")
	t.AddNote("spending updates in the volatile phase and saving them in calm phases; each MBR sent")
	t.AddNote(fmt.Sprintf("costs one %s routed update on the wire", machineLabel(machine)))
	return t
}

// --- Ablation A5: flat range multicast vs. cluster-leader hierarchy (§VI-B) -

// HierarchyRow compares the two designs for one query radius.
type HierarchyRow struct {
	Radius          float64
	FlatMsgs        int
	HierMsgs        int
	HierClimb       int
	CandidateLeaves int
}

// HierarchyComparison measures candidate-discovery cost for increasingly
// wide queries on n data centers of which only every k-th holds summaries
// near its position (sparse occupancy, the regime the hierarchy targets).
func HierarchyComparison(n int, radii []float64, sparsity int) []HierarchyRow {
	h := hierarchy.New(n, hierarchy.DefaultConfig())
	for i := 0; i < n; i += sparsity {
		center := -1 + 2*(float64(i)+0.5)/float64(n)
		h.Update(i, hierarchy.Interval{Lo: center - 0.005, Hi: center + 0.005})
	}
	rows := make([]HierarchyRow, 0, len(radii))
	for _, r := range radii {
		q := hierarchy.Interval{Lo: -r, Hi: r}
		res := h.Query(n/3, q)
		rows = append(rows, HierarchyRow{
			Radius:          r,
			FlatMsgs:        hierarchy.FlatCost(n, q),
			HierMsgs:        res.Msgs,
			HierClimb:       res.ClimbLevels,
			CandidateLeaves: len(res.Leaves),
		})
	}
	return rows
}

// AblationHierarchy renders the A5 comparison. The machine names the ring
// the flat multicast and the hierarchy's climb/fan-out messages travel:
// both columns count overlay-logical messages, so the named machine sets
// the per-message routing price the comparison is read against.
func AblationHierarchy(machine string, n int, rows []HierarchyRow) *Table {
	t := NewTable(fmt.Sprintf("Ablation A5: flat multicast vs. cluster-leader hierarchy (%d %s nodes)",
		n, machineLabel(machine)),
		"radius", "flat-msgs", "hierarchy-msgs", "climb-levels", "candidate-leaves")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.2f", r.Radius), r.FlatMsgs, r.HierMsgs, r.HierClimb, r.CandidateLeaves)
	}
	t.AddNote("flat cost grows linearly with the radius; the hierarchy pays a logarithmic climb plus")
	t.AddNote("fan-out only into subtrees that actually hold candidates (§VI-B); message counts are")
	t.AddNote(fmt.Sprintf("overlay-logical — each one routes over the %s ring", machineLabel(machine)))
	return t
}
