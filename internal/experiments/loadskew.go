package experiments

// The load-skew experiment: the Table I workload with Zipf(1.1) query
// targeting — a handful of hot coordinates receive most of the queries, so
// the nodes covering their key ranges melt while the rest of the ring
// idles. The experiment contrasts the plain system with the balanced one
// (virtual nodes + covering-range replication + power-of-two-choices read
// fan-out) at each system size and reports the per-physical-node load
// spread: mean, p99, max, the Gini coefficient, and the headline p99/mean
// ratio before vs after.

import (
	"fmt"
	"sort"

	"streamdex/internal/metrics"
	"streamdex/internal/workload"
)

// DefaultSkew is the Zipf exponent of the worst-case workload (s ≈ 1.1,
// the slope of measured web-object popularity curves).
const DefaultSkew = 1.1

// Balancing knobs used by the "on" arm of the experiment.
const (
	// SkewVNodes is the virtual-node count per physical node.
	SkewVNodes = 4
	// SkewReplicas is the covering-range replication factor.
	SkewReplicas = 3
)

// SkewRow is the per-node load spread at one system size and one
// machinery setting.
type SkewRow struct {
	Nodes    int
	VNodes   int
	Replicas int
	// Mean, P99 and Max are per-physical-node message rates (msgs/s);
	// with virtual nodes a physical node's rate is the sum over its ring
	// positions.
	Mean float64
	P99  float64
	Max  float64
	// Gini is the Gini coefficient of the physical-node load vector
	// (0 = perfectly even, →1 = one node carries everything).
	Gini float64
	// Ratio is P99/Mean — the headline imbalance number.
	Ratio float64
}

// physLoads folds the per-ring-id load report onto physical nodes using
// the run's id→owner map and returns one rate per physical node.
func physLoads(run *workload.Run, rep *metrics.Report) []float64 {
	loads := make([]float64, run.Cfg.Nodes)
	for _, id := range rep.NodeIDs() {
		if phys, ok := run.PhysOf[id]; ok {
			loads[phys] += rep.NodeLoad[id]
		}
	}
	return loads
}

// skewStats summarizes a physical-node load vector.
func skewStats(loads []float64) (mean, p99, max float64) {
	if len(loads) == 0 {
		return 0, 0, 0
	}
	sorted := append([]float64(nil), loads...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, l := range sorted {
		sum += l
	}
	mean = sum / float64(len(sorted))
	p99 = sorted[int(0.99*float64(len(sorted)-1))]
	max = sorted[len(sorted)-1]
	return mean, p99, max
}

// skewRun executes the Zipf workload once and reduces it to a SkewRow.
func skewRun(cfg workload.Config) (SkewRow, error) {
	run, err := workload.Build(cfg)
	if err != nil {
		return SkewRow{}, err
	}
	rep := run.Execute()
	loads := physLoads(run, rep)
	mean, p99, max := skewStats(loads)
	row := SkewRow{
		Nodes:    cfg.Nodes,
		VNodes:   cfg.VNodes,
		Replicas: cfg.Core.Replicas,
		Mean:     mean,
		P99:      p99,
		Max:      max,
		Gini:     metrics.Gini(loads),
	}
	if mean > 0 {
		row.Ratio = p99 / mean
	}
	return row, nil
}

// LoadSkew sweeps the Zipf(s) workload over the given sizes, once with the
// balancing machinery off (plain ring) and once with it on (SkewVNodes
// virtual nodes per physical node, SkewReplicas-way covering-range
// replication with read fan-out). The base configuration's Skew is forced;
// everything else is taken as given. Rows come back interleaved: for each
// size, the "off" row first, then the "on" row.
func LoadSkew(sizes []int, base workload.Config, skew float64, workers int) ([]SkewRow, error) {
	type arm struct {
		size int
		on   bool
	}
	arms := make([]arm, 0, 2*len(sizes))
	for _, n := range sizes {
		arms = append(arms, arm{n, false}, arm{n, true})
	}
	jobs := make([]func() skewResult, len(arms))
	for i, a := range arms {
		cfg := base
		cfg.Nodes = a.size
		cfg.Skew = skew
		if a.on {
			cfg.VNodes = SkewVNodes
			cfg.Core.Replicas = SkewReplicas
		} else {
			cfg.VNodes = 0
			cfg.Core.Replicas = 0
		}
		jobs[i] = func() skewResult {
			row, err := skewRun(cfg)
			return skewResult{row, err}
		}
	}
	results := Parallel(workers, jobs)
	rows := make([]SkewRow, len(arms))
	for i, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("experiments: loadskew size %d: %w", arms[i].size, r.err)
		}
		rows[i] = r.row
	}
	return rows, nil
}

type skewResult struct {
	row SkewRow
	err error
}

// FigLoadSkew renders the load-skew table.
func FigLoadSkew(skew float64, rows []SkewRow) *Table {
	t := NewTable(fmt.Sprintf("Load skew: per-node load spread under Zipf(%.1f) query targeting", skew),
		"nodes", "vnodes", "replicas", "mean", "p99", "max", "gini", "p99/mean")
	for _, r := range rows {
		t.AddRow(r.Nodes, r.VNodes, r.Replicas, r.Mean, r.P99, r.Max, r.Gini, r.Ratio)
	}
	t.AddNote("rows alternate machinery off/on per size; the headline is the p99/mean drop at 500 nodes")
	t.AddNote("expected shape: plain ring p99/mean grows with N (hot ranges cover a shrinking node")
	t.AddNote("fraction); vnodes + %d-way replication with p2c reads holds p99 <= 2x mean", SkewReplicas)
	return t
}
