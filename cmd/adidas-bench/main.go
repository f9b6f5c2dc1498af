// Command adidas-bench regenerates the tables and figures of the paper's
// evaluation (§V) and the ablations described in DESIGN.md.
//
// Usage:
//
//	adidas-bench -exp all
//	adidas-bench -exp fig6a -sizes 50,100,200,300,500
//	adidas-bench -exp ablation-baselines -sizes 50,100 -measure 60
//	adidas-bench -exp fig6a -substrate koorde   # figure rows on another ring machine
//
// The experiment names are the registry below; `adidas-bench -h` lists
// them. Every experiment is deterministic for a fixed -seed. Sweeps run
// one simulation per parameter point, in parallel across -workers
// goroutines.
//
// This command prints simulator tables only. Wall-clock performance of
// the live ring is measured by benchmark/ (`bash benchmark/run.sh`); the
// deterministic skew and substrate ratio gates are tests in
// internal/experiments.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"streamdex/internal/experiments"
	"streamdex/internal/sim"
	"streamdex/internal/workload"
)

// env is what an experiment may read: the workload template and the
// sweep sizes after -sizes has been applied.
type env struct {
	base          workload.Config
	paperSizes    []int
	overheadSizes []int
	// baselineSizes is overheadSizes, capped under -exp all: the strawmen
	// get expensive fast.
	baselineSizes []int
	workers       int
}

// registry is every experiment in the order -exp all prints them. The
// -exp help and the unknown-name error are generated from it.
var registry = []struct {
	name string
	run  func(env) (*experiments.Table, error)
}{
	{"table1", func(env) (*experiments.Table, error) {
		return experiments.TableI(), nil
	}},
	{"fig3b", func(e env) (*experiments.Table, error) {
		return experiments.Fig3b(128, 3, 20000, e.base.Seed), nil
	}},
	{"fig6a", func(e env) (*experiments.Table, error) {
		return rendered(experiments.Fig6a)(experiments.LoadVsNodes(e.paperSizes, e.base, e.workers))
	}},
	{"fig6b", func(e env) (*experiments.Table, error) {
		return rendered(experiments.Fig6b)(experiments.LoadDistribution(200, 8, e.base))
	}},
	{"fig7a", func(e env) (*experiments.Table, error) {
		rows, err := experiments.Overhead(e.overheadSizes, e.base, 0.1, e.workers)
		if err != nil {
			return nil, err
		}
		return experiments.Fig7("a", 0.1, rows), nil
	}},
	{"fig7b", func(e env) (*experiments.Table, error) {
		rows, err := experiments.Overhead(e.overheadSizes, e.base, 0.2, e.workers)
		if err != nil {
			return nil, err
		}
		return experiments.Fig7("b", 0.2, rows), nil
	}},
	{"fig8", func(e env) (*experiments.Table, error) {
		return rendered(experiments.Fig8)(experiments.Hops(e.paperSizes, e.base, e.workers))
	}},
	{"cqe", func(e env) (*experiments.Table, error) {
		return rendered(experiments.FigCQE)(experiments.CQELoad(e.overheadSizes, e.base, e.workers))
	}},
	{"loadskew", func(e env) (*experiments.Table, error) {
		rows, err := experiments.LoadSkew(e.paperSizes, e.base, experiments.DefaultSkew, e.workers)
		if err != nil {
			return nil, err
		}
		return experiments.FigLoadSkew(experiments.DefaultSkew, rows), nil
	}},
	{"ablation-multicast", func(e env) (*experiments.Table, error) {
		rows, err := experiments.RangeMulticast(e.base.Substrate, 256, []int{2, 4, 8, 16, 32, 64})
		if err != nil {
			return nil, err
		}
		return experiments.AblationMulticast(e.base.Substrate, 256, rows), nil
	}},
	{"ablation-baselines", func(e env) (*experiments.Table, error) {
		return rendered(experiments.AblationBaselines)(experiments.Baselines(e.baselineSizes, e.base, e.workers))
	}},
	{"ablation-batch", func(e env) (*experiments.Table, error) {
		rows := experiments.BatchSweep([]int{1, 5, 10, 25, 50}, e.base.Radius, e.base.Seed)
		return experiments.AblationBatch(rows, e.base.Radius), nil
	}},
	{"ablation-adaptive", func(e env) (*experiments.Table, error) {
		cmp := experiments.AdaptiveComparison(32, e.base.Radius, e.base.Seed)
		return experiments.AblationAdaptive(e.base.Substrate, cmp, e.base.Radius), nil
	}},
	{"ablation-hierarchy", func(e env) (*experiments.Table, error) {
		radii := []float64{0.05, 0.1, 0.2, 0.4, 0.8}
		return experiments.AblationHierarchy(e.base.Substrate, 512, experiments.HierarchyComparison(512, radii, 16)), nil
	}},
	{"ablation-resilience", func(e env) (*experiments.Table, error) {
		return rendered(experiments.AblationResilience)(experiments.Resilience(100, []int{0, 5, 10, 20}, e.base, e.workers))
	}},
	{"ablation-treehops", func(e env) (*experiments.Table, error) {
		return rendered(experiments.AblationTreeHops)(experiments.TreeHops(e.paperSizes, e.base, e.workers))
	}},
	{"ablation-bandwidth", func(e env) (*experiments.Table, error) {
		rows, err := experiments.Bandwidth(100, []int{1, 5, 10, 25, 50}, e.base, e.workers)
		if err != nil {
			return nil, err
		}
		return experiments.AblationBandwidth(100, rows), nil
	}},
	{"ablation-substrates", func(e env) (*experiments.Table, error) {
		return rendered(experiments.AblationSubstrates)(experiments.Substrates([]int{100, 300}, e.base, e.workers))
	}},
	{"headtohead", func(e env) (*experiments.Table, error) {
		return rendered(experiments.HeadToHeadTable)(experiments.HeadToHead(e.paperSizes, e.base.Seed, 0, e.workers))
	}},
}

// rendered turns a sweep's (rows, error) result into a registry entry's:
// fig draws the rows unless the sweep failed.
func rendered[R any](fig func(R) *experiments.Table) func(R, error) (*experiments.Table, error) {
	return func(rows R, err error) (*experiments.Table, error) {
		if err != nil {
			return nil, err
		}
		return fig(rows), nil
	}
}

// names lists the registered experiments, in registry order.
func names() string {
	var out []string
	for _, x := range registry {
		out = append(out, x.name)
	}
	return strings.Join(out, ", ")
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run: "+names()+", or all")
		sizes   = flag.String("sizes", "", "comma-separated node counts (default: the paper's)")
		seed    = flag.Int64("seed", 1, "root random seed")
		warmup  = flag.Int("warmup", 40, "warm-up interval, seconds of virtual time")
		measure = flag.Int("measure", 100, "measurement interval, seconds of virtual time")
		workers = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		radius  = flag.Float64("radius", 0.1, "similarity query radius for load/hop experiments")
		machine = flag.String("substrate", "", "routing substrate for the experiments: chord, koorde or pastry; empty = chord")
	)
	flag.Parse()

	base := workload.DefaultConfig(0)
	base.Seed = *seed
	base.Warmup = sim.Time(*warmup) * sim.Second
	base.Measure = sim.Time(*measure) * sim.Second
	base.Radius = *radius
	base.Substrate = *machine

	if err := run(*exp, *sizes, base, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "adidas-bench: %v\n", err)
		os.Exit(1)
	}
}

// run prints the table of experiment exp, or of every registered
// experiment in registry order when exp is "all".
func run(exp, sizesFlag string, base workload.Config, workers int) error {
	e := env{
		base:          base,
		paperSizes:    experiments.PaperSizes,
		overheadSizes: experiments.OverheadSizes,
		workers:       workers,
	}
	if sizesFlag != "" {
		parsed, err := parseSizes(sizesFlag)
		if err != nil {
			return err
		}
		e.paperSizes, e.overheadSizes = parsed, parsed
	}
	e.baselineSizes = e.overheadSizes
	if exp == "all" {
		e.baselineSizes = []int{50, 100, 200}
	}

	ran := false
	var errs []error
	for _, x := range registry {
		if exp != "all" && exp != x.name {
			continue
		}
		ran = true
		t, err := x.run(e)
		if err != nil {
			// One experiment that cannot run on this substrate does not
			// hide the tables of the others under -exp all.
			errs = append(errs, fmt.Errorf("%s: %w", x.name, err))
			continue
		}
		fmt.Println(t.String())
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (valid: %s, all)", exp, names())
	}
	return errors.Join(errs...)
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
