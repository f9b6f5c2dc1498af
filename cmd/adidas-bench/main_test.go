package main

import (
	"reflect"
	"strings"
	"testing"

	"streamdex/internal/experiments"
	"streamdex/internal/sim"
	"streamdex/internal/workload"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("50, 100,200")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{50, 100, 200}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseSizes = %v", got)
		}
	}
	for _, bad := range []string{"", "abc", "1", "50,,100"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) accepted", bad)
		}
	}
}

func fastBase() workload.Config {
	cfg := workload.DefaultConfig(0)
	cfg.Warmup = 5 * sim.Second
	cfg.Measure = 10 * sim.Second
	cfg.Core.WindowSize = 32
	cfg.Core.Beta = 5
	return cfg
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run("no-such-exp", "", fastBase(), 1)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, x := range registry {
		if !strings.Contains(err.Error(), x.name) {
			t.Errorf("error %q does not list %q", err, x.name)
		}
	}
}

func TestRunEveryRegisteredExperiment(t *testing.T) {
	for _, x := range registry {
		if err := run(x.name, "8,16", fastBase(), 2); err != nil {
			t.Errorf("run(%s): %v", x.name, err)
		}
	}
}

// TestTablesStableAcrossRuns: a table is a function of its config. Each
// registered experiment, run twice in one process, must render the same
// text — a cell that folds a map in iteration order, or reads any other
// per-run accident, flickers here.
func TestTablesStableAcrossRuns(t *testing.T) {
	sizes := []int{8, 16}
	e := env{base: fastBase(), paperSizes: sizes, overheadSizes: sizes, baselineSizes: sizes, workers: 2}
	for _, x := range registry {
		var out [2]string
		for i := range out {
			tab, err := x.run(e)
			if err != nil {
				t.Fatalf("%s: %v", x.name, err)
			}
			out[i] = tab.String()
		}
		if out[0] != out[1] {
			t.Errorf("%s rendered two different tables from one config:\n%s\n%s", x.name, out[0], out[1])
		}
	}
}

// TestRunAllVisitsRegistryInOrder swaps every experiment body for a
// recorder: -exp all must call each entry exactly once, in table order,
// with the baselines sweep capped whatever -sizes says.
func TestRunAllVisitsRegistryInOrder(t *testing.T) {
	saved := registry
	t.Cleanup(func() { registry = saved })
	registry = append(registry[:0:0], saved...)
	var want, visited []string
	for i := range registry {
		name := registry[i].name
		want = append(want, name)
		registry[i].run = func(e env) (*experiments.Table, error) {
			visited = append(visited, name)
			if !reflect.DeepEqual(e.paperSizes, []int{300, 500}) {
				t.Errorf("%s: paperSizes = %v", name, e.paperSizes)
			}
			if !reflect.DeepEqual(e.baselineSizes, []int{50, 100, 200}) {
				t.Errorf("%s: baselineSizes = %v, want the -exp all cap", name, e.baselineSizes)
			}
			return experiments.NewTable(name), nil
		}
	}
	if err := run("all", "300,500", fastBase(), 1); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(visited, want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
}

func TestRunSingleExperiments(t *testing.T) {
	// Exercise the cheap experiment paths end to end (output goes to
	// stdout; we only assert absence of errors).
	for _, exp := range []string{"table1", "fig3b", "ablation-batch", "ablation-adaptive", "ablation-hierarchy"} {
		if err := run(exp, "", fastBase(), 1); err != nil {
			t.Fatalf("run(%s): %v", exp, err)
		}
	}
}

func TestRunSweepExperimentWithCustomSizes(t *testing.T) {
	if err := run("fig6a", "8,16", fastBase(), 2); err != nil {
		t.Fatal(err)
	}
	if err := run("fig6a", "bogus", fastBase(), 1); err == nil {
		t.Fatal("bogus sizes accepted")
	}
}
