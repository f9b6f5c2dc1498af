package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"streamdex/internal/experiments"
	"streamdex/internal/sim"
	"streamdex/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden")

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

// substrates are the simulated routing layers -substrate accepts.
var substrates = []string{"chord", "koorde", "pastry"}

// TestRunEveryRegisteredExperiment: on every substrate each registry entry
// prints its table or returns a one-line error, and never panics. The only
// error is ablation-resilience on pastry: that overlay is static, so it
// cannot fail nodes.
func TestRunEveryRegisteredExperiment(t *testing.T) {
	for _, sub := range substrates {
		base := fastBase()
		base.Substrate = sub
		for _, x := range registry {
			err := run(x.name, "8,16", base, 2)
			wantErr := sub == "pastry" && x.name == "ablation-resilience"
			switch {
			case err != nil && !wantErr:
				t.Errorf("%s/%s: %v", sub, x.name, err)
			case err == nil && wantErr:
				t.Errorf("%s/%s: ran on a static overlay", sub, x.name)
			case err != nil && strings.Contains(err.Error(), "\n"):
				t.Errorf("%s/%s: multi-line error %q", sub, x.name, err)
			}
		}
	}
}

// TestTablesStableAcrossRuns: a table is a function of its config. Each
// registered experiment, run twice in one process, must render the same
// text — a cell that folds a map in iteration order, or reads any other
// per-run accident, flickers here. The rendering on every simulated
// substrate must also match testdata/tables.golden byte for byte: a
// refactor that moves any table (or turns an error into a table, or back)
// shows up as a diff. Regenerating with -update is a decision to state,
// never a routine step.
func TestTablesStableAcrossRuns(t *testing.T) {
	sizes := []int{8, 16}
	var all strings.Builder
	for _, sub := range substrates {
		base := fastBase()
		base.Substrate = sub
		e := env{base: base, paperSizes: sizes, overheadSizes: sizes, baselineSizes: sizes, workers: 2}
		for _, x := range registry {
			var out [2]string
			for i := range out {
				tab, err := x.run(e)
				if err != nil {
					out[i] = "error: " + err.Error() + "\n"
					continue
				}
				out[i] = tab.String()
			}
			if out[0] != out[1] {
				t.Errorf("%s/%s rendered two different tables from one config:\n%s\n%s", sub, x.name, out[0], out[1])
			}
			fmt.Fprintf(&all, "=== %s %s\n%s\n", sub, x.name, out[0])
		}
	}
	const golden = "testdata/tables.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got := all.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("tables differ from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
			}
		}
	}
}

// TestRunAllVisitsRegistryInOrder swaps every experiment body for a
// recorder: -exp all must call each entry exactly once, in table order,
// with the baselines sweep capped whatever -sizes says, and an entry that
// fails must not stop the ones after it.
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
			if i == 1 {
				return nil, errors.New("static overlay")
			}
			return experiments.NewTable(name), nil
		}
	}
	err := run("all", "300,500", fastBase(), 1)
	if want := want[1] + ": static overlay"; err == nil || err.Error() != want {
		t.Fatalf("run(all) = %v, want %q", err, want)
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
