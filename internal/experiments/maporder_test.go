package experiments

import (
	"slices"
	"testing"

	"streamdex/internal/dht"
	"streamdex/internal/metrics"
	"streamdex/internal/workload"
)

// TestLoadSumsIgnoreMapOrder: a table cell computed from Report.NodeLoad
// must not depend on map iteration order. Loads of mixed magnitude make a
// float sum order-sensitive in its last bits; both folds must return
// bit-identical results on every call.
func TestLoadSumsIgnoreMapOrder(t *testing.T) {
	const ringIDs, nodes = 300, 100
	rep := &metrics.Report{NodeLoad: make(map[dht.Key]float64, ringIDs)}
	run := &workload.Run{PhysOf: make(map[dht.Key]int, ringIDs)}
	run.Cfg.Nodes = nodes
	for i := 0; i < ringIDs; i++ {
		id := dht.Key(i*7919 + 1)
		rep.NodeLoad[id] = 1e-3*float64(i) + 1.0/3
		run.PhysOf[id] = i % nodes // three ring ids per physical node
	}
	row, loads := baselineRow(nodes, "crafted", rep), physLoads(run, rep)
	for i := 0; i < 50; i++ {
		if got := baselineRow(nodes, "crafted", rep); got != row {
			t.Fatalf("call %d: baselineRow = %+v, first call %+v", i, got, row)
		}
		if got := physLoads(run, rep); !slices.Equal(got, loads) {
			t.Fatalf("call %d: physLoads differs from the first call", i)
		}
	}
}
