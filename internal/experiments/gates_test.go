package experiments

import (
	"testing"

	"streamdex/internal/sim"
	"streamdex/internal/workload"
)

// The ratio gates. Both experiments run in seeded virtual time, so the
// measured values below are facts of the protocol, not of the host; the
// thresholds leave room for deliberate protocol changes only.
const (
	// maxSkewRatio bounds the balanced arm's p99/mean per-node load at 50
	// nodes under Zipf(1.1) (measured 1.58; plain ring 2.12).
	maxSkewRatio = 2.0
	// At 500 nodes, koorde over chord: mean lookup hops strictly below
	// (the de Bruijn claim; measured 0.934x), maintenance bandwidth
	// (piggybacked pointer repair; 1.028x) and tree-multicast last
	// delivery (de Bruijn-aware arc splits; 1.106x) within the ceilings.
	maxHopsRatio  = 1.0
	maxMaintRatio = 1.3
	maxTailRatio  = 1.15
)

func TestLoadSkewGate(t *testing.T) {
	base := workload.DefaultConfig(0)
	base.Measure = 30 * sim.Second
	rows, err := LoadSkew([]int{50}, base, DefaultSkew, 0)
	if err != nil {
		t.Fatal(err)
	}
	off, on := rows[0], rows[1]
	if off.Replicas > 1 || on.Replicas != SkewReplicas || on.VNodes != SkewVNodes {
		t.Fatalf("rows are not the off/on pair: %+v %+v", off, on)
	}
	t.Logf("p99/mean at 50 nodes: on %.3f, off %.3f", on.Ratio, off.Ratio)
	if on.Ratio <= 0 || off.Ratio <= 0 {
		t.Fatalf("no load measured: on %.3f, off %.3f", on.Ratio, off.Ratio)
	}
	if on.Ratio > maxSkewRatio {
		t.Errorf("balanced arm (vnodes=%d replicas=%d) p99/mean %.3f exceeds the %.2f ceiling",
			on.VNodes, on.Replicas, on.Ratio, maxSkewRatio)
	}
	if on.Ratio > off.Ratio {
		t.Errorf("balancing made skew worse: p99/mean %.3f on vs %.3f off", on.Ratio, off.Ratio)
	}
}

func TestHeadToHeadGates(t *testing.T) {
	const largest = 500
	rows, err := HeadToHead([]int{50, largest}, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var chord, koorde *HeadToHeadRow
	for i := range rows {
		if r := &rows[i]; r.Nodes == largest {
			switch r.Machine {
			case "chord":
				chord = r
			case "koorde":
				koorde = r
			}
		}
	}
	if chord == nil || koorde == nil {
		t.Fatalf("no chord/koorde row pair at %d nodes", largest)
	}
	gates := []struct {
		what          string
		chord, koorde float64
		ceiling       float64
		strict        bool
	}{
		{"mean lookup hops", chord.LookupMeanHops, koorde.LookupMeanHops, maxHopsRatio, true},
		{"maintenance B/node/s", chord.MaintBytesPerNodeSec, koorde.MaintBytesPerNodeSec, maxMaintRatio, false},
		{"multicast last delivery ms", chord.MulticastLastMs, koorde.MulticastLastMs, maxTailRatio, false},
	}
	for _, g := range gates {
		if g.chord <= 0 {
			t.Errorf("%s: chord measured %v at %d nodes", g.what, g.chord, largest)
			continue
		}
		ratio := g.koorde / g.chord
		t.Logf("%s at %d nodes: koorde %.3f, chord %.3f (%.3fx)", g.what, largest, g.koorde, g.chord, ratio)
		if ratio > g.ceiling || (g.strict && ratio == g.ceiling) {
			t.Errorf("%s at %d nodes: koorde %.3f is %.3fx chord's %.3f, outside the %.2fx ceiling",
				g.what, largest, g.koorde, ratio, g.chord, g.ceiling)
		}
	}
}
