package experiments

import (
	"sort"
	"testing"

	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/workload"
)

// The ratio gates. All three experiments run in seeded virtual time, so the
// measured values below are facts of the protocol, not of the host; the
// thresholds leave room for deliberate protocol changes only.
const (
	// maxSkewRatio bounds the balanced arm's p99/mean per-node load at 50
	// nodes under Zipf(1.1) (measured 1.57; plain ring 2.20).
	maxSkewRatio = 2.0
	// At 500 nodes, koorde over chord: mean lookup hops strictly below
	// (the de Bruijn claim; measured 0.934x), maintenance bandwidth
	// (piggybacked pointer repair; 1.028x) and tree-multicast last
	// delivery (de Bruijn-aware arc splits; 1.106x) within the ceilings.
	maxHopsRatio  = 1.0
	maxMaintRatio = 1.3
	maxTailRatio  = 1.15
	// maxFirstAnswerRatio bounds the median time to the first match, in
	// push periods, of a query that has a candidate in store when it is
	// posted, on the 50-node Table I ring (measured 0.225: nine 50 ms hops
	// of query, notify and response routing; 0.818 when the registration
	// walk's candidates waited for the coverer's and the middle node's
	// push timers).
	maxFirstAnswerRatio = 0.25
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

// TestFirstAnswerGate posts, on top of the Table I load, queries for the
// current feature of a live stream — its latest MBR is in some coverer's
// store, so the registration walk finds a candidate — every 0.7 s, a step
// that walks the posts through every phase of the 2 s push timers.
func TestFirstAnswerGate(t *testing.T) {
	const probes = 60
	cfg := workload.DefaultConfig(50)
	r, err := workload.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First match of every query, the Table I background ones included: a
	// client on the middle node is answered from inside PostSimilarity,
	// before the probe knows its id.
	first := map[query.ID]sim.Time{}
	r.MW.OnSimilarity = func(id query.ID, fresh []query.Match) {
		if _, seen := first[id]; !seen && len(fresh) > 0 {
			first[id] = r.Eng.Now()
		}
	}
	r.Eng.RunFor(cfg.Warmup)
	posted := map[query.ID]sim.Time{}
	for i := 0; i < probes; i++ {
		src := r.MW.DataCenter(r.Primaries[(7*i)%len(r.Primaries)])
		f := src.StreamFeature(src.StreamIDs()[0])
		origin := r.Primaries[(11*i+3)%len(r.Primaries)]
		at := r.Eng.Now()
		id, err := r.MW.PostSimilarity(origin, f, cfg.Radius, cfg.QMin)
		if err != nil {
			t.Fatal(err)
		}
		posted[id] = at
		r.Eng.RunFor(700 * sim.Millisecond)
	}
	r.Eng.RunFor(cfg.QMin)
	var waits []float64
	for id, at := range posted {
		if got, ok := first[id]; ok {
			waits = append(waits, float64(got-at)/float64(cfg.Core.PushPeriod))
		}
	}
	if len(waits) < probes {
		t.Fatalf("%d of %d guaranteed-match queries never reported a match", probes-len(waits), probes)
	}
	sort.Float64s(waits)
	median, worst := waits[len(waits)/2], waits[len(waits)-1]
	t.Logf("first match after %.3f push periods (median), %.3f (worst) over %d queries", median, worst, len(waits))
	if median > maxFirstAnswerRatio {
		t.Errorf("median first match after %.3f push periods, outside the %.2f ceiling", median, maxFirstAnswerRatio)
	}
}
