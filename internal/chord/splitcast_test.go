package chord

import (
	"fmt"
	"testing"

	"streamdex/internal/dht"
	// Register the Koorde machine so Config.Machine can name it.
	_ "streamdex/internal/koorde"
	"streamdex/internal/sim"
)

// splitMachines are the registered ring machines the delegation
// regression cases run under. On Chord the tree mode splits over
// fingers; on Koorde wide arcs leave as routed split legs
// (overlay.ArcSplitter), so the same assertions exercise both paths.
var splitMachines = []string{"chord", "koorde"}

// splitModes are the multicast strategies every case runs: the
// sequential successor walk and the tree dissemination whose Koorde
// variant performs the de Bruijn-aware arc split.
var splitModes = []dht.RangeMode{dht.RangeSequential, dht.RangeTree}

// splitRing builds a warm 128-node ring on the named machine — large
// enough that a wide arc clears the Koorde split threshold (estimated
// nodes > 2x the successor list).
func splitRing(t *testing.T, machine string) (*sim.Engine, *Network, []dht.Key) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := Config{Space: dht.NewSpace(16), HopDelay: 50 * sim.Millisecond, SuccListLen: 8, Machine: machine}
	net := New(eng, cfg)
	ids := SortKeys(UniformIDs(cfg.Space, 128))
	net.BuildStable(ids, nil)
	return eng, net, ids
}

// oracleCoverSet returns the exact membership-oracle answer to "which
// nodes cover a key in [lo, hi]": the owner of lo plus every identifier
// on the arc (lo, hi].
func oracleCoverSet(net *Network, ids []dht.Key, lo, hi dht.Key) map[dht.Key]bool {
	want := map[dht.Key]bool{}
	if o, ok := net.OracleSuccessor(lo); ok {
		want[o] = true
	}
	for _, id := range ids {
		if net.Space().BetweenIncl(id, net.Space().Add(lo, 1), hi) {
			want[id] = true
		}
	}
	return want
}

// runMulticast fires one SendRange and returns the per-node delivery
// counts once the engine drains.
func runMulticast(t *testing.T, eng *sim.Engine, net *Network, origin, lo, hi dht.Key, mode dht.RangeMode) map[dht.Key]int {
	t.Helper()
	visited := map[dht.Key]int{}
	for _, id := range net.NodeIDs() {
		net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
			if msg.Split {
				t.Errorf("split bookkeeping leaked into a delivery at node %d", self)
			}
			visited[self]++
			dht.ContinueRange(net, self, msg, 1)
		}))
	}
	dht.SendRange(net, origin, lo, hi, &dht.Message{Kind: 7}, mode)
	eng.Run()
	if d := net.Dropped(); d != 0 {
		t.Fatalf("%d messages dropped during the multicast", d)
	}
	return visited
}

// TestRangeMulticastExactlyOnceBothMachines drives a wide arc (about
// half the ring, well past the Koorde split threshold) through both
// machines and modes and checks delivery against the membership oracle:
// every covering node exactly once, nobody else.
func TestRangeMulticastExactlyOnceBothMachines(t *testing.T) {
	for _, machine := range splitMachines {
		for _, mode := range splitModes {
			t.Run(fmt.Sprintf("%s/%v", machine, mode), func(t *testing.T) {
				eng, net, ids := splitRing(t, machine)
				origin := ids[3]
				lo := net.Space().Add(ids[10], 1)
				hi := ids[74]
				visited := runMulticast(t, eng, net, origin, lo, hi, mode)
				want := oracleCoverSet(net, ids, lo, hi)
				for id := range want {
					if visited[id] != 1 {
						t.Fatalf("covering node %d delivered %d times, want exactly once", id, visited[id])
					}
				}
				for id, c := range visited {
					if !want[id] {
						t.Fatalf("node %d outside the range delivered %d times", id, c)
					}
				}
			})
		}
	}
}

// TestRangeMulticastWrappedArcBothMachines is the same oracle check on
// an arc wrapping through zero, the case where naive interval
// arithmetic (and a naive split-head partition) breaks first.
func TestRangeMulticastWrappedArcBothMachines(t *testing.T) {
	for _, machine := range splitMachines {
		for _, mode := range splitModes {
			t.Run(fmt.Sprintf("%s/%v", machine, mode), func(t *testing.T) {
				eng, net, ids := splitRing(t, machine)
				origin := ids[40]
				lo := net.Space().Add(ids[100], 1) // wraps: lo > hi
				hi := ids[50]
				visited := runMulticast(t, eng, net, origin, lo, hi, mode)
				want := oracleCoverSet(net, ids, lo, hi)
				for id := range want {
					if visited[id] != 1 {
						t.Fatalf("covering node %d delivered %d times, want exactly once", id, visited[id])
					}
				}
				for id, c := range visited {
					if !want[id] {
						t.Fatalf("node %d outside the wrapped range delivered %d times", id, c)
					}
				}
			})
		}
	}
}

// TestRangeMulticastFullRingBothMachines mirrors
// TestRangeMulticastFullRingAlignedBoundary on both machines: the
// degenerate [0, 2^m-1] arc whose boundaries share one interval. Every
// node must be reached; the boundary-holding node may see the message
// twice (delivery is idempotent by the store/registration dedup rules).
func TestRangeMulticastFullRingBothMachines(t *testing.T) {
	for _, machine := range splitMachines {
		for _, mode := range splitModes {
			t.Run(fmt.Sprintf("%s/%v", machine, mode), func(t *testing.T) {
				eng, net, _ := splitRing(t, machine)
				visited := runMulticast(t, eng, net, net.NodeIDs()[5], 0, net.Space().Mask(), mode)
				if len(visited) != net.Len() {
					t.Fatalf("visited %d nodes, want all %d", len(visited), net.Len())
				}
				total := 0
				for id, c := range visited {
					total += c
					if c > 2 {
						t.Fatalf("node %d delivered %d times", id, c)
					}
				}
				if total > net.Len()+2 {
					t.Fatalf("%d deliveries for %d nodes", total, net.Len())
				}
			})
		}
	}
}

// TestRangeMulticastSingleNodeBothMachines pins the degenerate range
// inside a single node's interval: one delivery, no stray legs.
func TestRangeMulticastSingleNodeBothMachines(t *testing.T) {
	for _, machine := range splitMachines {
		for _, mode := range splitModes {
			t.Run(fmt.Sprintf("%s/%v", machine, mode), func(t *testing.T) {
				eng, net, ids := splitRing(t, machine)
				lo := net.Space().Add(ids[20], 1)
				hi := net.Space().Add(ids[20], 2)
				if o, _ := net.OracleSuccessor(lo); o != ids[21] {
					t.Skipf("interval of %d too narrow for the probe keys", ids[21])
				}
				visited := runMulticast(t, eng, net, ids[5], lo, hi, mode)
				if len(visited) != 1 || visited[ids[21]] != 1 {
					t.Fatalf("visited %v, want exactly one delivery at %d", visited, ids[21])
				}
			})
		}
	}
}

// TestKoordeTreeMulticastShallower checks the point of the arc split:
// tree-mode dissemination on Koorde must beat its own sequential walk
// by a wide margin over a deep arc — without the split, the de Bruijn
// chain degrades the "tree" to a successor-list pipeline.
func TestKoordeTreeMulticastShallower(t *testing.T) {
	run := func(mode dht.RangeMode) sim.Time {
		eng, net, ids := splitRing(t, "koorde")
		var last sim.Time
		for _, id := range net.NodeIDs() {
			net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
				last = eng.Now()
				dht.ContinueRange(net, self, msg, 1)
			}))
		}
		lo := net.Space().Add(ids[10], 1)
		hi := ids[74]
		dht.SendRange(net, ids[10], lo, hi, &dht.Message{Kind: 7}, mode)
		eng.Run()
		return last
	}
	seq := run(dht.RangeSequential)
	tree := run(dht.RangeTree)
	if tree >= seq/2 {
		t.Fatalf("koorde tree multicast %v not well under half of sequential %v", tree, seq)
	}
}
