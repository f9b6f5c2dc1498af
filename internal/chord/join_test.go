package chord

import (
	"fmt"
	"testing"

	"streamdex/internal/dht"
	"streamdex/internal/overlay"
	// Register the static Pastry machine, so the test visibly skips it.
	_ "streamdex/internal/pastry"
	"streamdex/internal/sim"
)

// TestJoinConvergesWithoutStabilizeRounds joins N nodes back to back
// through node 0 on the 50 ms-hop network with stabilization and long-link
// repair pushed out to an hour, so no periodic round can help: a join must
// converge by its own messages. Every successor and predecessor must equal
// the oracle ring within 6 hop delays of the last join completing, and
// every joiner must hold long links within linkHops hop delays of its own
// join. One row per dynamic machine; a static machine has no joins.
func TestJoinConvergesWithoutStabilizeRounds(t *testing.T) {
	for _, name := range overlay.Names() {
		fac, _ := overlay.Lookup(name)
		for _, n := range []int{8, 32} {
			t.Run(fmt.Sprintf("%s/N=%d", name, n), func(t *testing.T) {
				if fac.Static {
					t.Skip("static machine: no join protocol")
				}
				checkJoinConvergence(t, name, n)
			})
		}
	}
}

// linkHops bounds, in hop delays, how long a joiner waits for its first
// long link. Chord's successor covers its lowest finger slots, which
// resolve locally at once; Koorde's chain needs one lookup of k·self — a
// de Bruijn walk of up to six hops through a ring still forming — and the
// KDListReq round trip after it.
const linkHops = 12

func checkJoinConvergence(t *testing.T, machine string, n int) {
	const hour = 3600 * sim.Second
	cfg := DefaultConfig()
	cfg.Machine = machine
	cfg.StabilizeEvery, cfg.FixFingersEvery = hour, hour
	hop := cfg.HopDelay
	eng := sim.NewEngine()
	net := New(eng, cfg)
	ids := UniformIDs(net.Space(), n)
	net.CreateFirst(ids[0], nil)

	// Sample every millisecond: when each joiner first holds a successor
	// and when it first holds a long link.
	joinedAt := map[dht.Key]sim.Time{}
	linkedAt := map[dht.Key]sim.Time{}
	tick := func() {
		eng.RunFor(sim.Millisecond)
		for _, id := range ids[1:] {
			node := net.Node(id)
			if node == nil {
				break // joins are issued in ids order
			}
			m := node.Machine()
			if _, ok := joinedAt[id]; !ok && m.Joined() {
				joinedAt[id] = eng.Now()
			}
			if _, ok := linkedAt[id]; !ok && m.LonglinkCount() > 0 {
				linkedAt[id] = eng.Now()
			}
		}
	}
	for _, id := range ids[1:] {
		if _, err := net.Join(id, nil, ids[0]); err != nil {
			t.Fatalf("join %d: %v", id, err)
		}
		for start := eng.Now(); ; tick() {
			if _, ok := joinedAt[id]; ok {
				break
			}
			if eng.Now()-start > 20*hop {
				t.Fatalf("node %d has no successor %v after its join started", id, eng.Now()-start)
			}
		}
	}
	last := joinedAt[ids[n-1]]
	for eng.Now() < last+6*hop {
		tick()
	}
	ringConsistent(t, net)
	for eng.Now() < last+linkHops*hop {
		tick()
	}

	for _, id := range ids[1:] {
		at, ok := linkedAt[id]
		if !ok || at-joinedAt[id] > linkHops*hop {
			t.Fatalf("node %d joined at %v, first long link at %v (ok=%v): want within %v",
				id, joinedAt[id], at, ok, linkHops*hop)
		}
	}
	for _, id := range ids {
		if r := net.Node(id).RingStats().StabilizeRounds; r != 0 {
			t.Fatalf("node %d ran %d stabilize rounds; the test must converge without them", id, r)
		}
	}
}

// TestConvergedRingSendsNoJoinSteps guards the steady state: once a ring
// has converged, 20 further stabilize rounds send no join-time message —
// the metrics.Ring JoinSteps counter stays where the joins left it — and
// a warm-started ring, which never joins, never sends one at all.
func TestConvergedRingSendsNoJoinSteps(t *testing.T) {
	for _, name := range overlay.Names() {
		fac, _ := overlay.Lookup(name)
		t.Run(name, func(t *testing.T) {
			if fac.Static {
				t.Skip("static machine: no join protocol")
			}
			cfg := dynConfig(16)
			cfg.Machine = name
			steps := func(net *Network) []uint64 {
				var out []uint64
				for _, id := range net.NodeIDs() {
					out = append(out, net.Node(id).RingStats().JoinSteps)
				}
				return out
			}

			eng := sim.NewEngine()
			joined := New(eng, cfg)
			ids := UniformIDs(joined.Space(), 12)
			joined.CreateFirst(ids[0], nil)
			for _, id := range ids[1:] {
				if _, err := joined.Join(id, nil, ids[0]); err != nil {
					t.Fatal(err)
				}
			}
			eng.RunFor(5 * sim.Second)
			ringConsistent(t, joined)
			before := steps(joined)
			rounds := joined.Node(ids[0]).RingStats().StabilizeRounds
			eng.RunFor(20 * cfg.StabilizeEvery)
			if got := joined.Node(ids[0]).RingStats().StabilizeRounds - rounds; got < 20 {
				t.Fatalf("%d stabilize rounds ran, want 20", got)
			}
			if after := steps(joined); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("join steps moved on a converged ring:\n before %v\n after  %v", before, after)
			}

			warmEng := sim.NewEngine()
			warm := New(warmEng, cfg)
			warm.BuildStable(ids, nil)
			warmEng.RunFor(20 * cfg.StabilizeEvery)
			for i, s := range steps(warm) {
				if s != 0 {
					t.Fatalf("warm-started node %d sent %d join steps", warm.NodeIDs()[i], s)
				}
			}
		})
	}
}
