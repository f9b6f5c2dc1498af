package transport_test

import (
	"testing"
	"time"

	"streamdex/internal/chord/protocol"
	"streamdex/internal/dht"
	"streamdex/internal/koorde"
	"streamdex/internal/metrics"
	"streamdex/internal/transport"
)

// TestForeignJoinerNotAbsorbed guards the shared ring message set: both
// machines speak the backbone's stabilize, notify and ping messages, but
// their lookup requests differ (Chord's FindReq, Koorde's KFindReq), so a
// node of the other machine family can never complete a join. Every
// binary registers both codec sets, so the foreign lookup decodes and is
// ignored silently: the joiner times out, no ring member ever lists it as
// a neighbor, and the ring's maintenance counters move only by stabilize
// rounds.
func TestForeignJoinerNotAbsorbed(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock loopback ring")
	}
	for _, c := range []struct{ ring, joiner string }{
		{protocol.MachineName, koorde.MachineName},
		{koorde.MachineName, protocol.MachineName},
	} {
		t.Run(c.joiner+"-into-"+c.ring, func(t *testing.T) {
			checkForeignJoin(t, c.ring, c.joiner)
		})
	}
}

func checkForeignJoin(t *testing.T, ringMachine, joinerMachine string) {
	space := dht.NewSpace(16)
	ids := []dht.Key{100, 21000, 40000}
	const foreign = dht.Key(30000) // would sit between ids[1] and ids[2]
	newNode := func(id dht.Key, machine string) *transport.Node {
		tc := transport.DefaultConfig(id, "127.0.0.1:0")
		tc.Space = space
		tc.StabilizeEvery = 50_000
		tc.FixFingersEvery = 10_000
		tc.Machine = machine
		n, err := transport.New(tc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		return n
	}
	nodes := make([]*transport.Node, len(ids))
	for i, id := range ids {
		nodes[i] = newNode(id, ringMachine)
	}
	nodes[0].Create()
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Addr(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	waitRingConverged(t, nodes, ids)
	before := waitQuiet(t, nodes)

	// The foreign join runs while a watcher checks every member's
	// neighbors, so even a transient adoption fails the test.
	joiner := newNode(foreign, joinerMachine)
	done := make(chan error, 1)
	go func() { done <- joiner.Join(nodes[1].Addr(), time.Second) }()
	var err error
	for waiting := true; waiting; {
		select {
		case err = <-done:
			waiting = false
		case <-time.After(10 * time.Millisecond):
		}
		for _, n := range nodes {
			info := n.Ring()
			if info.Pred != nil && info.Pred.ID == foreign {
				t.Fatalf("%s ring: node %d adopted the %s joiner as predecessor", ringMachine, info.Self.ID, joinerMachine)
			}
			for _, s := range info.SuccList {
				if s.ID == foreign {
					t.Fatalf("%s ring: node %d lists the %s joiner as a successor", ringMachine, info.Self.ID, joinerMachine)
				}
			}
		}
	}
	if err == nil {
		t.Fatalf("%s joiner completed a join through a %s ring", joinerMachine, ringMachine)
	}
	if joiner.Ring().SuccList != nil {
		t.Fatalf("%s joiner holds ring state after a failed join", joinerMachine)
	}
	for i, n := range nodes {
		if got := withoutRounds(n.RingStats()); got != before[i] {
			t.Fatalf("%s ring: node %d counters moved during the foreign join:\n before %+v\n after  %+v",
				ringMachine, ids[i], before[i], got)
		}
	}
}

// withoutRounds zeroes the one counter a quiet ring keeps advancing.
func withoutRounds(s metrics.Ring) metrics.Ring {
	s.StabilizeRounds = 0
	return s
}

// waitQuiet polls until no node's counters (stabilize rounds aside) move
// for a settle window — long-link repair has finished first-populating —
// and returns them.
func waitQuiet(t *testing.T, nodes []*transport.Node) []metrics.Ring {
	t.Helper()
	snap := func() []metrics.Ring {
		out := make([]metrics.Ring, len(nodes))
		for i, n := range nodes {
			out[i] = withoutRounds(n.RingStats())
		}
		return out
	}
	deadline := time.Now().Add(15 * time.Second)
	prev := snap()
	for {
		time.Sleep(500 * time.Millisecond)
		cur := snap()
		same := true
		for i := range cur {
			same = same && cur[i] == prev[i]
		}
		if same {
			return cur
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring counters never settled: %+v", cur)
		}
		prev = cur
	}
}
