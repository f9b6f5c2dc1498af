package chord

import (
	"math"
	"testing"
	"testing/quick"

	"streamdex/internal/dht"
	"streamdex/internal/sim"
)

// paperRing builds the 6-node ring of the paper's Figure 1:
// nodes {1, 8, 11, 14, 20, 23} on an m=5 identifier circle.
func paperRing(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := Config{Space: dht.NewSpace(5), HopDelay: 50 * sim.Millisecond, SuccListLen: 3}
	net := New(eng, cfg)
	net.BuildStable([]dht.Key{1, 8, 11, 14, 20, 23}, nil)
	return eng, net
}

func TestPaperFigure1KeyAssignment(t *testing.T) {
	_, net := paperRing(t)
	// Keys 13, 17 and 26 are assigned to nodes 14, 20 and 1 (Fig. 1(a)).
	cases := map[dht.Key]dht.Key{13: 14, 17: 20, 26: 1}
	for key, want := range cases {
		got, ok := net.OracleSuccessor(key)
		if !ok || got != want {
			t.Errorf("successor(%d) = %d, want %d", key, got, want)
		}
	}
}

func TestPaperFigure1FingerTable(t *testing.T) {
	_, net := paperRing(t)
	// Finger table of node 8 (Fig. 1(a)): N8+1 -> 11, +2 -> 11, +4 -> 14,
	// +8 -> 20, +16 -> 1.
	want := []dht.Key{11, 11, 14, 20, 1}
	n := net.Node(8)
	for i, w := range want {
		got, ok := n.Finger(i)
		if !ok || got != w {
			t.Errorf("finger[%d] of node 8 = %d (ok=%v), want %d", i, got, ok, w)
		}
	}
}

func TestPaperFigure1Lookup(t *testing.T) {
	// Fig. 1(b): node 8 looks up key 25; the answer is node 1 (successor
	// of 25), reached via node 20 then node 23.
	eng, net := paperRing(t)
	var deliveredAt dht.Key
	var hops int
	net.SetApp(1, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
		deliveredAt = self
		hops = msg.Hops
	}))
	net.Send(8, 25, &dht.Message{Kind: 1})
	eng.Run()
	if deliveredAt != 1 {
		t.Fatalf("lookup(25) from node 8 delivered at %d, want node 1", deliveredAt)
	}
	// 8 -> 20 -> 23 -> 1: three network traversals.
	if hops != 3 {
		t.Fatalf("hops = %d, want 3 (8->20->23->1)", hops)
	}
	if eng.Now() != 150*sim.Millisecond {
		t.Fatalf("delivery time = %v, want 150ms (3 hops x 50ms)", eng.Now())
	}
}

func TestLocalDeliveryZeroHops(t *testing.T) {
	eng, net := paperRing(t)
	var hops = -1
	net.SetApp(14, dht.AppFunc(func(self dht.Key, msg *dht.Message) { hops = msg.Hops }))
	net.Send(14, 13, &dht.Message{}) // node 14 covers key 13 itself
	eng.Run()
	if hops != 0 {
		t.Fatalf("local delivery hops = %d, want 0", hops)
	}
}

func TestRoutingMatchesOracleEverywhere(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{Space: dht.NewSpace(16), HopDelay: sim.Millisecond, SuccListLen: 4}
	net := New(eng, cfg)
	ids := UniformIDs(cfg.Space, 64)
	net.BuildStable(ids, nil)

	delivered := make(map[dht.Key]dht.Key) // key -> node
	for _, id := range ids {
		id := id
		net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
			delivered[msg.Key] = self
		}))
	}
	rng := sim.NewRand(11)
	keys := make([]dht.Key, 300)
	for i := range keys {
		keys[i] = dht.Key(rng.Int63()) & cfg.Space.Mask()
		from := ids[rng.Intn(len(ids))]
		net.Send(from, keys[i], &dht.Message{})
	}
	eng.Run()
	for _, k := range keys {
		want, _ := net.OracleSuccessor(k)
		if delivered[k] != want {
			t.Fatalf("key %d delivered at %d, oracle says %d", k, delivered[k], want)
		}
	}
	if net.Dropped() != 0 {
		t.Fatalf("dropped %d messages on a stable ring", net.Dropped())
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	// The average route length in an N-node Chord ring is ~(1/2)log2 N.
	// Check 256 nodes stay well under log2 N = 8 and above 1.
	eng := sim.NewEngine()
	cfg := Config{Space: dht.NewSpace(24), HopDelay: 0, SuccListLen: 4}
	net := New(eng, cfg)
	ids := UniformIDs(cfg.Space, 256)
	net.BuildStable(ids, nil)
	var totalHops, n int
	for _, id := range ids {
		net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
			totalHops += msg.Hops
			n++
		}))
	}
	rng := sim.NewRand(7)
	for i := 0; i < 2000; i++ {
		net.Send(ids[rng.Intn(len(ids))], dht.Key(rng.Int63())&cfg.Space.Mask(), &dht.Message{})
	}
	eng.Run()
	avg := float64(totalHops) / float64(n)
	if avg < 1.5 || avg > 8 {
		t.Fatalf("average hops = %.2f for 256 nodes, want within (1.5, 8) ~ (1/2)log2 N", avg)
	}
	if math.Abs(avg-4) > 2 {
		t.Logf("note: avg hops %.2f deviates from theoretical 4", avg)
	}
}

func TestLookupControlPlaneMatchesOracle(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{Space: dht.NewSpace(16), HopDelay: sim.Millisecond, SuccListLen: 4}
	net := New(eng, cfg)
	ids := UniformIDs(cfg.Space, 40)
	net.BuildStable(ids, nil)
	f := func(k uint16, pick uint8) bool {
		key := dht.Key(k) & cfg.Space.Mask()
		from := ids[int(pick)%len(ids)]
		got, ok := net.Lookup(from, key)
		want, _ := net.OracleSuccessor(key)
		return ok && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSendToNeighbors(t *testing.T) {
	eng, net := paperRing(t)
	var succGot, predGot dht.Key
	net.SetApp(11, dht.AppFunc(func(self dht.Key, msg *dht.Message) { succGot = self }))
	net.SetApp(23, dht.AppFunc(func(self dht.Key, msg *dht.Message) { predGot = self }))
	net.SendToSuccessor(8, &dht.Message{Hops: 2})
	net.SendToPredecessor(1, &dht.Message{})
	eng.Run()
	if succGot != 11 {
		t.Fatalf("successor send landed at %d, want 11", succGot)
	}
	if predGot != 23 {
		t.Fatalf("predecessor send landed at %d, want 23", predGot)
	}
}

func TestNeighborSendPreservesCumulativeHops(t *testing.T) {
	eng, net := paperRing(t)
	var hops int
	net.SetApp(11, dht.AppFunc(func(self dht.Key, msg *dht.Message) { hops = msg.Hops }))
	net.SendToSuccessor(8, &dht.Message{Hops: 5})
	eng.Run()
	if hops != 6 {
		t.Fatalf("cumulative hops = %d, want 6", hops)
	}
}

func TestRangeMulticastSequential(t *testing.T) {
	eng, net := paperRing(t)
	var visited []dht.Key
	for _, id := range net.NodeIDs() {
		id := id
		net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
			visited = append(visited, self)
			dht.ContinueRange(net, self, msg, 1)
		}))
	}
	// Paper §IV-C: a message sent to range [10, 19] must reach nodes 11,
	// 14 and 20.
	dht.SendRange(net, 1, 10, 19, &dht.Message{Kind: 2}, dht.RangeSequential)
	eng.Run()
	want := []dht.Key{11, 14, 20}
	if len(visited) != len(want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
	for i, w := range want {
		if visited[i] != w {
			t.Fatalf("visited %v, want %v (in ring order)", visited, want)
		}
	}
}

func TestRangeMulticastBidirectional(t *testing.T) {
	eng, net := paperRing(t)
	visited := map[dht.Key]bool{}
	var order []dht.Key
	for _, id := range net.NodeIDs() {
		id := id
		net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
			if visited[self] {
				t.Errorf("node %d delivered twice", self)
			}
			visited[self] = true
			order = append(order, self)
			dht.ContinueRange(net, self, msg, 1)
		}))
	}
	dht.SendRange(net, 1, 10, 19, &dht.Message{Kind: 2}, dht.RangeBidirectional)
	eng.Run()
	if len(visited) != 3 || !visited[11] || !visited[14] || !visited[20] {
		t.Fatalf("visited %v, want {11,14,20}", order)
	}
	// Middle key of [10,19] is 14 -> node 14 first, then both neighbors.
	if order[0] != 14 {
		t.Fatalf("first delivery at %d, want middle node 14", order[0])
	}
}

func TestRangeMulticastSingleNodeRange(t *testing.T) {
	eng, net := paperRing(t)
	count := 0
	for _, id := range net.NodeIDs() {
		net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
			count++
			dht.ContinueRange(net, self, msg, 1)
		}))
	}
	dht.SendRange(net, 8, 12, 13, &dht.Message{}, dht.RangeSequential)
	eng.Run()
	if count != 1 {
		t.Fatalf("deliveries = %d, want 1 (range within one node)", count)
	}
}

func TestRangeMulticastWholeRing(t *testing.T) {
	eng, net := paperRing(t)
	visited := map[dht.Key]int{}
	for _, id := range net.NodeIDs() {
		net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
			visited[self]++
			dht.ContinueRange(net, self, msg, 1)
		}))
	}
	// Range covering (almost) the whole ring: [2, 1] wraps all the way.
	dht.SendRange(net, 8, 2, 1, &dht.Message{}, dht.RangeSequential)
	eng.Run()
	if len(visited) != net.Len() {
		t.Fatalf("visited %d nodes, want all %d", len(visited), net.Len())
	}
	for id, c := range visited {
		if c != 1 {
			t.Fatalf("node %d delivered %d times", id, c)
		}
	}
}

// TestRangeMulticastFullRingAlignedBoundary covers the degenerate arc the
// continuous-query operators produce for an unbounded coordinate range
// (mapper.Range clamps to [0, 2^m-1]): both boundaries fall inside the
// SAME node's interval — the one wrapping through zero — so a stop
// condition of "this node covers the high boundary" would end the walk at
// its very first node. Every node must still be reached; the boundary
// node may legitimately see the message twice (delivery is idempotent).
func TestRangeMulticastFullRingAlignedBoundary(t *testing.T) {
	for _, mode := range []dht.RangeMode{dht.RangeSequential, dht.RangeBidirectional, dht.RangeTree} {
		eng, net := paperRing(t)
		visited := map[dht.Key]int{}
		for _, id := range net.NodeIDs() {
			net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
				visited[self]++
				dht.ContinueRange(net, self, msg, 1)
			}))
		}
		// [0, 31] on the m=5 ring: node 1 covers (23, 1] and therefore
		// holds both boundaries.
		dht.SendRange(net, 8, 0, 31, &dht.Message{}, mode)
		eng.Run()
		if len(visited) != net.Len() {
			t.Fatalf("%v: visited %d nodes, want all %d", mode, len(visited), net.Len())
		}
		total := 0
		for id, c := range visited {
			total += c
			if c > 2 {
				t.Fatalf("%v: node %d delivered %d times", mode, id, c)
			}
		}
		if total > net.Len()+2 {
			t.Fatalf("%v: %d deliveries for %d nodes", mode, total, net.Len())
		}
	}
}

func TestBidirectionalHalvesPropagationTime(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{Space: dht.NewSpace(16), HopDelay: 50 * sim.Millisecond, SuccListLen: 4}
	net := New(eng, cfg)
	ids := EquidistantIDs(cfg.Space, 64)
	net.BuildStable(ids, nil)

	run := func(mode dht.RangeMode) sim.Time {
		e := sim.NewEngine()
		n := New(e, cfg)
		n.BuildStable(ids, nil)
		var last sim.Time
		for _, id := range n.NodeIDs() {
			n.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
				last = e.Now()
				dht.ContinueRange(n, self, msg, 1)
			}))
		}
		// A wide range covering ~32 nodes.
		lo := ids[10]
		hi := ids[42]
		dht.SendRange(n, ids[0], lo, hi+1, &dht.Message{}, mode)
		e.Run()
		return last
	}
	seq := run(dht.RangeSequential)
	bidi := run(dht.RangeBidirectional)
	if bidi >= seq {
		t.Fatalf("bidirectional (%v) not faster than sequential (%v)", bidi, seq)
	}
	// Should be roughly half (plus the initial routed leg).
	if float64(bidi) > 0.75*float64(seq) {
		t.Fatalf("bidirectional %v vs sequential %v: expected near-halving", bidi, seq)
	}
}

func TestUniformIDsDistinctAndSorted(t *testing.T) {
	s := dht.NewSpace(32)
	ids := UniformIDs(s, 500)
	if len(ids) != 500 {
		t.Fatalf("got %d ids", len(ids))
	}
	seen := map[dht.Key]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatal("duplicate id")
		}
		seen[id] = true
	}
	sorted := SortKeys(append([]dht.Key(nil), ids...))
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			t.Fatal("SortKeys did not sort strictly")
		}
	}
}

func TestEquidistantIDs(t *testing.T) {
	s := dht.NewSpace(8)
	ids := EquidistantIDs(s, 4)
	want := []dht.Key{0, 64, 128, 192}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestObserverSeesEveryTransmission(t *testing.T) {
	eng, net := paperRing(t)
	type ev struct{ from, to dht.Key }
	var transmissions []ev
	var deliveries []dht.Key
	net.SetObserver(observerFuncs{
		onTransmit: func(from, to dht.Key, msg *dht.Message) {
			transmissions = append(transmissions, ev{from, to})
		},
		onDeliver: func(at dht.Key, msg *dht.Message) { deliveries = append(deliveries, at) },
	})
	net.Send(8, 25, &dht.Message{})
	eng.Run()
	want := []ev{{8, 20}, {20, 23}, {23, 1}}
	if len(transmissions) != len(want) {
		t.Fatalf("transmissions = %v, want %v", transmissions, want)
	}
	for i := range want {
		if transmissions[i] != want[i] {
			t.Fatalf("transmissions = %v, want %v", transmissions, want)
		}
	}
	if len(deliveries) != 1 || deliveries[0] != 1 {
		t.Fatalf("deliveries = %v, want [1]", deliveries)
	}
}

type observerFuncs struct {
	onTransmit func(from, to dht.Key, msg *dht.Message)
	onDeliver  func(at dht.Key, msg *dht.Message)
}

func (o observerFuncs) OnTransmit(from, to dht.Key, msg *dht.Message) {
	if o.onTransmit != nil {
		o.onTransmit(from, to, msg)
	}
}

func (o observerFuncs) OnDeliver(at dht.Key, msg *dht.Message) {
	if o.onDeliver != nil {
		o.onDeliver(at, msg)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, Config{Space: dht.NewSpace(5), SuccListLen: 2})
	net.BuildStable([]dht.Key{1, 8}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate id")
		}
	}()
	net.addNode(8, nil)
}

func TestRangeMulticastTreeCoversExactly(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{Space: dht.NewSpace(16), HopDelay: 50 * sim.Millisecond, SuccListLen: 4}
	net := New(eng, cfg)
	ids := EquidistantIDs(cfg.Space, 64)
	net.BuildStable(ids, nil)
	visited := map[dht.Key]int{}
	for _, id := range net.NodeIDs() {
		net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
			visited[self]++
			dht.ContinueRange(net, self, msg, 1)
		}))
	}
	// Cover nodes ids[10]..ids[42] exactly, like the A1 setup.
	dht.SendRange(net, ids[0], ids[10], ids[42], &dht.Message{}, dht.RangeTree)
	eng.Run()
	if len(visited) != 33 {
		t.Fatalf("tree multicast visited %d nodes, want 33", len(visited))
	}
	for id, c := range visited {
		if c != 1 {
			t.Fatalf("node %d delivered %d times (duplicates in tree)", id, c)
		}
	}
	for i := 10; i <= 42; i++ {
		if visited[ids[i]] != 1 {
			t.Fatalf("node ids[%d] missed by tree multicast", i)
		}
	}
}

func TestTreeMulticastFasterThanSequential(t *testing.T) {
	cfg := Config{Space: dht.NewSpace(16), HopDelay: 50 * sim.Millisecond, SuccListLen: 4}
	ids := EquidistantIDs(cfg.Space, 128)
	run := func(mode dht.RangeMode) (last sim.Time, msgs int) {
		eng := sim.NewEngine()
		net := New(eng, cfg)
		net.BuildStable(ids, nil)
		net.SetObserver(observerFuncs{onTransmit: func(from, to dht.Key, msg *dht.Message) { msgs++ }})
		for _, id := range net.NodeIDs() {
			net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
				last = eng.Now()
				dht.ContinueRange(net, self, msg, 1)
			}))
		}
		dht.SendRange(net, ids[0], ids[16], ids[79], &dht.Message{}, mode) // 64 nodes
		eng.Run()
		return last, msgs
	}
	seqDelay, seqMsgs := run(dht.RangeSequential)
	treeDelay, treeMsgs := run(dht.RangeTree)
	// 64 covered nodes: sequential needs ~64 serial hops; the finger
	// tree should finish in O(log 64) levels.
	if float64(treeDelay) > 0.35*float64(seqDelay) {
		t.Fatalf("tree %v vs sequential %v: expected large speedup", treeDelay, seqDelay)
	}
	// Message cost stays comparable (one delivery per covered node plus
	// the routed approach leg).
	if treeMsgs > seqMsgs+8 {
		t.Fatalf("tree sent %d msgs vs sequential %d", treeMsgs, seqMsgs)
	}
}
