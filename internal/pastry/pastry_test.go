package pastry

import (
	"math"
	"testing"
	"testing/quick"

	"streamdex/internal/chord"
	"streamdex/internal/dht"
	"streamdex/internal/sim"
)

func buildNet(t testing.TB, n int, m uint) (*sim.Engine, *Network, []dht.Key) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := Config{Space: dht.NewSpace(m), HopDelay: sim.Millisecond, LeafSize: 8}
	net := New(eng, cfg)
	ids := chord.SortKeys(chord.UniformIDs(cfg.Space, n))
	net.BuildStable(ids, nil)
	return eng, net, ids
}

func TestDigits(t *testing.T) {
	net := New(sim.NewEngine(), Config{Space: dht.NewSpace(16), HopDelay: 0, LeafSize: 4})
	// 0xABCD: digits A, B, C, D from the most significant end.
	k := dht.Key(0xABCD)
	want := []int{0xA, 0xB, 0xC, 0xD}
	for r, w := range want {
		if got := net.digit(k, r); got != w {
			t.Fatalf("digit(%x, %d) = %x, want %x", k, r, got, w)
		}
	}
	if got := net.sharedDigits(0xABCD, 0xAB12); got != 2 {
		t.Fatalf("sharedDigits = %d, want 2", got)
	}
	if got := net.sharedDigits(0xABCD, 0xABCD); got != 4 {
		t.Fatalf("sharedDigits(self) = %d, want 4", got)
	}
}

func TestDigitsNonMultipleWidth(t *testing.T) {
	// m = 10: digits are 4+4+2 bits.
	net := New(sim.NewEngine(), Config{Space: dht.NewSpace(10), HopDelay: 0, LeafSize: 4})
	if net.digits != 3 {
		t.Fatalf("digits = %d, want 3", net.digits)
	}
	k := dht.Key(0b10_1100_0111) // 10 bits
	if got := net.digit(k, 0); got != 0b1011 {
		t.Fatalf("digit 0 = %b", got)
	}
	if got := net.digit(k, 1); got != 0b0001 {
		t.Fatalf("digit 1 = %b", got)
	}
}

func TestRoutingMatchesOracle(t *testing.T) {
	eng, net, ids := buildNet(t, 64, 16)
	delivered := map[dht.Key]dht.Key{}
	for _, id := range ids {
		net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
			delivered[msg.Key] = self
		}))
	}
	rng := sim.NewRand(3)
	keys := make([]dht.Key, 400)
	for i := range keys {
		keys[i] = dht.Key(rng.Int63()) & net.Space().Mask()
		net.Send(ids[rng.Intn(len(ids))], keys[i], &dht.Message{})
	}
	eng.Run()
	for _, k := range keys {
		want, _ := net.OracleSuccessor(k)
		if delivered[k] != want {
			t.Fatalf("key %d delivered at %d, oracle %d", k, delivered[k], want)
		}
	}
	if net.Dropped() != 0 {
		t.Fatalf("dropped %d messages", net.Dropped())
	}
}

func TestRoutingMatchesOracleQuick(t *testing.T) {
	eng, net, ids := buildNet(t, 40, 20)
	var at dht.Key
	for _, id := range ids {
		net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) { at = self }))
	}
	rng := sim.NewRand(4)
	f := func(raw uint32) bool {
		key := dht.Key(raw) & net.Space().Mask()
		net.Send(ids[rng.Intn(len(ids))], key, &dht.Message{})
		eng.Run()
		want, _ := net.OracleSuccessor(key)
		return at == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixRoutingHopBound(t *testing.T) {
	// Pastry routes in O(log_16 N) hops: for 256 nodes that is ~2, far
	// below Chord's ~4. Allow slack for fallback steps.
	eng, net, ids := buildNet(t, 256, 32)
	var total, count int
	for _, id := range ids {
		net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
			total += msg.Hops
			count++
		}))
	}
	rng := sim.NewRand(5)
	for i := 0; i < 1500; i++ {
		net.Send(ids[rng.Intn(len(ids))], dht.Key(rng.Int63())&net.Space().Mask(), &dht.Message{})
	}
	eng.Run()
	avg := float64(total) / float64(count)
	if avg > 3.5 {
		t.Fatalf("average hops = %.2f, want <= 3.5 (prefix routing, log16 256 = 2)", avg)
	}
	if avg < 0.5 {
		t.Fatalf("average hops = %.2f suspiciously low", avg)
	}
	if math.IsNaN(avg) {
		t.Fatal("no deliveries")
	}
}

func TestLeafNeighborPrimitives(t *testing.T) {
	eng, net, ids := buildNet(t, 16, 16)
	// The successor/predecessor of ids[3] on the sorted ring.
	var succAt, predAt dht.Key
	for _, id := range ids {
		id := id
		net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
			switch msg.Kind {
			case 1:
				succAt = self
			case 2:
				predAt = self
			}
		}))
	}
	net.SendToSuccessor(ids[3], &dht.Message{Kind: 1})
	net.SendToPredecessor(ids[3], &dht.Message{Kind: 2})
	eng.Run()
	if succAt != ids[4] {
		t.Fatalf("successor send landed at %d, want %d", succAt, ids[4])
	}
	if predAt != ids[2] {
		t.Fatalf("predecessor send landed at %d, want %d", predAt, ids[2])
	}
}

func TestRangeMulticastOnPastry(t *testing.T) {
	eng, net, ids := buildNet(t, 32, 16)
	visited := map[dht.Key]int{}
	for _, id := range ids {
		net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
			visited[self]++
			dht.ContinueRange(net, self, msg, 1)
		}))
	}
	lo, hi := ids[5], ids[12]
	for _, mode := range []dht.RangeMode{dht.RangeSequential, dht.RangeBidirectional} {
		for k := range visited {
			delete(visited, k)
		}
		dht.SendRange(net, ids[0], lo, hi, &dht.Message{}, mode)
		eng.Run()
		if len(visited) != 8 { // ids[5..12]
			t.Fatalf("%v: visited %d nodes, want 8", mode, len(visited))
		}
		for id, c := range visited {
			if c != 1 {
				t.Fatalf("%v: node %d delivered %d times", mode, id, c)
			}
		}
	}
}

func TestCoversSemanticsMatchChord(t *testing.T) {
	// Both substrates must agree on which node covers a key.
	eng := sim.NewEngine()
	space := dht.NewSpace(16)
	ids := chord.SortKeys(chord.UniformIDs(space, 24))
	p := New(eng, Config{Space: space, HopDelay: 0, LeafSize: 8})
	p.BuildStable(ids, nil)
	c := chord.New(sim.NewEngine(), chord.Config{Space: space, HopDelay: 0, SuccListLen: 4})
	c.BuildStable(ids, nil)
	rng := sim.NewRand(6)
	for i := 0; i < 2000; i++ {
		key := dht.Key(rng.Int63()) & space.Mask()
		for _, id := range ids {
			if p.Covers(id, key) != c.Covers(id, key) {
				t.Fatalf("covers(%d, %d) disagrees between substrates", id, key)
			}
		}
	}
}

func TestObserverAndDrops(t *testing.T) {
	eng, net, ids := buildNet(t, 8, 16)
	trans := 0
	net.SetObserver(obsFunc{onT: func() { trans++ }})
	net.Send(ids[0], ids[4], &dht.Message{})
	eng.Run()
	if trans == 0 {
		t.Fatal("no transmissions observed")
	}
	// Sending from an unknown node drops.
	net.Send(12345, 0, &dht.Message{})
	eng.Run()
	if net.Dropped() == 0 {
		t.Fatal("expected a dropped message")
	}
}

type obsFunc struct{ onT func() }

func (o obsFunc) OnTransmit(from, to dht.Key, msg *dht.Message) { o.onT() }
func (o obsFunc) OnDeliver(at dht.Key, msg *dht.Message)        {}

func TestValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty space")
		}
	}()
	New(sim.NewEngine(), Config{})
}

func TestDuplicateIDPanics(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, Config{Space: dht.NewSpace(8), HopDelay: 0, LeafSize: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate id")
		}
	}()
	net.BuildStable([]dht.Key{5, 5}, nil)
}

func TestSingleNodeOverlay(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, Config{Space: dht.NewSpace(8), HopDelay: 0, LeafSize: 4})
	net.BuildStable([]dht.Key{42}, nil)
	got := 0
	net.SetApp(42, dht.AppFunc(func(dht.Key, *dht.Message) { got++ }))
	for k := 0; k < 20; k++ {
		net.Send(42, dht.Key(k*13), &dht.Message{})
	}
	eng.Run()
	if got != 20 {
		t.Fatalf("delivered %d of 20", got)
	}
}

func TestTreeMulticastOnPastry(t *testing.T) {
	eng, net, ids := buildNet(t, 64, 20)
	visited := map[dht.Key]int{}
	for _, id := range ids {
		net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
			visited[self]++
			dht.ContinueRange(net, self, msg, 1)
		}))
	}
	dht.SendRange(net, ids[0], ids[8], ids[40], &dht.Message{}, dht.RangeTree)
	eng.Run()
	if len(visited) != 33 {
		t.Fatalf("tree multicast visited %d nodes, want 33", len(visited))
	}
	for id, c := range visited {
		if c != 1 {
			t.Fatalf("node %d delivered %d times", id, c)
		}
	}
}

func TestTreeFasterThanSequentialOnPastry(t *testing.T) {
	cfg := Config{Space: dht.NewSpace(20), HopDelay: 50 * sim.Millisecond, LeafSize: 8}
	ids := chord.SortKeys(chord.UniformIDs(cfg.Space, 128))
	run := func(mode dht.RangeMode) sim.Time {
		eng := sim.NewEngine()
		net := New(eng, cfg)
		net.BuildStable(ids, nil)
		var last sim.Time
		for _, id := range ids {
			net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
				last = eng.Now()
				dht.ContinueRange(net, self, msg, 1)
			}))
		}
		dht.SendRange(net, ids[0], ids[16], ids[79], &dht.Message{}, mode)
		eng.Run()
		return last
	}
	seq := run(dht.RangeSequential)
	tree := run(dht.RangeTree)
	if float64(tree) > 0.4*float64(seq) {
		t.Fatalf("pastry tree %v vs sequential %v: expected large speedup", tree, seq)
	}
}
