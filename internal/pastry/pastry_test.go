package pastry

import (
	"math"
	"testing"
	"testing/quick"

	"streamdex/internal/chord"
	"streamdex/internal/dht"
	"streamdex/internal/overlay"
	"streamdex/internal/sim"
)

// newRing returns an empty simulated network hosting pastry machines with
// a leaf set of leaf nodes, half on each side of the ring.
func newRing(eng *sim.Engine, space dht.Space, hop sim.Time, leaf int) *chord.Network {
	return chord.New(eng, chord.Config{Space: space, HopDelay: hop, SuccListLen: leaf / 2, Machine: MachineName})
}

func buildNet(t testing.TB, n int, m uint) (*sim.Engine, *chord.Network, []dht.Key) {
	t.Helper()
	eng := sim.NewEngine()
	space := dht.NewSpace(m)
	net := newRing(eng, space, sim.Millisecond, 8)
	ids := chord.SortKeys(chord.UniformIDs(space, n))
	net.BuildStable(ids, nil)
	return eng, net, ids
}

// stableRing builds a perfect pastry ring over ids with leaf-set size leaf
// and the evaluation's 50 ms hops.
func stableRing(eng *sim.Engine, space dht.Space, leaf int, ids []dht.Key) dht.Substrate {
	net := newRing(eng, space, 50*sim.Millisecond, leaf)
	net.BuildStable(ids, nil)
	return net
}

func TestDigits(t *testing.T) {
	sp := dht.NewSpace(16)
	// 0xABCD: digits A, B, C, D from the most significant end.
	k := dht.Key(0xABCD)
	want := []int{0xA, 0xB, 0xC, 0xD}
	for r, w := range want {
		if got := digit(sp, k, r); got != w {
			t.Fatalf("digit(%x, %d) = %x, want %x", k, r, got, w)
		}
	}
	if got := sharedDigits(sp, 0xABCD, 0xAB12); got != 2 {
		t.Fatalf("sharedDigits = %d, want 2", got)
	}
	if got := sharedDigits(sp, 0xABCD, 0xABCD); got != 4 {
		t.Fatalf("sharedDigits(self) = %d, want 4", got)
	}
}

func TestDigitsNonMultipleWidth(t *testing.T) {
	// m = 10: digits are 4+4+2 bits.
	sp := dht.NewSpace(10)
	if got := digitCount(sp); got != 3 {
		t.Fatalf("digits = %d, want 3", got)
	}
	k := dht.Key(0b10_1100_0111) // 10 bits
	if got := digit(sp, k, 0); got != 0b1011 {
		t.Fatalf("digit 0 = %b", got)
	}
	if got := digit(sp, k, 1); got != 0b0001 {
		t.Fatalf("digit 1 = %b", got)
	}
}

// TestTableMatchesScan holds the warm-start state to the all-pairs scan
// it replaced: slot (r, d) is the member of its digit block
// clockwise-closest to self, slots row-major, then the leaf set's
// predecessor half.
func TestTableMatchesScan(t *testing.T) {
	const half = 4
	for _, m := range []uint{10, 16, 32} {
		sp := dht.NewSpace(m)
		for _, n := range []int{8, 64, 300} {
			ring := chord.SortKeys(chord.UniformIDs(sp, n))
			for pos, self := range ring {
				want := scanTable(sp, ring, self)
				for k := 1; k <= half && k < n; k++ {
					want = append(want, ring[(pos-k+n)%n])
				}
				got := Longlinks(overlay.Config{Space: sp, SuccListLen: half}, ring, self)
				if len(got) != len(want) {
					t.Fatalf("m=%d n=%d node %d: %d entries, scan has %d", m, n, self, len(got), len(want))
				}
				for i, w := range want {
					if got[i].ID != w {
						t.Fatalf("m=%d n=%d node %d: entry %d is %d, scan has %d", m, n, self, i, got[i].ID, w)
					}
				}
			}
		}
	}
}

// scanTable is the O(N²·digits) construction: every other member falls in
// slot (shared prefix length, its next digit), and each slot keeps its
// member clockwise-closest to self.
func scanTable(sp dht.Space, ring []dht.Key, self dht.Key) []dht.Key {
	best := map[int]dht.Key{}
	for _, other := range ring {
		if other == self {
			continue
		}
		r := sharedDigits(sp, self, other)
		slot := r<<digitBits | digit(sp, other, r)
		if b, ok := best[slot]; !ok || sp.Distance(self, other) < sp.Distance(self, b) {
			best[slot] = other
		}
	}
	var out []dht.Key
	for slot := 0; slot < digitCount(sp)<<digitBits; slot++ {
		if b, ok := best[slot]; ok {
			out = append(out, b)
		}
	}
	return out
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
	// Both machines must agree on which node covers a key.
	space := dht.NewSpace(16)
	ids := chord.SortKeys(chord.UniformIDs(space, 24))
	p := newRing(sim.NewEngine(), space, 0, 8)
	p.BuildStable(ids, nil)
	c := chord.New(sim.NewEngine(), chord.Config{Space: space, HopDelay: 0, SuccListLen: 4})
	c.BuildStable(ids, nil)
	rng := sim.NewRand(6)
	for i := 0; i < 2000; i++ {
		key := dht.Key(rng.Int63()) & space.Mask()
		for _, id := range ids {
			if p.Covers(id, key) != c.Covers(id, key) {
				t.Fatalf("covers(%d, %d) disagrees between machines", id, key)
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
	chord.New(sim.NewEngine(), chord.Config{Machine: MachineName})
}

func TestDuplicateIDPanics(t *testing.T) {
	net := newRing(sim.NewEngine(), dht.NewSpace(8), 0, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate id")
		}
	}()
	net.BuildStable([]dht.Key{5, 5}, nil)
}

func TestSingleNodeOverlay(t *testing.T) {
	eng := sim.NewEngine()
	net := newRing(eng, dht.NewSpace(8), 0, 4)
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
	space := dht.NewSpace(20)
	ids := chord.SortKeys(chord.UniformIDs(space, 128))
	run := func(mode dht.RangeMode) sim.Time {
		eng := sim.NewEngine()
		net := newRing(eng, space, 50*sim.Millisecond, 8)
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

// TestStaticMachineHasNoMembershipDynamics: the simulated network builds a
// static machine with BuildStable only and refuses to join, create or
// maintain it.
func TestStaticMachineHasNoMembershipDynamics(t *testing.T) {
	_, net, ids := buildNet(t, 8, 16)
	if !net.Static() {
		t.Fatal("pastry network does not report a static machine")
	}
	if _, err := net.Join(ids[0]+1, nil, ids[0]); err == nil {
		t.Fatal("join into a static ring accepted")
	}
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"CreateFirst", func() { newRing(sim.NewEngine(), dht.NewSpace(16), 0, 8).CreateFirst(1, nil) }},
		{"maintenance", func() {
			chord.New(sim.NewEngine(), chord.Config{Space: dht.NewSpace(16), StabilizeEvery: sim.Second, Machine: MachineName})
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a static machine did not panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}
