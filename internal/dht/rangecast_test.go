package dht

import (
	"testing"
)

// mockNet is a minimal in-memory Network over a fixed sorted ring,
// delivering synchronously — it unit-tests the range-multicast logic
// against the interface contract alone, independent of any routing
// protocol implementation.
type mockNet struct {
	space Space
	ring  []Key // sorted
	apps  map[Key]App

	transmissions int
}

func newMockNet(m uint, ring []Key) *mockNet {
	n := &mockNet{space: NewSpace(m), ring: ring, apps: make(map[Key]App)}
	return n
}

func (n *mockNet) Space() Space { return n.space }

func (n *mockNet) successorOf(key Key) Key {
	for _, id := range n.ring {
		if id >= key {
			return id
		}
	}
	return n.ring[0]
}

func (n *mockNet) position(id Key) int {
	for i, r := range n.ring {
		if r == id {
			return i
		}
	}
	panic("mock: unknown node")
}

func (n *mockNet) Send(from Key, key Key, msg *Message) {
	msg.Src = from
	msg.Key = n.space.Wrap(key)
	dst := n.successorOf(msg.Key)
	if dst != from {
		n.transmissions++
		msg.Hops++
	}
	n.deliver(dst, msg)
}

func (n *mockNet) Forward(from Key, key Key, msg *Message) { n.Send(from, key, msg) }

func (n *mockNet) SendToSuccessor(from Key, msg *Message) {
	n.transmissions++
	msg.Hops++
	n.deliver(n.ring[(n.position(from)+1)%len(n.ring)], msg)
}

func (n *mockNet) SendToPredecessor(from Key, msg *Message) {
	n.transmissions++
	msg.Hops++
	n.deliver(n.ring[(n.position(from)-1+len(n.ring))%len(n.ring)], msg)
}

func (n *mockNet) Covers(id Key, key Key) bool {
	return n.successorOf(n.space.Wrap(key)) == id
}

func (n *mockNet) deliver(at Key, msg *Message) {
	if app := n.apps[at]; app != nil {
		app.Deliver(at, msg)
	}
}

func TestSendRangeSequentialOnMock(t *testing.T) {
	net := newMockNet(8, []Key{10, 50, 100, 150, 200, 250})
	var visited []Key
	for _, id := range net.ring {
		net.apps[id] = AppFunc(func(self Key, msg *Message) {
			visited = append(visited, self)
			ContinueRange(net, self, msg, 1)
		})
	}
	SendRange(net, 10, 60, 180, &Message{}, RangeSequential)
	want := []Key{100, 150, 200}
	if len(visited) != len(want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited %v, want %v", visited, want)
		}
	}
}

func TestSendRangeBidirectionalOnMock(t *testing.T) {
	net := newMockNet(8, []Key{10, 50, 100, 150, 200, 250})
	var order []Key
	for _, id := range net.ring {
		net.apps[id] = AppFunc(func(self Key, msg *Message) {
			order = append(order, self)
			ContinueRange(net, self, msg, 1)
		})
	}
	SendRange(net, 10, 60, 220, &Message{}, RangeBidirectional)
	// Midpoint of [60,220] = 140 -> successor 150 delivers first, then
	// spreads to 100 and 200, then 250 (covers 220).
	if order[0] != 150 {
		t.Fatalf("first delivery at %d, want middle node 150", order[0])
	}
	seen := map[Key]bool{}
	for _, id := range order {
		if seen[id] {
			t.Fatalf("duplicate delivery at %d", id)
		}
		seen[id] = true
	}
	for _, want := range []Key{100, 150, 200, 250} {
		if !seen[want] {
			t.Fatalf("node %d missed; order %v", want, order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("visited %v", order)
	}
}

func TestContinueRangeNoopForPlainMessages(t *testing.T) {
	net := newMockNet(8, []Key{10, 200})
	if legs := ContinueRange(net, 10, &Message{}, 1); legs != 0 {
		t.Fatalf("plain message produced %d legs", legs)
	}
}

// entrylessNet is mockNet with a neighbour interface that offers no
// routing entries — the shape of a live node.
type entrylessNet struct{ *mockNet }

func (n entrylessNet) Successors(id Key, k int) []Key {
	return []Key{n.ring[(n.position(id)+1)%len(n.ring)]}
}

func (n entrylessNet) SendToNode(from, to Key, msg *Message) {
	n.transmissions++
	msg.Hops++
	n.deliver(to, msg)
}

func (n entrylessNet) RoutingEntries(id Key, dst []Key) []Key { return dst }

func (n entrylessNet) SplitHeads(id, lo, hi Key) []Key { return nil }

// TestTreeWithoutRoutingEntriesWalksSequentially: with no routing entry
// inside the arc a tree step walks to its successor under RangeTail, so a
// substrate with no entries at all — or no neighbour interface — runs the
// tree mode as the sequential walk: the same nodes in the same order,
// every continuation leg the sequential leg's frame but for Mode and
// RangeTail.
func TestTreeWithoutRoutingEntriesWalksSequentially(t *testing.T) {
	type leg struct {
		at             Key
		start, end     Key
		dir, hops      int
		mode           RangeMode
		tail, hasRange bool
	}
	mock := newMockNet(8, []Key{10, 50, 100, 150, 200, 250})
	walk := func(net Network, mode RangeMode) []leg {
		var legs []leg
		for _, id := range mock.ring {
			mock.apps[id] = AppFunc(func(self Key, msg *Message) {
				legs = append(legs, leg{self, msg.RangeStart, msg.RangeEnd, msg.Dir, msg.Hops, msg.Mode, msg.RangeTail, msg.HasRange})
				ContinueRange(net, self, msg, 1)
			})
		}
		SendRange(net, 10, 60, 180, &Message{}, mode)
		return legs
	}
	want := walk(mock, RangeSequential)
	for _, net := range []Network{mock, entrylessNet{mock}} {
		got := walk(net, RangeTree)
		if len(got) != len(want) {
			t.Fatalf("%T: tree walk delivered %d legs, sequential %d", net, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.mode != RangeTree || !g.tail {
				t.Fatalf("%T: leg %d at %d lost the tree mode or tail: %+v", net, i, g.at, g)
			}
			g.mode, g.tail = w.mode, w.tail
			if g != w {
				t.Fatalf("%T: leg %d = %+v, sequential walk %+v", net, i, got[i], w)
			}
		}
	}
}

func TestSendRangeUnknownModePanics(t *testing.T) {
	net := newMockNet(8, []Key{10, 200})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SendRange(net, 10, 0, 100, &Message{}, RangeMode(9))
}

func TestHashBytesAndNopObserver(t *testing.T) {
	s := NewSpace(16)
	if s.HashBytes([]byte("x")) != s.HashString("x") {
		t.Fatal("HashBytes != HashString")
	}
	var o NopObserver
	o.OnTransmit(1, 2, &Message{})
	o.OnDeliver(1, &Message{})
}

// collectVisits wires every ring node to record deliveries and continue
// the multicast, returning the shared visit log.
func collectVisits(net *mockNet) *[]Key {
	visited := &[]Key{}
	for _, id := range net.ring {
		net.apps[id] = AppFunc(func(self Key, msg *Message) {
			*visited = append(*visited, self)
			ContinueRange(net, self, msg, 1)
		})
	}
	return visited
}

func assertVisitedSet(t *testing.T, visited []Key, want []Key) {
	t.Helper()
	seen := map[Key]bool{}
	for _, id := range visited {
		if seen[id] {
			t.Fatalf("duplicate delivery at %d; visits %v", id, visited)
		}
		seen[id] = true
	}
	if len(visited) != len(want) {
		t.Fatalf("visited %v, want set %v", visited, want)
	}
	for _, id := range want {
		if !seen[id] {
			t.Fatalf("node %d missed; visits %v", id, visited)
		}
	}
}

// A single-node ring covers every key itself: the multicast must deliver
// exactly once and terminate without any continuation leg, in both modes.
func TestSendRangeSingleNodeRing(t *testing.T) {
	for _, mode := range []RangeMode{RangeSequential, RangeBidirectional} {
		net := newMockNet(8, []Key{42})
		visited := collectVisits(net)
		SendRange(net, 42, 100, 200, &Message{}, mode)
		assertVisitedSet(t, *visited, []Key{42})
		if net.transmissions != 0 {
			t.Fatalf("%v: %d transmissions on a one-node ring, want 0", mode, net.transmissions)
		}
	}
}

// A range wrapping the origin of the identifier circle ([240, 30] on an
// 8-bit ring) must reach every node whose interval intersects either side
// of the wrap, exactly once.
func TestSendRangeWrappedAcrossOrigin(t *testing.T) {
	want := []Key{250, 10, 50}
	for _, mode := range []RangeMode{RangeSequential, RangeBidirectional} {
		net := newMockNet(8, []Key{10, 50, 100, 150, 200, 250})
		visited := collectVisits(net)
		SendRange(net, 100, 240, 30, &Message{}, mode)
		assertVisitedSet(t, *visited, want)
	}
}

// A degenerate single-key range (lo == hi) is delivered to exactly the one
// covering node; no continuation leg may fire in either mode.
func TestSendRangeSingleKey(t *testing.T) {
	for _, mode := range []RangeMode{RangeSequential, RangeBidirectional} {
		net := newMockNet(8, []Key{10, 50, 100, 150, 200, 250})
		visited := collectVisits(net)
		SendRange(net, 10, 120, 120, &Message{}, mode)
		assertVisitedSet(t, *visited, []Key{150})
		if net.transmissions != 1 {
			t.Fatalf("%v: %d transmissions for a single-key range, want 1 (the routed leg)", mode, net.transmissions)
		}
	}
}

// The same wrapped range must also work when the originating node itself
// lies inside the range (the continuation must still stop at the boundary
// and not lap the ring).
func TestSendRangeWrappedFromInsideNode(t *testing.T) {
	for _, mode := range []RangeMode{RangeSequential, RangeBidirectional} {
		net := newMockNet(8, []Key{10, 50, 100, 150, 200, 250})
		visited := collectVisits(net)
		SendRange(net, 250, 240, 30, &Message{}, mode)
		assertVisitedSet(t, *visited, []Key{250, 10, 50})
	}
}
