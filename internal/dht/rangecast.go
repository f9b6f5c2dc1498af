package dht

import (
	"cmp"
	"slices"
)

// Range multicast (paper §IV-C).
//
// The middleware frequently sends one logical message to *all* nodes whose
// interval intersects a key range [lo, hi] — MBR replication (§IV-G) and
// similarity-query dissemination (§IV-E) both do. No popular content-based
// routing scheme natively multicasts to a key range, so the paper layers it
// on the one primitive every scheme has: sending to a ring neighbor.
//
//   - Sequential: route to the lowest key; every covering node delivers
//     locally and forwards to its successor until the whole range is
//     covered. One message per covered node, but propagation is sequential,
//     which hurts wide ranges in large systems (shown in Fig. 8).
//   - Bidirectional: route to the middle key; the middle node forwards to
//     both its successor and predecessor, roughly halving the delay. Needs
//     predecessor support from the substrate (§IV-C, §VI).
//   - Strided: a sequential walk that jumps `stride` successors per step,
//     for ranges replicated on ring-adjacent nodes (Config.Replicas in
//     package core).
//   - Tree: route to the lowest key; each covering node splits the rest of
//     the arc among its routing entries, the "efficient native support of
//     multicast to a range of keys" of §VI-B — or, on machines whose
//     entries cannot subdivide a distant arc, into routed split legs.
//
// The whole walk lives in this file. A substrate supplies only its
// neighbour sets, through the optional Neighbors interface; without it
// every mode degrades to the plain successor walk.

// Neighbors is optionally implemented by substrates that expose a node's
// neighbour sets to the range walk (package core's read balancer also
// hands a query to a chosen replica with Successors and SendToNode). All
// methods answer for the node id the walk is currently at; results must
// not be retained past the upcall.
type Neighbors interface {
	// Successors returns up to n live successors of id, nearest first.
	// The slice may be shorter than n (small rings, partial lists).
	Successors(id Key, n int) []Key
	// SendToNode transmits msg one traversal from `from` directly to `to`,
	// a node obtained from Successors or RoutingEntries, preserving the
	// cumulative hop count.
	SendToNode(from, to Key, msg *Message)
	// RoutingEntries appends id's live routing entries — long links, then
	// successors — to dst and returns it: the tree fan-out set. Entries
	// may repeat; id itself is never listed.
	RoutingEntries(id Key, dst []Key) []Key
	// SplitHeads partitions the arc [lo, hi] a tree-mode multicast is
	// about to leave id over into sub-arcs and returns their low keys in
	// clockwise order (heads[0] == lo), or nil when id fans out over its
	// routing entries instead.
	SplitHeads(id, lo, hi Key) []Key
}

// SendRange initiates a range multicast of msg over the circular key arc
// from lo clockwise to hi. The message is delivered to every node covering
// a key in [lo, hi]; each receiving application must call ContinueRange to
// keep the propagation going.
func SendRange(net Network, from Key, lo, hi Key, msg *Message, mode RangeMode) {
	s := net.Space()
	msg.HasRange = true
	msg.RangeStart = s.Wrap(lo)
	msg.RangeEnd = s.Wrap(hi)
	msg.Dir = 0
	switch mode {
	case RangeSequential:
		msg.Mode = RangeSequential
		msg.RangeTail = false
		net.Send(from, msg.RangeStart, msg)
	case RangeTree:
		msg.Mode = RangeTree
		msg.RangeTail = true
		if nb, ok := net.(Neighbors); ok && splitArc(net, nb, from, msg, msg.RangeStart, true) > 0 {
			return
		}
		net.Send(from, msg.RangeStart, msg)
	case RangeBidirectional:
		msg.Mode = RangeBidirectional
		net.Send(from, s.Midpoint(msg.RangeStart, msg.RangeEnd), msg)
	default:
		panic("dht: unknown range mode")
	}
}

// ContinueRange propagates a just-delivered ranged message to the remaining
// covering nodes and returns the number of continuation legs sent.
// Applications call it from Deliver after processing the message locally;
// it is a no-op for non-ranged messages.
//
// A stride above 1 makes the sequential walk jump that many successors per
// step instead of visiting every coverer. Coverage argument: the walk lands
// on nodes n_o, n_{o+stride}, n_{o+2*stride}, ... of the covering sequence
// (o < stride is the caller's starting offset). An item stored at n_i and
// replicated on n_i..n_{i+stride-1} has exactly one landing in its window,
// so every item is seen exactly once. The walk stops at the first landing
// whose interval contains the high boundary — by the same RangeStart-
// advancing rule as the plain walk — which is at or past the last natural
// coverer, so no window is skipped. Bidirectional and tree walks ignore the
// stride, as does a substrate whose successor list is shorter than it.
func ContinueRange(net Network, self Key, msg *Message, stride int) int {
	if !msg.HasRange {
		return 0
	}
	s := net.Space()
	// The clockwise walk is done once the high boundary lies inside the
	// arc covered so far, [RangeStart, self]. "Covers(self, RangeEnd)"
	// alone is not a sufficient stop condition: on a range wrapping
	// (nearly) the whole ring the node covering the low boundary holds
	// the high boundary in its interval too, and the walk would end at
	// its first node with everything in between unvisited. Each hop
	// therefore advances RangeStart past the sender's interval so the
	// covered arc is explicit. (The last node may be delivered twice on a
	// full-circle range; delivery is idempotent everywhere by the
	// store/registration dedup rules.)
	doneHigh := s.Distance(msg.RangeStart, msg.RangeEnd) <= s.Distance(msg.RangeStart, self)
	if msg.Mode == RangeTree {
		if doneHigh {
			return 0
		}
		return FanOut(net, self, msg)
	}
	legs := 0
	// Walk toward the high boundary unless the arc is already covered.
	if msg.Dir >= 0 && !doneHigh {
		c := msg.Clone()
		c.Dir = +1
		// Advance the covered arc past self only: on a strided step the
		// skipped nodes' arc is then part of [RangeStart, landing] at the
		// next stop-rule check, so a range ending inside a skipped
		// interval still terminates at the first landing past it.
		c.RangeStart = s.Add(self, 1)
		if stride > 1 && msg.Mode == RangeSequential {
			if nb, ok := net.(Neighbors); ok {
				if succs := nb.Successors(self, stride); len(succs) >= stride {
					nb.SendToNode(self, succs[stride-1], c)
					return 1
				}
			}
		}
		net.SendToSuccessor(self, c)
		legs++
	}
	// Walk toward the low boundary (bidirectional mode only). The node
	// covering the low boundary is by definition the last one that holds
	// any key of the range, so the walk stops there.
	if msg.Mode == RangeBidirectional && msg.Dir <= 0 && !net.Covers(self, msg.RangeStart) {
		c := msg.Clone()
		c.Dir = -1
		net.SendToPredecessor(self, c)
		legs++
	}
	return legs
}

// FanOut is one tree-dissemination step at self over the rest of the arc,
// (self, msg.RangeEnd]; it returns the number of legs sent. ContinueRange
// calls it at every tree-mode coverer; a substrate calls it at the ring
// predecessor of a split leg's sub-arc, which fans the sub-arc out without
// being delivered itself.
//
// If the substrate splits the arc (Neighbors.SplitHeads), each sub-arc
// leaves as a routed leg. Otherwise the arc is partitioned among self's
// routing entries inside it, each child recursing over its part. Because
// the entries are spread across the arc, the depth stays logarithmic in
// the covered nodes at one message per covered node — the sequential
// walk's cost at a fraction of its delay (ablation A1). With no entry
// inside the arc the remaining keys belong to self's successor, reached
// only on the rightmost path (RangeTail): interior subtrees' parents
// already delivered to the sibling covering those keys. A substrate
// without routing entries therefore walks the successor chain, exactly the
// sequential walk.
func FanOut(net Network, self Key, msg *Message) int {
	s := net.Space()
	var kids []Key
	nb, ok := net.(Neighbors)
	if ok {
		if legs := splitArc(net, nb, self, msg, s.Add(self, 1), false); legs > 0 {
			return legs
		}
		for _, c := range nb.RoutingEntries(self, nil) {
			if s.BetweenIncl(c, self, msg.RangeEnd) {
				kids = append(kids, c)
			}
		}
		// Ring order away from self: ascending clockwise distance.
		slices.SortFunc(kids, func(a, b Key) int { return cmp.Compare(s.Distance(self, a), s.Distance(self, b)) })
		kids = slices.Compact(kids)
	}
	// Every leg advances the covered-arc marker (see ContinueRange), so a
	// range wrapping the whole ring terminates instead of lapping it.
	if len(kids) == 0 {
		if !msg.RangeTail {
			return 0
		}
		c := msg.Clone()
		c.Dir = +1
		c.RangeStart = s.Add(self, 1)
		net.SendToSuccessor(self, c)
		return 1
	}
	return partition(s, msg, kids, func(c *Message, kid Key) {
		c.Dir = +1
		c.RangeStart = s.Add(self, 1)
		nb.SendToNode(self, kid, c)
	})
}

// splitArc sends the tree-mode msg out of `from` as one routed leg per
// sub-arc of [lo, msg.RangeEnd] when the substrate splits it, and returns
// the number of legs (0: not split). Every leg starts an unanchored
// stateful walk (SplitShiftNone) toward its head and leaves through Send
// at the origin, Forward elsewhere.
func splitArc(net Network, nb Neighbors, from Key, msg *Message, lo Key, origin bool) int {
	heads := nb.SplitHeads(from, lo, msg.RangeEnd)
	if len(heads) < 2 {
		return 0
	}
	return partition(net.Space(), msg, heads, func(c *Message, h Key) {
		c.RangeStart = h
		c.Split, c.SplitImg, c.SplitShift = true, 0, SplitShiftNone
		if origin {
			net.Send(from, h, c)
		} else {
			net.Forward(from, h, c)
		}
	})
}

// partition is the one arc-partition loop of the tree mode: it hands leg
// one clone of msg per part, in clockwise order. Part j's sub-range ends
// just before part j+1 and never owns the tail; the last part keeps the
// high boundary and inherits the tail ownership. Exactly-once delivery
// holds because the parts partition the arc and each subtree only ever
// reaches nodes inside its own part.
func partition(s Space, msg *Message, parts []Key, leg func(c *Message, part Key)) int {
	for j, p := range parts {
		c := msg.Clone()
		if j+1 < len(parts) {
			c.RangeEnd = s.Add(parts[j+1], s.Size()-1)
			c.RangeTail = false
		}
		leg(c, p)
	}
	return len(parts)
}
