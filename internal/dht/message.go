package dht

import "streamdex/internal/sim"

// Kind is an application-assigned message type. The middleware's kinds
// (MBR update, similarity query, response, ...) are defined in package core;
// the routing layer treats Kind opaquely but surfaces it to observers so the
// evaluation can break traffic into the exact components of the paper's
// figures 6-8.
type Kind uint8

// Message is a routed datagram. A message is sent "not to a specific data
// center but rather to the key to which the summary maps"; the routing
// substrate delivers it to the node covering Key.
type Message struct {
	Kind    Kind
	Key     Key // destination key
	Payload any

	// Src is the identifier of the originating node.
	Src Key
	// Bytes is the message's estimated wire size (envelope + payload),
	// set by the application at construction so observers can account
	// bandwidth as well as message counts. Zero means "unsized".
	Bytes int
	// SentAt is the virtual time the origin handed the message to the
	// network.
	SentAt sim.Time
	// Hops counts network traversals so far. It is cumulative across
	// range-multicast continuation legs, matching how the paper reports
	// "the number of hops each message traverses before reaching the
	// destination and being processed" (Fig. 8).
	Hops int

	// RangeEnd, when RangeHi is true, marks the highest key of a range
	// multicast in progress; delivery continues along successor pointers
	// until the covering node's interval contains RangeEnd (§IV-C).
	// For the bidirectional mode RangeStart marks the low boundary walked
	// toward via predecessor pointers.
	RangeStart Key
	RangeEnd   Key
	HasRange   bool
	// Mode records the multicast strategy the range was initiated with.
	Mode RangeMode
	// RangeTail marks the rightmost path of a tree dissemination: only
	// its holder may take the final successor hop past the last in-range
	// node to reach the node covering the high boundary. Interior
	// subtrees stop at their sibling boundary (the sibling itself was
	// delivered by the common parent).
	RangeTail bool
	// Dir records which way a bidirectional continuation leg is walking:
	// +1 toward the successor, -1 toward the predecessor, 0 for the
	// initial routed leg.
	Dir int

	// Split marks a routed sub-range head of an arc-split tree multicast:
	// the message is in flight toward the node preceding Key, which fans
	// the sub-range [RangeStart, RangeEnd] out of its successor list
	// instead of walking it. SplitImg and SplitShift carry the routing
	// machine's stateful walk (the imaginary de Bruijn address and the
	// digits left to inject on Koorde); substrates without a DigitRouter
	// machine route split legs greedily. All three fields are cleared
	// before the message is delivered or fanned out (FanOut).
	Split      bool
	SplitImg   Key
	SplitShift uint8
}

// SplitShiftNone is the SplitShift sentinel for "walk not anchored yet":
// the first DigitRouter hop computes the alignment. It matches the
// ShiftNone sentinel of the Koorde lookup walk.
const SplitShiftNone uint8 = 0xff

// Clone returns a shallow copy (Payload is shared). Range-multicast
// forwarding clones the delivered message for the continuation leg so hop
// accounting of the two legs cannot alias.
func (m *Message) Clone() *Message {
	c := *m
	return &c
}

// RangeMode selects how a message addressed to a range of keys is spread
// over the covering nodes (§IV-C).
type RangeMode int

const (
	// RangeSequential sends to the lowest key in the range; each covering
	// node delivers locally and forwards to its successor until the range
	// is exhausted. Message-efficient but the propagation is completely
	// sequential.
	RangeSequential RangeMode = iota
	// RangeBidirectional sends to the middle key of the range; the middle
	// node forwards both to its successor and to its predecessor, halving
	// the worst-case propagation delay. Requires predecessor support from
	// the routing substrate.
	RangeBidirectional
	// RangeTree sends to the lowest key and then splits the remaining
	// range among the covering node's long-distance links (Chord
	// fingers), recursively — the "efficient native support of multicast
	// to a range of keys" the paper calls for in §IV-C/§VI-B. Delay
	// drops from linear to logarithmic in the number of covered nodes at
	// the same message cost. A substrate that offers no routing entries
	// (see Neighbors) walks the successor chain: sequential propagation.
	RangeTree
)

// String implements fmt.Stringer for test output.
func (m RangeMode) String() string {
	switch m {
	case RangeSequential:
		return "sequential"
	case RangeBidirectional:
		return "bidirectional"
	case RangeTree:
		return "tree"
	default:
		return "unknown"
	}
}

// App is the application upcall: the routing layer invokes Deliver on the
// node covering the destination key ("deliver operation that invokes an
// application upcall upon message delivery").
type App interface {
	Deliver(self Key, msg *Message)
}

// AppFunc adapts a function to the App interface.
type AppFunc func(self Key, msg *Message)

// Deliver calls f(self, msg).
func (f AppFunc) Deliver(self Key, msg *Message) { f(self, msg) }

// Network is the routing interface the middleware depends on. It is the
// common send/join/leave/deliver interface of content-based routing schemes
// extended with the two neighbor primitives needed for range multicast.
type Network interface {
	// Space exposes the identifier universe.
	Space() Space
	// Send routes msg from the node identified by from to the node
	// covering key. Hops/SentAt bookkeeping is initialised here.
	Send(from Key, key Key, msg *Message)
	// Forward continues routing a message already in flight (used by
	// nodes that receive a ranged message and must pass a continuation
	// leg along). Hop count is preserved and keeps accumulating.
	Forward(from Key, key Key, msg *Message)
	// SendToSuccessor transmits msg one hop to from's current ring
	// successor, preserving cumulative hop count.
	SendToSuccessor(from Key, msg *Message)
	// SendToPredecessor transmits msg one hop to from's current ring
	// predecessor, preserving cumulative hop count.
	SendToPredecessor(from Key, msg *Message)
	// Covers reports whether node id covers key, i.e. whether id is the
	// successor node of key in the current ring.
	Covers(id Key, key Key) bool
}

// Observer receives traffic callbacks for accounting. All methods are
// invoked synchronously from the event loop.
type Observer interface {
	// OnTransmit fires once per network traversal of a message: node
	// `from` sends to node `to`. The message's Hops has already been set
	// to the value after this traversal.
	OnTransmit(from, to Key, msg *Message)
	// OnDeliver fires when the covering node processes the message.
	OnDeliver(at Key, msg *Message)
}

// NopObserver discards all events; it is the default observer.
type NopObserver struct{}

// OnTransmit implements Observer.
func (NopObserver) OnTransmit(from, to Key, msg *Message) {}

// OnDeliver implements Observer.
func (NopObserver) OnDeliver(at Key, msg *Message) {}
