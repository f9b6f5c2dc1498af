// Package overlay defines the substrate-neutral control plane: the
// routing Machine interface, the immutable View snapshot that data-plane
// workers route on without locks, a registry keyed by machine name so
// simulators and live nodes can construct any registered substrate from a
// -substrate flag, and the ring backbone (Ring, ring.go) with its shared
// messages (ringmsgs.go) that every machine embeds.
//
// The paper's middleware claims independence from the underlying
// content-based routing layer (§II-B); this package is that claim made
// structural. internal/chord/protocol registers the Chord machine (the
// backbone plus fingers), internal/koorde the de Bruijn machine (the
// backbone plus a de Bruijn chain), internal/pastry the static
// prefix-routing machine (the backbone plus a prefix table and the leaf
// set's predecessor half), and neither the simulated substrate
// (internal/chord.Network) nor the live socket adapter
// (internal/transport.Node) knows which one it is driving.
package overlay

import (
	"fmt"
	"sort"

	"streamdex/internal/clock"
	"streamdex/internal/dht"
	"streamdex/internal/metrics"
	"streamdex/internal/sim"
)

// KindRing tags control-plane maintenance traffic of every routing machine
// (Chord and Koorde alike) so observers can separate ring upkeep from the
// data plane the evaluation measures.
const KindRing dht.Kind = 200

// Ref names a node: its ring identifier plus the transport address needed
// to reach it. The simulator leaves Addr empty (identifiers are addresses
// there); the live transport carries "host:port".
type Ref struct {
	ID   dht.Key
	Addr string
}

// Config carries the substrate-independent protocol parameters. Zero
// values take the defaults NewRing documents.
type Config struct {
	// Space is the identifier universe.
	Space dht.Space
	// SuccListLen is the successor-list length for failure tolerance.
	SuccListLen int
	// StabilizeEvery is the period of the stabilize/notify task; zero
	// disables periodic maintenance.
	StabilizeEvery sim.Time
	// FixFingersEvery is the period of the long-link repair task (finger
	// repair on Chord, de Bruijn pointer repair on Koorde).
	FixFingersEvery sim.Time
	// JoinRetryEvery bounds how often an un-acknowledged join is retried.
	JoinRetryEvery sim.Time
	// MissThreshold is how many consecutive unanswered probes declare a
	// neighbor dead.
	MissThreshold int
	// FindTTL bounds lookup forwarding.
	FindTTL int
}

// View is an immutable snapshot of a machine's routing state, published
// atomically by the machine on its clock goroutine and read lock-free by
// data-plane workers. All methods are pure reads of the snapshot.
type View interface {
	// Joined reports whether the node is part of a ring.
	Joined() bool
	// Owner returns the node this view belongs to.
	Owner() Ref
	// Successor returns the first successor, if any.
	Successor() (Ref, bool)
	// Predecessor returns the predecessor, if known.
	Predecessor() (Ref, bool)
	// SuccRefs returns the successor list (shared slice: do not mutate).
	SuccRefs() []Ref
	// Covers reports whether the snapshot owner is responsible for key.
	Covers(key dht.Key) bool
	// NextHop returns the forwarding target for key.
	NextHop(key dht.Key) (Ref, bool)
	// ClosestPreceding returns the routing entry closest to but before
	// key — the greedy step shared by every ring-ordered substrate.
	ClosestPreceding(key dht.Key) (Ref, bool)
}

// Machine is one node's routing protocol state machine. Implementations
// are pure and message-driven: all mutation happens on the owning clock
// goroutine via Handle / Tick / the maintenance tickers, and concurrent
// readers use View.
type Machine interface {
	// Name returns the registered machine name ("chord", "koorde", "pastry").
	Name() string
	// Self returns the node's own reference.
	Self() Ref
	// Joined reports whether the node is part of a ring.
	Joined() bool
	// Stats returns a snapshot of the maintenance counters.
	Stats() metrics.Ring

	// Create starts a fresh one-node ring.
	Create()
	// Join starts the join protocol toward the bootstrap node; onJoined
	// (optional) fires once with the discovered successor.
	Join(bootstrap Ref, onJoined func(succ Ref))
	// AbandonJoin cancels an unfinished join.
	AbandonJoin()
	// StartMaintenance launches the periodic stabilize and repair tasks.
	StartMaintenance()
	// Tick runs one stabilize round and one long-link repair synchronously
	// (deterministic harnesses that do not want tickers).
	Tick()
	// Stop cancels maintenance and marks the machine stopped.
	Stop()

	// InstallRing force-feeds a perfect warm start: predecessor, successor
	// list and — when non-nil — the machine's long-distance links (fingers
	// on Chord, de Bruijn pointers on Koorde, the prefix table followed by
	// the leaf set's predecessor half on Pastry).
	InstallRing(pred *Ref, succList []Ref, longlinks []Ref)
	// AdoptPredecessor, ClearPredecessor and AdoptSuccessors splice ring
	// state during graceful leaves.
	AdoptPredecessor(p Ref)
	ClearPredecessor()
	AdoptSuccessors(list []Ref)

	// SetAliveFilter installs a liveness oracle consulted by routing (not
	// by the maintenance protocol, which must discover failures itself).
	SetAliveFilter(alive func(dht.Key) bool)
	// SetNeighborWatch installs a callback fired on the clock goroutine
	// whenever the predecessor or first successor changes.
	SetNeighborWatch(fn func())
	// SetPhases staggers the first firing of the maintenance tickers.
	SetPhases(stabilize, repair sim.Time)

	// Handle processes one inbound control-plane message.
	Handle(msg any)
	// FindSuccessor starts a lookup for key; onResp fires with the owner.
	FindSuccessor(key dht.Key, onResp func(succ Ref))

	// Routing accessors (clock-goroutine only; workers use View).
	Successor() (Ref, bool)
	LiveSuccessor() (Ref, bool)
	Predecessor() (Ref, bool)
	LivePredecessor() (Ref, bool)
	SuccessorList() []Ref
	// LonglinkCount reports how many long-distance links are installed.
	LonglinkCount() int
	// EachRoutingEntry visits every routing entry (long links, then
	// successors) — the fan-out set of tree-mode range multicast.
	EachRoutingEntry(fn func(Ref))
	Covers(key dht.Key) bool
	NextHop(key dht.Key) (Ref, bool)
	ClosestPreceding(key dht.Key) (Ref, bool)
	// View returns the latest published snapshot (lock-free, any
	// goroutine).
	View() View
}

// ArcSplitter is optionally implemented by machines whose routing state
// cannot subdivide a distant arc (Koorde's de Bruijn chain is a single
// contiguous window near k·self, unlike Chord's exponentially spaced
// fingers). SplitHeads proposes the low keys of sub-arcs a tree-mode
// range multicast should route independent legs toward, so the fan-out
// depth stays logarithmic; a nil result means the machine's plain
// routing-entry delegation is already shallow enough.
type ArcSplitter interface {
	// SplitHeads partitions the arc [lo, hi] into sub-arcs and returns
	// their low keys in clockwise order, heads[0] == lo. It returns nil
	// (never a single head) when splitting would not help.
	SplitHeads(lo, hi dht.Key) []dht.Key
}

// DigitRouter is optionally implemented by machines with a stateful
// routed walk (Koorde's digit injection): one hop of a walk toward
// target whose state — the imaginary address img and the number of key
// digits left, dht.SplitShiftNone before anchoring — travels in the
// message. Substrates fall back to the greedy NextHop step when the
// machine lacks the interface or returns ok == false.
type DigitRouter interface {
	// DigitHop advances the walk one hop: inject digits while the
	// imaginary address sits on this node's arc, re-anchor when the own
	// arc aligns strictly closer, and pick the forwarding node.
	DigitHop(target, img dht.Key, shift uint8) (next Ref, nimg dht.Key, nshift uint8, ok bool)
}

// Factory constructs machines of one substrate family.
type Factory struct {
	// Name is the registry key ("chord", "koorde", "pastry").
	Name string
	// New builds a machine. send transmits one control message to a peer;
	// it must be safe to call from the clock goroutine.
	New func(cfg Config, self Ref, clk clock.Clock, send func(to Ref, msg any)) Machine
	// Longlinks computes the machine's perfect long-distance links for a
	// warm start, given the sorted live ring (the oracle). The result
	// feeds InstallRing. Nil means the machine repairs its links itself.
	Longlinks func(cfg Config, ring []dht.Key, self dht.Key) []Ref
	// Static marks a machine built by the warm start alone: it has no
	// join protocol, issues no lookups and runs no maintenance (no
	// membership dynamics). The simulated network refuses to join, create
	// or maintain it.
	Static bool
}

var registry = map[string]Factory{}

// Register adds a machine family; called from the implementing package's
// init. Duplicate or empty names panic — they are programming errors.
func Register(f Factory) {
	if f.Name == "" {
		panic("overlay: Register with empty name")
	}
	if f.New == nil {
		panic(fmt.Sprintf("overlay: Register(%q) without constructor", f.Name))
	}
	if _, dup := registry[f.Name]; dup {
		panic(fmt.Sprintf("overlay: duplicate machine %q", f.Name))
	}
	registry[f.Name] = f
}

// Lookup returns the factory registered under name.
func Lookup(name string) (Factory, bool) {
	f, ok := registry[name]
	return f, ok
}

// Names returns the registered machine names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SuccessorOnRing returns the first identifier in the sorted ring at or
// clockwise after key — the membership oracle shared by warm-start
// long-link construction on every substrate.
func SuccessorOnRing(space dht.Space, ring []dht.Key, key dht.Key) (dht.Key, bool) {
	if len(ring) == 0 {
		return 0, false
	}
	key = space.Wrap(key)
	i := sort.Search(len(ring), func(i int) bool { return ring[i] >= key })
	if i == len(ring) {
		i = 0
	}
	return ring[i], true
}
