package chord

import (
	"fmt"
	"sort"
	"strings"

	// Registers the default "chord" machine with the overlay registry.
	_ "streamdex/internal/chord/protocol"
	"streamdex/internal/clock"
	"streamdex/internal/dht"
	"streamdex/internal/overlay"
	"streamdex/internal/sim"
	"streamdex/internal/wire"
)

// Config carries the simulation and protocol parameters.
type Config struct {
	// Space is the identifier universe; the evaluation uses m = 32.
	Space dht.Space
	// HopDelay is the constant network latency per overlay hop. The Chord
	// simulator the paper links against "simulates a constant 50 ms delay
	// per hop when routing a message to the destination" (§V).
	HopDelay sim.Time
	// SuccListLen is the successor-list length for failure tolerance.
	SuccListLen int
	// StabilizeEvery is the period of the stabilize/notify maintenance
	// task. Zero disables periodic maintenance (useful for static
	// experiments where the ring is constructed perfectly up front, which
	// keeps the event count proportional to the measured traffic).
	StabilizeEvery sim.Time
	// FixFingersEvery is the period of the finger-repair task; one finger
	// is refreshed per firing. Defaults to StabilizeEvery when zero and
	// stabilization is enabled.
	FixFingersEvery sim.Time
	// Machine selects the routing machine from the overlay registry
	// ("chord", "koorde", "pastry"). Empty means "chord", the historical
	// default; every other parameter applies unchanged to any machine. A
	// static machine (overlay.Factory.Static) takes no maintenance periods.
	Machine string
}

// DefaultConfig returns the evaluation configuration: a 32-bit ring and the
// 50 ms per-hop delay, with periodic maintenance enabled.
func DefaultConfig() Config {
	return Config{
		Space:           dht.NewSpace(32),
		HopDelay:        50 * sim.Millisecond,
		SuccListLen:     8,
		StabilizeEvery:  500 * sim.Millisecond,
		FixFingersEvery: 250 * sim.Millisecond,
	}
}

// Network simulates the overlay of the routing machine Config.Machine
// names — Chord, Koorde or the static Pastry machine: it owns the nodes,
// routes data-plane messages hop by hop on the event engine by the
// machine's Covers and NextHop, and reports traffic to the observer. It
// implements dht.Substrate. All timing goes through the clock
// abstraction (a virtual view of the engine), so the protocol logic is
// shared verbatim with clock-agnostic deployments.
type Network struct {
	clk   clock.Clock
	cfg   Config
	space dht.Space
	fac   overlay.Factory

	nodes map[dht.Key]*Node
	// aliveSorted caches the sorted identifiers of live nodes; it backs
	// the test oracle and perfect-ring construction, never routing.
	aliveSorted []dht.Key

	obs dht.Observer

	dropped int64
}

// New creates an empty overlay on the given engine. cfg.Space must be set.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.Space.M == 0 {
		panic("chord: config without identifier space")
	}
	if cfg.HopDelay < 0 {
		panic("chord: negative hop delay")
	}
	if cfg.SuccListLen <= 0 {
		cfg.SuccListLen = 8
	}
	if cfg.StabilizeEvery > 0 && cfg.FixFingersEvery == 0 {
		cfg.FixFingersEvery = cfg.StabilizeEvery
	}
	if cfg.Machine == "" {
		cfg.Machine = "chord"
	}
	fac, ok := overlay.Lookup(cfg.Machine)
	if !ok {
		panic(fmt.Sprintf("chord: unknown routing machine %q (registered: %s)",
			cfg.Machine, strings.Join(overlay.Names(), ", ")))
	}
	if fac.Static && cfg.StabilizeEvery > 0 {
		panic(fmt.Sprintf("chord: static machine %q runs no maintenance", cfg.Machine))
	}
	return &Network{
		clk:   clock.Virtual(eng),
		cfg:   cfg,
		space: cfg.Space,
		fac:   fac,
		nodes: make(map[dht.Key]*Node),
		obs:   dht.NopObserver{},
	}
}

// SetObserver installs the traffic observer (nil restores the no-op).
func (net *Network) SetObserver(o dht.Observer) {
	if o == nil {
		net.obs = dht.NopObserver{}
		return
	}
	net.obs = o
}

// Clock implements dht.Substrate: the clock the overlay schedules on.
func (net *Network) Clock() clock.Clock { return net.clk }

// Space implements dht.Network.
func (net *Network) Space() dht.Space { return net.space }

// Config returns the network configuration.
func (net *Network) Config() Config { return net.cfg }

// Static reports whether the hosted machine is static
// (overlay.Factory.Static): BuildStable is its only construction, and it
// has no join, maintenance or failure repair.
func (net *Network) Static() bool { return net.fac.Static }

// Dropped returns the number of data-plane messages lost because no live
// next hop existed or a node failed with messages in flight toward it.
func (net *Network) Dropped() int64 { return net.dropped }

// Node returns the node with the given identifier, or nil.
func (net *Network) Node(id dht.Key) *Node { return net.nodes[id] }

// NodeIDs returns the identifiers of all live nodes in ring order.
func (net *Network) NodeIDs() []dht.Key {
	out := make([]dht.Key, len(net.aliveSorted))
	copy(out, net.aliveSorted)
	return out
}

// Len returns the number of live nodes.
func (net *Network) Len() int { return len(net.aliveSorted) }

func (net *Network) isAlive(id dht.Key) bool {
	n := net.nodes[id]
	return n != nil && n.alive
}

// Alive implements dht.Substrate.
func (net *Network) Alive(id dht.Key) bool { return net.isAlive(id) }

// addNode registers a fresh node object (not yet wired into the ring) and
// builds its routing machine on the shared event-engine clock.
func (net *Network) addNode(id dht.Key, app dht.App) *Node {
	id = net.space.Wrap(id)
	if _, exists := net.nodes[id]; exists {
		panic(fmt.Sprintf("chord: duplicate node id %d", id))
	}
	n := &Node{
		id:    id,
		net:   net,
		app:   app,
		alive: true,
	}
	n.m = net.fac.New(overlay.Config{
		Space:           net.space,
		SuccListLen:     net.cfg.SuccListLen,
		StabilizeEvery:  net.cfg.StabilizeEvery,
		FixFingersEvery: net.cfg.FixFingersEvery,
	}, overlay.Ref{ID: id}, net.clk, func(to overlay.Ref, payload any) {
		net.transmitControl(n, to, payload)
	})
	// Routing (not the maintenance protocol) may skip entries the
	// simulation knows are dead — the historical hardening of the
	// simulated data plane. Convergence itself stays purely message-driven.
	n.m.SetAliveFilter(net.isAlive)
	net.nodes[id] = n
	net.insertAlive(id)
	return n
}

// transmitControl delivers one control-plane message after the per-hop
// delay, charging the observer exactly like a data-plane transmission
// (wire.Sizeof bytes — what the message would cost on a socket). Messages
// toward dead nodes are silently lost; the sender's miss accounting is
// what notices, just as on a real network. Control losses do not count
// into Dropped, which tracks the data plane the evaluation measures.
func (net *Network) transmitControl(from *Node, to overlay.Ref, payload any) {
	msg := &dht.Message{
		Kind:   overlay.KindRing,
		Key:    to.ID,
		Src:    from.id,
		Bytes:  wire.Sizeof(payload),
		SentAt: net.clk.Now(),
	}
	net.clk.Schedule(net.cfg.HopDelay, func() {
		tgt := net.nodes[to.ID]
		if tgt == nil || !tgt.alive {
			return
		}
		msg.Hops = 1
		net.obs.OnTransmit(from.id, to.ID, msg)
		tgt.m.Handle(payload)
	})
}

func (net *Network) insertAlive(id dht.Key) {
	i := sort.Search(len(net.aliveSorted), func(i int) bool { return net.aliveSorted[i] >= id })
	net.aliveSorted = append(net.aliveSorted, 0)
	copy(net.aliveSorted[i+1:], net.aliveSorted[i:])
	net.aliveSorted[i] = id
}

func (net *Network) removeAlive(id dht.Key) {
	i := sort.Search(len(net.aliveSorted), func(i int) bool { return net.aliveSorted[i] >= id })
	if i < len(net.aliveSorted) && net.aliveSorted[i] == id {
		net.aliveSorted = append(net.aliveSorted[:i], net.aliveSorted[i+1:]...)
	}
}

// OracleSuccessor returns the true successor node of key given current live
// membership. It is the reference the protocol is tested against and the
// basis of perfect-ring construction; routing never consults it.
func (net *Network) OracleSuccessor(key dht.Key) (dht.Key, bool) {
	if len(net.aliveSorted) == 0 {
		return 0, false
	}
	key = net.space.Wrap(key)
	i := sort.Search(len(net.aliveSorted), func(i int) bool { return net.aliveSorted[i] >= key })
	if i == len(net.aliveSorted) {
		i = 0
	}
	return net.aliveSorted[i], true
}

// BuildStable creates len(ids) nodes and wires a perfect ring — correct
// successors, predecessors, successor lists and finger tables — in one
// step, the standard warm start for scalability experiments. Apps[i] is
// the application for ids[i]; a nil slice or nil entry installs a no-op app.
// When cfg.StabilizeEvery > 0 maintenance tickers are started with phases
// staggered across nodes.
func (net *Network) BuildStable(ids []dht.Key, apps []dht.App) {
	if len(ids) == 0 {
		panic("chord: BuildStable with no nodes")
	}
	for i, id := range ids {
		var app dht.App = dht.AppFunc(func(dht.Key, *dht.Message) {})
		if apps != nil && apps[i] != nil {
			app = apps[i]
		}
		net.addNode(id, app)
	}
	net.rewireAll()
	if net.cfg.StabilizeEvery > 0 {
		rng := sim.NewRand(0x5eed)
		for _, id := range net.aliveSorted {
			net.startMaintenance(net.nodes[id], rng)
		}
	}
}

// rewireAll rebuilds every live node's pointers from the oracle.
func (net *Network) rewireAll() {
	for _, id := range net.aliveSorted {
		net.rewireNode(net.nodes[id])
	}
}

func (net *Network) rewireNode(n *Node) {
	ring := net.aliveSorted
	sz := len(ring)
	pos := sort.Search(sz, func(i int) bool { return ring[i] >= n.id })
	if pos == sz || ring[pos] != n.id {
		panic("chord: rewire of unregistered node")
	}
	// Successor list.
	succList := make([]overlay.Ref, 0, net.cfg.SuccListLen)
	for k := 1; k <= net.cfg.SuccListLen && k < sz+1; k++ {
		s := ring[(pos+k)%sz]
		if s == n.id {
			break
		}
		succList = append(succList, overlay.Ref{ID: s})
	}
	if len(succList) == 0 {
		succList = append(succList, overlay.Ref{ID: n.id})
	}
	// Predecessor.
	pred := overlay.Ref{ID: ring[(pos-1+sz)%sz]}
	// Long-distance links (fingers on Chord, de Bruijn pointers on
	// Koorde), computed by the machine family's own warm-start rule.
	var longlinks []overlay.Ref
	if net.fac.Longlinks != nil {
		longlinks = net.fac.Longlinks(overlay.Config{Space: net.space, SuccListLen: net.cfg.SuccListLen}, ring, n.id)
	}
	n.m.InstallRing(&pred, succList, longlinks)
}

// SetApp replaces the application of an existing node (used by middleware
// construction, which needs node objects before apps exist).
func (net *Network) SetApp(id dht.Key, app dht.App) {
	n := net.nodes[id]
	if n == nil {
		panic(fmt.Sprintf("chord: SetApp on unknown node %d", id))
	}
	n.app = app
}

// WatchNeighbors implements dht.NeighborWatcher: fn fires on the event loop
// whenever the node's predecessor or first successor changes (the protocol
// machine publishes a view at every ring-state mutation).
func (net *Network) WatchNeighbors(id dht.Key, fn func()) {
	n := net.nodes[id]
	if n == nil {
		panic(fmt.Sprintf("chord: WatchNeighbors on unknown node %d", id))
	}
	n.m.SetNeighborWatch(fn)
}

// --- Data plane -----------------------------------------------------------

// Send implements dht.Network: it initializes bookkeeping and routes msg
// from node `from` to the node covering `key`.
func (net *Network) Send(from dht.Key, key dht.Key, msg *dht.Message) {
	msg.Src = from
	msg.Key = net.space.Wrap(key)
	msg.Hops = 0
	msg.SentAt = net.clk.Now()
	net.process(from, msg)
}

// splitTTL is the hop backstop of a split leg's stateful walk; past it
// the leg degrades to the greedy step, which is strictly clockwise and
// always terminates.
const splitTTL = 64

// Forward implements dht.Network: it re-routes an in-flight message toward
// a new key, preserving cumulative hop count and origin.
func (net *Network) Forward(from dht.Key, key dht.Key, msg *dht.Message) {
	msg.Key = net.space.Wrap(key)
	net.process(from, msg)
}

// process executes one routing step at node `at`.
func (net *Network) process(at dht.Key, msg *dht.Message) {
	n := net.nodes[at]
	if n == nil || !n.alive {
		net.dropped++
		return
	}
	if n.covers(msg.Key) {
		clearSplit(msg)
		net.obs.OnDeliver(at, msg)
		n.app.Deliver(at, msg)
		return
	}
	if msg.Split {
		if succ, ok := n.liveSuccessor(); ok && succ != at && net.space.BetweenIncl(msg.Key, at, succ) {
			// The walk reached the sub-arc's ring predecessor: its
			// successor list spans the (deliberately small) sub-arc, so
			// fan out from here — one level shallower than first hopping
			// to the head's coverer and delegating there. This node is
			// before the sub-range and is not delivered itself.
			clearSplit(msg)
			dht.FanOut(net, at, msg)
			return
		}
		if dr, ok := n.m.(overlay.DigitRouter); ok && msg.Hops < splitTTL {
			if next, img, shift, ok := dr.DigitHop(msg.Key, msg.SplitImg, msg.SplitShift); ok && next.ID != at {
				msg.SplitImg, msg.SplitShift = img, shift
				net.transmit(at, next.ID, msg, true)
				return
			}
		}
		// No digit router (or walk exhausted): the greedy step below
		// routes the leg; it is strictly clockwise and terminates.
	}
	next, ok := n.nextHop(msg.Key)
	if !ok || next == at {
		net.dropped++
		return
	}
	net.transmit(at, next, msg, true)
}

// clearSplit strips the routed-leg walk state before a message is
// delivered or delegated; applications never see split bookkeeping.
func clearSplit(msg *dht.Message) {
	if !msg.Split {
		return
	}
	msg.Split = false
	msg.SplitImg = 0
	msg.SplitShift = 0
}

// transmit delivers msg to `to` after the hop delay. When route is true the
// receiving node continues Chord routing; otherwise the message is for the
// neighbor itself and is delivered directly.
func (net *Network) transmit(from, to dht.Key, msg *dht.Message, route bool) {
	net.clk.Schedule(net.cfg.HopDelay, func() {
		if !net.isAlive(to) {
			net.dropped++
			return
		}
		msg.Hops++
		net.obs.OnTransmit(from, to, msg)
		if route {
			net.process(to, msg)
			return
		}
		n := net.nodes[to]
		net.obs.OnDeliver(to, msg)
		n.app.Deliver(to, msg)
	})
}

// SendToSuccessor implements dht.Network: one hop along the ring.
func (net *Network) SendToSuccessor(from dht.Key, msg *dht.Message) {
	n := net.nodes[from]
	if n == nil || !n.alive {
		net.dropped++
		return
	}
	succ, ok := n.liveSuccessor()
	if !ok || succ == from {
		net.dropped++
		return
	}
	net.transmit(from, succ, msg, false)
}

// SendToPredecessor implements dht.Network: one hop counter-clockwise.
func (net *Network) SendToPredecessor(from dht.Key, msg *dht.Message) {
	n := net.nodes[from]
	if n == nil || !n.alive {
		net.dropped++
		return
	}
	pred, ok := n.livePredecessor()
	if !ok || pred == from {
		net.dropped++
		return
	}
	net.transmit(from, pred, msg, false)
}

// Covers implements dht.Network.
func (net *Network) Covers(id dht.Key, key dht.Key) bool {
	n := net.nodes[id]
	return n != nil && n.alive && n.covers(net.space.Wrap(key))
}

// Successors implements dht.Neighbors: up to n live successors of id,
// nearest first, from the node's protocol successor list. The list stops
// at the first self-reference (a ring smaller than the list wraps around),
// so callers see each neighbor at most once.
func (net *Network) Successors(id dht.Key, n int) []dht.Key {
	nd := net.nodes[id]
	if nd == nil || !nd.alive || n <= 0 {
		return nil
	}
	out := make([]dht.Key, 0, n)
	for _, ref := range nd.m.SuccessorList() {
		if ref.ID == id {
			break
		}
		if !net.isAlive(ref.ID) {
			continue
		}
		out = append(out, ref.ID)
		if len(out) == n {
			break
		}
	}
	return out
}

// SendToNode implements dht.Neighbors: one direct traversal to a known
// neighbor, charged and delivered exactly like a successor hop.
func (net *Network) SendToNode(from, to dht.Key, msg *dht.Message) {
	n := net.nodes[from]
	if n == nil || !n.alive || from == to {
		net.dropped++
		return
	}
	net.transmit(from, to, msg, false)
}

// RoutingEntries implements dht.Neighbors: the live entries the machine's
// EachRoutingEntry yields — Chord fingers or Koorde de Bruijn pointers,
// then successors.
func (net *Network) RoutingEntries(id dht.Key, dst []dht.Key) []dht.Key {
	n := net.nodes[id]
	if n == nil || !n.alive {
		return dst
	}
	n.m.EachRoutingEntry(func(r overlay.Ref) {
		if r.ID != id && net.isAlive(r.ID) {
			dst = append(dst, r.ID)
		}
	})
	return dst
}

// SplitHeads implements dht.Neighbors for machines whose routing entries
// cannot subdivide a distant arc (overlay.ArcSplitter — Koorde, whose
// contiguous de Bruijn window sits near k·self): wide tree-mode arcs leave
// as routed sub-range legs. Each leg's sub-arc is small enough to finish
// in one successor-list fan-out, and every split at least halves the arc,
// so depth stays logarithmic and the recursion terminates.
func (net *Network) SplitHeads(id, lo, hi dht.Key) []dht.Key {
	n := net.nodes[id]
	if n == nil || !n.alive {
		return nil
	}
	if sp, ok := n.m.(overlay.ArcSplitter); ok {
		return sp.SplitHeads(lo, hi)
	}
	return nil
}

// Compile-time check.
var _ dht.Neighbors = (*Network)(nil)
