// Package pastry implements a second content-based routing substrate — a
// simplified, Pastry-style prefix-routing overlay (Rowstron & Druschel,
// Middleware 2001) — behind the same dht.Substrate interface as package
// chord.
//
// The paper stresses that its middleware "relies on the standard
// distributed hashing table interface ... rather than on a particular
// implementation" and "can use virtually any P2P routing protocol" (CAN,
// Chord, Pastry, Tapestry). This package substantiates that claim: the
// complete middleware, workload and experiment stack runs unmodified on
// top of it (see the cross-substrate tests and the substrate-comparison
// ablation).
//
// Protocol sketch:
//
//   - Identifiers are interpreted as strings of base-2^b digits (b = 4,
//     hexadecimal).
//   - Each node keeps a routing table with one row per digit position:
//     row r holds, for every digit value d, some node that shares the
//     first r digits with the local node and has digit d at position r.
//   - Each node also keeps a leaf set: the L/2 closest ring successors and
//     L/2 closest predecessors, which both terminates routing exactly and
//     provides the neighbor primitives the range multicast needs.
//   - Routing to key k: if the local node covers k (successor-interval
//     semantics, so the middleware sees identical delivery rules on both
//     substrates), deliver; if k's successor lies within the leaf set,
//     hand over directly; otherwise forward along the routing-table entry
//     matching one more digit of k — falling back to the numerically
//     closest known node that still makes prefix progress.
//
// Routing therefore takes O(log_{2^b} N) hops — fewer, fatter strides than
// Chord's O(log2 N) fingers, which is exactly the contrast the substrate-
// comparison ablation measures. This implementation models a static
// deployment (BuildStable only): full membership dynamics live in package
// chord, which remains the reference substrate.
package pastry

import (
	"fmt"
	"sort"

	"streamdex/internal/clock"
	"streamdex/internal/dht"
	"streamdex/internal/sim"
)

// digitBits is b: identifiers are strings of base-2^b digits.
const digitBits = 4

// Config parameterizes the overlay.
type Config struct {
	// Space is the identifier universe (must match the middleware's).
	Space dht.Space
	// HopDelay is the per-hop network latency (50 ms in the evaluation).
	HopDelay sim.Time
	// LeafSize is the total leaf-set size; half on each ring side.
	LeafSize int
}

// DefaultConfig mirrors the evaluation's Chord configuration.
func DefaultConfig() Config {
	return Config{Space: dht.NewSpace(32), HopDelay: 50 * sim.Millisecond, LeafSize: 16}
}

// node is one overlay member.
type node struct {
	id  dht.Key
	net *Network
	app dht.App

	// succs/preds are the leaf set halves, nearest first.
	succs []dht.Key
	preds []dht.Key

	// table[r][d] is a node sharing r digits with id whose digit r is d;
	// zero value with ok=false means empty.
	table [][]tableEntry
}

type tableEntry struct {
	id dht.Key
	ok bool
}

// Network is the simulated overlay. It implements dht.Substrate.
type Network struct {
	clk   clock.Clock
	cfg   Config
	space dht.Space

	nodes  map[dht.Key]*node
	sorted []dht.Key

	obs dht.Observer

	dropped int64
	digits  int // number of digit positions = ceil(M / digitBits)
}

// New creates an empty overlay.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.Space.M == 0 {
		panic("pastry: config without identifier space")
	}
	if cfg.LeafSize < 2 {
		cfg.LeafSize = 16
	}
	digits := (int(cfg.Space.M) + digitBits - 1) / digitBits
	return &Network{
		clk:    clock.Virtual(eng),
		cfg:    cfg,
		space:  cfg.Space,
		nodes:  make(map[dht.Key]*node),
		obs:    dht.NopObserver{},
		digits: digits,
	}
}

// BuildStable creates the overlay with perfect leaf sets and routing
// tables for the given identifiers.
func (net *Network) BuildStable(ids []dht.Key, apps []dht.App) {
	if len(ids) == 0 {
		panic("pastry: BuildStable with no nodes")
	}
	for i, id := range ids {
		id = net.space.Wrap(id)
		if _, dup := net.nodes[id]; dup {
			panic(fmt.Sprintf("pastry: duplicate node id %d", id))
		}
		var app dht.App = dht.AppFunc(func(dht.Key, *dht.Message) {})
		if apps != nil && apps[i] != nil {
			app = apps[i]
		}
		net.nodes[id] = &node{id: id, net: net, app: app}
		net.sorted = append(net.sorted, id)
	}
	sort.Slice(net.sorted, func(i, j int) bool { return net.sorted[i] < net.sorted[j] })
	for _, id := range net.sorted {
		net.wire(net.nodes[id])
	}
}

// wire fills a node's leaf set and routing table from global knowledge
// (the static-deployment equivalent of Pastry's join protocol).
func (net *Network) wire(n *node) {
	ring := net.sorted
	sz := len(ring)
	pos := sort.SearchInts(asInts(ring), int(n.id))
	half := net.cfg.LeafSize / 2
	n.succs = n.succs[:0]
	n.preds = n.preds[:0]
	for k := 1; k <= half && k < sz; k++ {
		n.succs = append(n.succs, ring[(pos+k)%sz])
		n.preds = append(n.preds, ring[(pos-k+sz)%sz])
	}
	// Routing table: for each prefix length r and digit d, pick the
	// ring-closest qualifying node (a deterministic stand-in for
	// Pastry's proximity heuristic).
	n.table = make([][]tableEntry, net.digits)
	for r := 0; r < net.digits; r++ {
		n.table[r] = make([]tableEntry, 1<<digitBits)
	}
	for _, other := range ring {
		if other == n.id {
			continue
		}
		r := net.sharedDigits(n.id, other)
		d := net.digit(other, r)
		e := &n.table[r][d]
		if !e.ok || net.space.Distance(n.id, other) < net.space.Distance(n.id, e.id) {
			e.id, e.ok = other, true
		}
	}
}

func asInts(ks []dht.Key) []int {
	out := make([]int, len(ks))
	for i, k := range ks {
		out[i] = int(k)
	}
	return out
}

// digit returns the r-th base-2^b digit of k, counting from the most
// significant end of the m-bit identifier.
func (net *Network) digit(k dht.Key, r int) int {
	shift := int(net.space.M) - (r+1)*digitBits
	if shift < 0 {
		// Final partial digit for M not divisible by digitBits.
		return int(k << uint(-shift) & (1<<digitBits - 1))
	}
	return int(k >> uint(shift) & (1<<digitBits - 1))
}

// sharedDigits returns the length of the common digit prefix of a and b.
func (net *Network) sharedDigits(a, b dht.Key) int {
	for r := 0; r < net.digits; r++ {
		if net.digit(a, r) != net.digit(b, r) {
			return r
		}
	}
	return net.digits
}

// --- dht.Substrate --------------------------------------------------------

// Space implements dht.Network.
func (net *Network) Space() dht.Space { return net.space }

// Clock implements dht.Substrate.
func (net *Network) Clock() clock.Clock { return net.clk }

// SetApp implements dht.Substrate.
func (net *Network) SetApp(id dht.Key, app dht.App) {
	n := net.nodes[id]
	if n == nil {
		panic(fmt.Sprintf("pastry: SetApp on unknown node %d", id))
	}
	n.app = app
}

// SetObserver implements dht.Substrate.
func (net *Network) SetObserver(o dht.Observer) {
	if o == nil {
		net.obs = dht.NopObserver{}
		return
	}
	net.obs = o
}

// NodeIDs implements dht.Substrate.
func (net *Network) NodeIDs() []dht.Key {
	out := make([]dht.Key, len(net.sorted))
	copy(out, net.sorted)
	return out
}

// Alive implements dht.Substrate (static overlay: every node is up).
func (net *Network) Alive(id dht.Key) bool {
	_, ok := net.nodes[id]
	return ok
}

// Dropped implements dht.Substrate.
func (net *Network) Dropped() int64 { return net.dropped }

// Covers implements dht.Network: successor-interval semantics, identical
// to Chord's, so the middleware behaves the same on both substrates.
func (net *Network) Covers(id dht.Key, key dht.Key) bool {
	n := net.nodes[id]
	if n == nil {
		return false
	}
	return n.covers(net.space.Wrap(key))
}

func (n *node) covers(key dht.Key) bool {
	if len(n.preds) == 0 {
		return true // single-node overlay
	}
	return n.net.space.BetweenIncl(key, n.preds[0], n.id)
}

// Send implements dht.Network.
func (net *Network) Send(from dht.Key, key dht.Key, msg *dht.Message) {
	msg.Src = from
	msg.Key = net.space.Wrap(key)
	msg.Hops = 0
	msg.SentAt = net.clk.Now()
	net.process(from, msg)
}

// Forward implements dht.Network.
func (net *Network) Forward(from dht.Key, key dht.Key, msg *dht.Message) {
	msg.Key = net.space.Wrap(key)
	net.process(from, msg)
}

// process executes one routing step at node `at`.
func (net *Network) process(at dht.Key, msg *dht.Message) {
	n := net.nodes[at]
	if n == nil {
		net.dropped++
		return
	}
	if n.covers(msg.Key) {
		net.obs.OnDeliver(at, msg)
		n.app.Deliver(at, msg)
		return
	}
	next, ok := n.nextHop(msg.Key)
	if !ok || next == at {
		net.dropped++
		return
	}
	net.transmit(at, next, msg, true)
}

// nextHop picks the forwarding target per the Pastry routing rule.
func (n *node) nextHop(key dht.Key) (dht.Key, bool) {
	sp := n.net.space
	// Leaf-set handover: if key's successor lies within the leaf arc,
	// route to it directly. The leaf set spans (preds[last], succs[last]]
	// around us.
	if len(n.succs) > 0 {
		// Is key covered by one of our successors?
		prev := n.id
		for _, s := range n.succs {
			if sp.BetweenIncl(key, prev, s) {
				return s, true
			}
			prev = s
		}
		// Or by us/our predecessor chain? covers() said no for us, so
		// check each predecessor's interval.
		if len(n.preds) > 0 {
			for i := 0; i < len(n.preds)-1; i++ {
				if sp.BetweenIncl(key, n.preds[i+1], n.preds[i]) {
					return n.preds[i], true
				}
			}
		}
	}
	// Prefix routing: the entry that extends the shared prefix by one
	// digit.
	r := n.net.sharedDigits(n.id, key)
	if r < n.net.digits {
		if e := n.table[r][n.net.digit(key, r)]; e.ok {
			return e.id, true
		}
	}
	// Rare fallback: among all known nodes, pick one strictly closer to
	// the key (numerically, on the ring) than we are; guarantees
	// progress like Pastry's rule.
	best, found := dht.Key(0), false
	myDist := ringAbs(sp, n.id, key)
	consider := func(c dht.Key) {
		if d := ringAbs(sp, c, key); d < myDist {
			if !found || d < ringAbs(sp, best, key) {
				best, found = c, true
			}
		}
	}
	for _, s := range n.succs {
		consider(s)
	}
	for _, p := range n.preds {
		consider(p)
	}
	for _, row := range n.table {
		for _, e := range row {
			if e.ok {
				consider(e.id)
			}
		}
	}
	return best, found
}

// ringAbs is the minimal circular distance between a and b.
func ringAbs(sp dht.Space, a, b dht.Key) uint64 {
	d1 := sp.Distance(a, b)
	d2 := sp.Distance(b, a)
	if d1 < d2 {
		return d1
	}
	return d2
}

// transmit delivers msg to `to` after the hop delay.
func (net *Network) transmit(from, to dht.Key, msg *dht.Message, route bool) {
	net.clk.Schedule(net.cfg.HopDelay, func() {
		n := net.nodes[to]
		if n == nil {
			net.dropped++
			return
		}
		msg.Hops++
		net.obs.OnTransmit(from, to, msg)
		if route {
			net.process(to, msg)
			return
		}
		net.obs.OnDeliver(to, msg)
		n.app.Deliver(to, msg)
	})
}

// SendToSuccessor implements dht.Network using the leaf set.
func (net *Network) SendToSuccessor(from dht.Key, msg *dht.Message) {
	n := net.nodes[from]
	if n == nil || len(n.succs) == 0 {
		net.dropped++
		return
	}
	net.transmit(from, n.succs[0], msg, false)
}

// SendToPredecessor implements dht.Network using the leaf set.
func (net *Network) SendToPredecessor(from dht.Key, msg *dht.Message) {
	n := net.nodes[from]
	if n == nil || len(n.preds) == 0 {
		net.dropped++
		return
	}
	net.transmit(from, n.preds[0], msg, false)
}

// OracleSuccessor returns the true successor of key (test oracle).
func (net *Network) OracleSuccessor(key dht.Key) (dht.Key, bool) {
	if len(net.sorted) == 0 {
		return 0, false
	}
	key = net.space.Wrap(key)
	i := sort.Search(len(net.sorted), func(i int) bool { return net.sorted[i] >= key })
	if i == len(net.sorted) {
		i = 0
	}
	return net.sorted[i], true
}

// Successors implements dht.Neighbors from the leaf set.
func (net *Network) Successors(id dht.Key, n int) []dht.Key {
	nd := net.nodes[id]
	if nd == nil || n <= 0 {
		return nil
	}
	return nd.succs[:min(n, len(nd.succs))]
}

// SendToNode implements dht.Neighbors: one direct traversal to a known
// neighbor.
func (net *Network) SendToNode(from, to dht.Key, msg *dht.Message) {
	if net.nodes[from] == nil || from == to {
		net.dropped++
		return
	}
	net.transmit(from, to, msg, false)
}

// RoutingEntries implements dht.Neighbors: the routing table, then the
// successor half of the leaf set — so tree-mode range multicast completes
// in logarithmic depth here too.
func (net *Network) RoutingEntries(id dht.Key, dst []dht.Key) []dht.Key {
	n := net.nodes[id]
	if n == nil {
		return dst
	}
	for _, row := range n.table {
		for _, e := range row {
			if e.ok {
				dst = append(dst, e.id)
			}
		}
	}
	return append(dst, n.succs...)
}

// SplitHeads implements dht.Neighbors: the routing table spans every
// distant arc, so a tree multicast never splits.
func (net *Network) SplitHeads(id, lo, hi dht.Key) []dht.Key { return nil }

// Compile-time interface checks.
var (
	_ dht.Substrate = (*Network)(nil)
	_ dht.Neighbors = (*Network)(nil)
)
