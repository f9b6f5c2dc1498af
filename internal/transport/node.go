// Package transport runs the middleware's content-based routing substrate
// on real TCP sockets: every node is one OS process with a listener, a set
// of outbound peer connections, and a wall-clock event loop. It implements
// the same dht.Substrate contract as the simulated Chord and Pastry
// overlays, so the entire middleware (package core) runs on it unchanged —
// the portability the paper claims for "virtually any existing
// content-based routing implementation", demonstrated live.
//
// Architecture:
//
//   - Message plane: length-prefixed frames (frame.go). Application and
//     ring-maintenance messages alike travel as wire.Marshal bodies —
//     fixed 45-byte envelope plus hand-packed payload (wire codec v2).
//     Frames are built in pooled buffers, so the steady-state encode path
//     is allocation-free.
//   - Connections: unidirectional. A node accepts inbound connections
//     read-only and dials outbound connections write-only (peer.go), with
//     bounded queues, write coalescing (one vectored write per burst) and
//     jittered exponential-backoff redial, so no connection-identity
//     handshake is needed.
//   - Concurrency: all protocol and application state is confined to the
//     node's clock.Wall loop. Reader goroutines only decode bytes and post
//     closures; writer goroutines only drain their queue. The middleware's
//     single-threaded simulation code therefore runs unmodified.
//   - Ring: successor/predecessor pointers and fingers are maintained by
//     the shared Chord protocol state machine (internal/chord/protocol) —
//     the same code the simulator runs — adapted to sockets in ring.go.
package transport

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	// Registers the default "chord" machine (and its wire codecs) with the
	// overlay registry.
	_ "streamdex/internal/chord/protocol"
	"streamdex/internal/clock"
	"streamdex/internal/dht"
	"streamdex/internal/overlay"
	"streamdex/internal/sim"
	"streamdex/internal/wire"
)

// Ref identifies a remote node: its ring identifier and dial address. It
// is the overlay package's ref type — the transport routes control sends
// by Addr, the simulator by ID.
type Ref = overlay.Ref

// Config parameterizes one transport node.
type Config struct {
	// ID is the node's ring identifier (wrapped into Space).
	ID dht.Key
	// Listen is the TCP listen address, e.g. "127.0.0.1:0".
	Listen string
	// Space is the identifier universe; must match the middleware's.
	Space dht.Space
	// StabilizeEvery is the wall period (in sim.Time units, microseconds)
	// of the stabilize/notify/check-predecessor maintenance task.
	StabilizeEvery int64
	// FixFingersEvery is the period of finger repair (one entry per
	// firing); zero disables fingers (routing falls back to successors).
	FixFingersEvery int64
	// SuccListLen is the successor-list length (failure tolerance).
	SuccListLen int
	// QueueLen bounds each peer's outbound frame queue.
	QueueLen int
	// MaxHops drops routed messages that exceed it (routing-loop guard).
	MaxHops int
	// Workers sizes the data-plane worker pool that decoded data frames fan
	// out to: 0 means GOMAXPROCS, negative disables the pool entirely (all
	// frames post to the run loop, the pre-pool behavior).
	Workers int
	// PoolQueueLen bounds the worker pool's task queue (0 → 64 per worker).
	PoolQueueLen int
	// UDP enables the fire-and-forget datagram plane (udp.go): a UDP
	// socket bound to the TCP listener's port, used for frames whose kind
	// appears in DatagramKinds and that fit in one datagram.
	UDP bool
	// DatagramKinds nominates the message kinds eligible for datagram
	// transport. Only loss-tolerant soft state belongs here (the
	// middleware nominates KindMBR); everything else stays on TCP.
	DatagramKinds []dht.Kind
	// Machine selects the routing machine from the overlay registry
	// ("chord", "koorde"). Empty means "chord", the historical default.
	// All nodes of one cluster must run the same machine: the control
	// plane's message kinds are per-family.
	Machine string
}

// DefaultConfig returns production-shaped defaults for the given identity.
func DefaultConfig(id dht.Key, listen string) Config {
	return Config{
		ID:              id,
		Listen:          listen,
		Space:           dht.NewSpace(32),
		StabilizeEvery:  500_000, // 500 ms
		FixFingersEvery: 250_000, // 250 ms
		SuccListLen:     8,
		QueueLen:        512,
		MaxHops:         255,
	}
}

// Node is one live overlay node. It implements dht.Substrate for the
// single identifier it hosts: NodeIDs() is [ID] — each process runs its
// own middleware instance, unlike the simulator where one Substrate value
// carries the whole overlay.
type Node struct {
	cfg   Config
	space dht.Space
	self  Ref

	clk *clock.Wall
	ln  net.Listener

	peers *peerSet

	// ring is the node's control-plane state machine — the same code the
	// simulator drives through its event engine. Which machine family it
	// is comes from Config.Machine. Its mutators are loop-confined;
	// routing reads go through the lock-free published View.
	ring overlay.Machine

	// pool is the data-plane executor decoded data frames fan out to; nil
	// when Config.Workers < 0 (everything posts to the loop).
	pool *workerPool

	// udp is the optional datagram plane (udp.go); nil unless Config.UDP.
	// udpKinds is frozen at construction, read lock-free by senders.
	udp      *udpPlane
	udpKinds map[dht.Kind]bool

	// Application attachment. Stored atomically (boxed, so differing
	// concrete types are fine) because data-plane workers read them
	// concurrently with the loop installing them.
	app atomic.Value // appBox
	obs atomic.Value // obsBox

	// arenaStats aggregates decode-arena activity across every reader's
	// arena (and the UDP read loop's).
	arenaStats wire.ArenaStats

	dropped atomic.Int64
	closed  atomic.Bool
	accDone chan struct{}
}

type appBox struct{ app dht.App }
type obsBox struct{ obs dht.Observer }

func (n *Node) loadApp() dht.App       { return n.app.Load().(appBox).app }
func (n *Node) observer() dht.Observer { return n.obs.Load().(obsBox).obs }

// lockedObserver serializes observer callbacks: the metrics collector is a
// plain single-threaded accumulator, but with a worker pool OnTransmit and
// OnDeliver fire from many goroutines.
type lockedObserver struct {
	mu    sync.Mutex
	inner dht.Observer
}

func (o *lockedObserver) OnTransmit(from, to dht.Key, msg *dht.Message) {
	o.mu.Lock()
	o.inner.OnTransmit(from, to, msg)
	o.mu.Unlock()
}

func (o *lockedObserver) OnDeliver(at dht.Key, msg *dht.Message) {
	o.mu.Lock()
	o.inner.OnDeliver(at, msg)
	o.mu.Unlock()
}

// New creates a node, binds its listener and starts its event loop. The
// node is not yet part of any ring: call Create for the first node of a
// cluster or Join to enter through a bootstrap address.
func New(cfg Config) (*Node, error) {
	if cfg.Space.M == 0 {
		return nil, fmt.Errorf("transport: config without identifier space")
	}
	if cfg.SuccListLen <= 0 {
		cfg.SuccListLen = 8
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 512
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = 255
	}
	if cfg.StabilizeEvery <= 0 {
		return nil, fmt.Errorf("transport: non-positive stabilize period")
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
	}
	n := &Node{
		cfg:     cfg,
		space:   cfg.Space,
		self:    Ref{ID: cfg.Space.Wrap(cfg.ID), Addr: ln.Addr().String()},
		clk:     clock.NewWall(),
		ln:      ln,
		accDone: make(chan struct{}),
	}
	n.app.Store(appBox{dht.AppFunc(func(dht.Key, *dht.Message) {})})
	n.obs.Store(obsBox{dht.NopObserver{}})
	if cfg.Workers >= 0 {
		n.pool = newWorkerPool(cfg.Workers, cfg.PoolQueueLen)
	}
	n.peers = newPeerSet(cfg.QueueLen, func() { n.dropped.Add(1) })
	machine := cfg.Machine
	if machine == "" {
		machine = "chord"
	}
	fac, ok := overlay.Lookup(machine)
	if !ok {
		ln.Close()
		return nil, fmt.Errorf("transport: unknown routing machine %q (registered: %s)",
			machine, strings.Join(overlay.Names(), ", "))
	}
	n.ring = fac.New(overlay.Config{
		Space:           cfg.Space,
		SuccListLen:     cfg.SuccListLen,
		StabilizeEvery:  sim.Time(cfg.StabilizeEvery),
		FixFingersEvery: sim.Time(cfg.FixFingersEvery),
	}, n.self, n.clk, n.sendRing)
	// The datagram plane starts last: its receive loop routes through the
	// ring view, so every field above must be published before the first
	// datagram can arrive.
	if cfg.UDP {
		n.udpKinds = make(map[dht.Kind]bool, len(cfg.DatagramKinds))
		for _, k := range cfg.DatagramKinds {
			n.udpKinds[k] = true
		}
		if err := n.startUDP(); err != nil {
			ln.Close()
			return nil, fmt.Errorf("transport: udp on %s: %w", n.self.Addr, err)
		}
	}
	go n.acceptLoop()
	return n, nil
}

// Self returns the node's identity and resolved listen address.
func (n *Node) Self() Ref { return n.self }

// Addr returns the resolved listen address (useful with ":0" listeners).
func (n *Node) Addr() string { return n.self.Addr }

// Do runs fn on the node's event loop and waits for it — the only safe way
// to touch the node's middleware from outside the loop.
func (n *Node) Do(fn func()) { n.clk.Do(fn) }

// Close shuts the node down: listener, maintenance, peers, loop.
func (n *Node) Close() {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	n.ln.Close()
	<-n.accDone
	n.stopUDP()
	if n.pool != nil {
		// Drain the data plane first: in-flight workers may still post to
		// the loop or transmit to peers, both of which are still up.
		n.pool.close()
	}
	n.clk.Do(n.ring.Stop)
	n.peers.close()
	n.clk.Close()
}

// --- dht.Substrate ---

// Clock implements dht.Substrate.
func (n *Node) Clock() clock.Clock { return n.clk }

// Space implements dht.Network.
func (n *Node) Space() dht.Space { return n.space }

// SetApp implements dht.Substrate.
func (n *Node) SetApp(id dht.Key, app dht.App) {
	if id != n.self.ID || app == nil {
		return
	}
	n.app.Store(appBox{app})
}

// SetObserver implements dht.Substrate. With a worker pool the observer is
// wrapped so its callbacks stay serialized (the collector is a plain
// accumulator).
func (n *Node) SetObserver(o dht.Observer) {
	if o == nil {
		n.obs.Store(obsBox{dht.NopObserver{}})
		return
	}
	if n.pool != nil {
		o = &lockedObserver{inner: o}
	}
	n.obs.Store(obsBox{o})
}

// WatchNeighbors implements dht.NeighborWatcher: fn fires on the run loop
// whenever the ring machine publishes a view with a changed predecessor or
// first successor. Loop context required (the middleware installs it from
// AttachNode, which runs under Do).
func (n *Node) WatchNeighbors(id dht.Key, fn func()) {
	if id != n.self.ID {
		return
	}
	n.ring.SetNeighborWatch(fn)
}

// DataPool implements dht.PoolProvider: the executor the application may
// use for its own data-plane work (ingest ticks). Nil when the pool is
// disabled.
func (n *Node) DataPool() dht.Pool {
	if n.pool == nil {
		return nil
	}
	return n.pool
}

// LoopStats reports the run loop's task-queue health.
func (n *Node) LoopStats() clock.LoopStats { return n.clk.LoopStats() }

// PoolStats reports the data-plane pool's counters (zero value when the
// pool is disabled).
func (n *Node) PoolStats() PoolStats {
	if n.pool == nil {
		return PoolStats{}
	}
	return n.pool.stats()
}

// NodeIDs implements dht.Substrate: the identifiers this process hosts.
func (n *Node) NodeIDs() []dht.Key { return []dht.Key{n.self.ID} }

// Alive implements dht.Substrate.
func (n *Node) Alive(id dht.Key) bool { return id == n.self.ID && !n.closed.Load() }

// Dropped implements dht.Substrate: frames lost to full queues, dead
// peers, missing neighbors or hop-limit violations.
func (n *Node) Dropped() int64 { return n.dropped.Load() }

// Send implements dht.Network: route msg toward the node covering key.
// Loop context required.
func (n *Node) Send(from dht.Key, key dht.Key, msg *dht.Message) {
	msg.Src = from
	msg.Key = n.space.Wrap(key)
	msg.Hops = 0
	msg.SentAt = n.clk.Now()
	n.route(msg)
}

// Forward implements dht.Network: continue routing an in-flight message,
// preserving hop count and origin. Loop context required.
func (n *Node) Forward(from dht.Key, key dht.Key, msg *dht.Message) {
	msg.Key = n.space.Wrap(key)
	n.route(msg)
}

// route executes one routing step at this node: deliver locally when the
// key is covered, otherwise transmit to the best next hop. Loop context.
func (n *Node) route(msg *dht.Message) { n.routeFrom(msg, true) }

// routeFrom is route parameterized by caller context: onLoop is true on
// the run loop (application sends), false on a pool worker (inbound
// frames). Routing decisions read the ring's published View in both cases,
// so loop and workers route identically; only local delivery differs.
func (n *Node) routeFrom(msg *dht.Message, onLoop bool) {
	if n.covers(msg.Key) {
		n.deliver(msg, onLoop)
		return
	}
	if msg.Hops >= n.cfg.MaxHops {
		n.dropped.Add(1)
		return
	}
	next, ok := n.nextHop(msg.Key)
	if !ok || next.ID == n.self.ID {
		n.dropped.Add(1)
		return
	}
	n.transmitApp(next, msg, frameRouted)
}

// deliver hands msg to the local application. On the loop it calls Deliver
// inline, exactly as before the pool existed. On a worker it first offers
// the message to the app's concurrent path (dht.ConcurrentApp); messages
// the app wants serialized fall back to a loop post.
func (n *Node) deliver(msg *dht.Message, onLoop bool) {
	n.observer().OnDeliver(n.self.ID, msg)
	app := n.loadApp()
	if onLoop {
		app.Deliver(n.self.ID, msg)
		return
	}
	if ca, ok := app.(dht.ConcurrentApp); ok && ca.DeliverData(n.self.ID, msg) {
		return
	}
	if !n.clk.Post(func() { app.Deliver(n.self.ID, msg) }) {
		n.dropped.Add(1)
	}
}

// SendToSuccessor implements dht.Network: one hop clockwise. Loop context.
func (n *Node) SendToSuccessor(from dht.Key, msg *dht.Message) {
	succ, ok := n.successor()
	if !ok || succ.ID == n.self.ID {
		n.dropped.Add(1)
		return
	}
	n.transmitApp(succ, msg, frameDirect)
}

// SendToPredecessor implements dht.Network: one hop counter-clockwise.
func (n *Node) SendToPredecessor(from dht.Key, msg *dht.Message) {
	pred, ok := n.ring.View().Predecessor()
	if !ok || pred.ID == n.self.ID {
		n.dropped.Add(1)
		return
	}
	n.transmitApp(pred, msg, frameDirect)
}

// Covers implements dht.Network. Only answerable for the hosted node.
func (n *Node) Covers(id dht.Key, key dht.Key) bool {
	return id == n.self.ID && n.covers(n.space.Wrap(key))
}

// Successors implements dht.Neighbors: up to count successors of the
// hosted node from the ring's published View, nearest first, stopping at
// the first self-reference (small rings wrap). Lock-free; safe from pool
// workers.
func (n *Node) Successors(id dht.Key, count int) []dht.Key {
	if id != n.self.ID || count <= 0 {
		return nil
	}
	out := make([]dht.Key, 0, count)
	for _, ref := range n.ring.View().SuccRefs() {
		if ref.ID == n.self.ID {
			break
		}
		out = append(out, ref.ID)
		if len(out) == count {
			break
		}
	}
	return out
}

// RoutingEntries implements dht.Neighbors. A live node offers no routing
// entries to the range walk, so its tree mode walks the successor chain:
// the sequential walk.
func (n *Node) RoutingEntries(id dht.Key, dst []dht.Key) []dht.Key { return dst }

// SplitHeads implements dht.Neighbors: a live node never splits an arc.
func (n *Node) SplitHeads(id, lo, hi dht.Key) []dht.Key { return nil }

var _ dht.Neighbors = (*Node)(nil)

// SendToNode implements dht.Neighbors: one direct traversal to a ring
// neighbor known from the successor list. If the view shifted and the
// target is no longer listed, the message is routed toward the target's
// own identifier instead — one extra hop beats a drop for the replica-
// aware query handoff this serves.
func (n *Node) SendToNode(from, to dht.Key, msg *dht.Message) {
	if to == n.self.ID {
		n.dropped.Add(1)
		return
	}
	for _, ref := range n.ring.View().SuccRefs() {
		if ref.ID == to {
			n.transmitApp(ref, msg, frameDirect)
			return
		}
	}
	msg.Key = n.space.Wrap(to)
	n.routeFrom(msg, false)
}

// covers reports whether this node is the successor node of key: key in
// (pred, self]. With no predecessor yet the node conservatively covers
// only its own identifier, exactly like the simulated Chord node. All
// routing reads go through the machine's published View — lock-free, safe
// from pool workers, and on the loop always exactly the machine's current
// state (the machine republishes synchronously after every mutation).
func (n *Node) covers(key dht.Key) bool { return n.ring.View().Covers(key) }

// successor returns the head of the successor list.
func (n *Node) successor() (Ref, bool) { return n.ring.View().Successor() }

// nextHop picks the forwarding target for key: the successor when key lies
// in (self, succ], otherwise the closest preceding node known from fingers
// and the successor list.
func (n *Node) nextHop(key dht.Key) (Ref, bool) { return n.ring.View().NextHop(key) }

// transmitApp encodes msg straight into a pooled frame buffer and hands it
// to the peer writer, which recycles the buffer once the bytes are on the
// socket — the steady-state encode path performs no allocations. The hop
// counter is incremented before encoding so it travels with the frame,
// mirroring the simulator's transmit; the observer is charged the wire
// body length (envelope + payload), exactly what Sizeof charges the
// simulator for the same payload.
func (n *Node) transmitApp(to Ref, msg *dht.Message, typ byte) {
	msg.Hops++
	f := newFrame(typ)
	body, err := wire.AppendMarshal(f.b, msg)
	if err != nil {
		f.recycle()
		n.dropped.Add(1)
		return
	}
	f.b = body
	f.finish()
	msg.Bytes = len(f.b) - frameOverhead
	n.observer().OnTransmit(n.self.ID, to.ID, msg)
	if n.datagramEligible(msg.Kind) && n.sendDatagram(to, f) {
		return
	}
	n.peers.send(to.Addr, f)
}

// WriteStats reports cumulative data-plane writer activity: frames fully
// written to sockets and the vectored write calls (writev batches) that
// carried them. frames/flushes is the write-coalescing factor.
func (n *Node) WriteStats() (frames, flushes int64) {
	return n.peers.stats.frames.Load(), n.peers.stats.flushes.Load()
}

// ArenaStats reports the decode arenas' cumulative carve/refill and
// string-intern counters, aggregated over all reader loops.
func (n *Node) ArenaStats() wire.ArenaStatsSnapshot { return n.arenaStats.Load() }

// --- inbound ---

func (n *Node) acceptLoop() {
	defer close(n.accDone)
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go n.readLoop(conn)
	}
}

// readLoop decodes frames off one inbound connection and posts their
// handling to the event loop. Decoding happens off-loop (it builds fresh
// objects, no shared state); all interpretation happens on-loop. The
// reader reuses one buffered reader and one body buffer for the whole
// connection — decoders copy what they keep, so the buffer is free again
// by the next frame. Data-plane decodes carve their objects out of a
// per-connection arena (wire.UnmarshalArena): bump-pointer copies into
// chunked storage instead of per-frame heap objects, retiring the
// per-frame body-copy allocations while keeping the no-aliasing contract.
func (n *Node) readLoop(conn net.Conn) {
	defer conn.Close()
	fr := newFrameReader(conn)
	ar := wire.NewArena(&n.arenaStats)
	for {
		typ, body, err := fr.next()
		if err != nil {
			return
		}
		switch typ {
		case frameRouted, frameDirect:
			msg, err := wire.UnmarshalArena(body, ar)
			if err != nil {
				n.dropped.Add(1)
				continue
			}
			direct := typ == frameDirect
			if n.pool != nil {
				// Data plane: fan the frame out to a worker. Submit blocks
				// when the pool is saturated, which parks this reader — TCP
				// backpressure toward the sender, never a silent drop.
				if !n.pool.Submit(func() { n.onDataFrame(msg, direct) }) {
					n.dropped.Add(1)
				}
				continue
			}
			if !n.clk.Post(func() { n.onAppFrame(msg, direct) }) {
				n.dropped.Add(1)
			}
		case frameControl:
			msg, err := wire.Unmarshal(body)
			if err != nil || msg.Kind != overlay.KindRing {
				n.dropped.Add(1)
				continue
			}
			payload := msg.Payload
			if !n.clk.Post(func() { n.ring.Handle(payload) }) {
				n.dropped.Add(1)
			}
		default:
			// Unknown frame type: skip (forward compatibility).
		}
	}
}

// onAppFrame continues routing (routed frames) or delivers to the local
// application (direct neighbor frames). Runs on the loop (pool disabled).
func (n *Node) onAppFrame(msg *dht.Message, direct bool) {
	if direct {
		n.deliver(msg, true)
		return
	}
	n.routeFrom(msg, true)
}

// onDataFrame is onAppFrame's pool-worker twin: same routing step, but
// local delivery goes through the app's concurrent path (or a loop post
// for message kinds the app keeps serialized).
func (n *Node) onDataFrame(msg *dht.Message, direct bool) {
	if direct {
		n.deliver(msg, false)
		return
	}
	n.routeFrom(msg, false)
}

// RingInfo is a snapshot of the node's ring pointers, for diagnostics and
// convergence checks.
type RingInfo struct {
	Self     Ref
	Pred     *Ref
	SuccList []Ref
	Fingers  int // populated finger entries
}

// Ring returns a consistent snapshot of the ring state.
func (n *Node) Ring() RingInfo {
	var info RingInfo
	n.clk.Do(func() {
		info.Self = n.self
		if p, ok := n.ring.Predecessor(); ok {
			info.Pred = &p
		}
		info.SuccList = n.ring.SuccessorList()
		info.Fingers = n.ring.LonglinkCount()
	})
	return info
}
