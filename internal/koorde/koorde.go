// Package koorde implements the Koorde machine (Kaashoek & Karger,
// IPTPS 2003): a de Bruijn DHT embedded in the Chord identifier circle,
// behind the substrate-neutral overlay.Machine contract and driven
// unchanged by the discrete-event simulator and the live TCP transport.
//
// The ring itself — join, successor list, stabilize/notify, miss-based
// failure detection, predecessor pings, pending lookups, the published
// view — is the backbone both machines embed (overlay.Ring), speaking the
// shared ring messages (tags 17-22). Koorde supplies only its long-
// distance routing state and what maintains it. Where Chord keeps m
// fingers (successor(self+2^i)) and takes ~½·log2(N) hops per lookup,
// Koorde keeps a constant-degree window of pointers around k·self
// (k = 2^digitBits) — node self's image under the degree-k de Bruijn
// graph — and routes by digit injection: each hop shifts digitBits bits
// of the target key into an imaginary de Bruijn address hosted on the
// current arc, taking ~log_k(N) + O(1) hops. At the paper's 500-node
// scale with k = 16 that is ~3 hops against Chord's ~5, with 18 pointers
// per node against Chord's 32 fingers.
//
// Lookups (KFindReq, tag 32) carry the de Bruijn walk state in the
// message, as in the paper: the imaginary node I being forwarded toward
// and the number of key digits still to inject. The node hosting I
// injects the next digit (I ← k·I + digit); whenever a hop's own arc
// offers a strictly shorter alignment it re-anchors the walk, which both
// starts fresh lookups and heals stale state, and makes the digit count
// monotonically decreasing — the walk provably terminates, with a TTL as
// backstop. The stateless data-plane NextHop (the backbone's greedy
// closest-preceding step over chain and successors) is used for
// application traffic, where no walk state travels; stateless per-hop
// recomputation of the de Bruijn alignment can cycle after an undershoot
// hop, so it is reserved for the stateful lookup path and DigitHop.
//
// The chain is repaired by a probe of its head piggybacked on each
// stabilize round (KStabReq/KStabResp with Chain set, tags 34/35), with
// a full rebuild through a lookup of k·self and KDListReq/KDListResp
// (tags 39/40) as the fallback.
//
// All methods must be called from the substrate's single event-loop
// context (the engine goroutine in simulation, the clock.Wall loop live);
// the machine does no locking of its own.
package koorde

import (
	"sort"

	"streamdex/internal/clock"
	"streamdex/internal/dht"
	"streamdex/internal/overlay"
)

// MachineName is the registry key of the Koorde machine.
const MachineName = "koorde"

// digitBits is the number of key bits consumed per de Bruijn hop; the
// graph degree is 2^digitBits. 4 bits (degree 16) is the constant-degree
// sweet spot the Koorde paper suggests for O(log n / log log n) hops.
const digitBits = 4

// Degree is the de Bruijn graph degree k = 2^digitBits.
const Degree = 1 << digitBits

// pointerWindow is how many nodes the warm-start de Bruijn chain holds:
// pred(k·self) plus the clockwise successors covering the image arc
// (k·self, k·succ] — about Degree nodes on a balanced ring — with one
// spare.
const pointerWindow = Degree + 2

func init() {
	overlay.Register(overlay.Factory{
		Name: MachineName,
		New: func(cfg overlay.Config, self Ref, clk clock.Clock, send func(to Ref, msg any)) overlay.Machine {
			return New(cfg, self, clk, send)
		},
		Longlinks: Longlinks,
	})
}

// Longlinks computes the perfect de Bruijn pointer chain for a warm
// start: the node preceding k·self, then the next pointerWindow-1 nodes
// clockwise — together they host the whole image arc of (self, succ]
// under digit injection, so every aligned hop finds its target in the
// chain.
func Longlinks(cfg overlay.Config, ring []dht.Key, self dht.Key) []Ref {
	n := len(ring)
	if n == 0 {
		return nil
	}
	target := cfg.Space.Wrap(self << digitBits)
	pos := sort.Search(n, func(i int) bool { return ring[i] >= target })
	if pos == n {
		pos = 0
	}
	out := make([]Ref, 0, pointerWindow)
	for k := 0; k < n && len(out) < pointerWindow; k++ {
		id := ring[((pos-1+k)%n+n)%n] // start at pred(k·self)
		if id == self {
			continue
		}
		// The window is at most pointerWindow entries: a linear scan
		// dedups without the per-call map the rebuild path used to pay.
		dup := false
		for _, have := range out {
			if have.ID == id {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		out = append(out, Ref{ID: id})
	}
	return out
}

// Machine is one node's Koorde control-plane state machine: the ring
// backbone plus the de Bruijn chain and its repair.
type Machine struct {
	*overlay.Ring

	cfg   overlay.Config
	space dht.Space
	self  Ref
	send  func(to Ref, msg any)

	// debruijn is the pointer chain around k·self, kept in clockwise order
	// from pred(k·self).
	debruijn []Ref

	// Piggybacked chain-repair state. The chain head (debruijn[0], the
	// believed pred(k·self) host) is probed on the stabilize round with a
	// KStabReq; misses rotate it out like a dead successor, and chainDirty
	// requests the full KDListReq rebuild fallback.
	anchorSeen    bool
	anchorProbing bool
	anchorMisses  int
	chainDirty    bool
	// chainScratch is the spare chain buffer: every rebuild or patch
	// writes into it and swaps it with debruijn, so steady-state repair
	// stays off the allocator.
	chainScratch []Ref
	// winScratch holds the responder's clockwise window while the patch
	// path brackets the image inside it.
	winScratch []Ref
}

// New builds a machine for self. send is invoked synchronously (from
// Handle and from timer callbacks) for every outgoing control message; the
// substrate adapter owns delivery.
func New(cfg overlay.Config, self Ref, clk clock.Clock, send func(to Ref, msg any)) *Machine {
	m := &Machine{send: send}
	m.Ring = overlay.NewRing(MachineName, cfg, self, clk, send, overlay.RingHooks{
		FindReq:          m.findReq,
		Handle:           m.handle,
		Longlinks:        func() []Ref { return m.debruijn },
		InstallLonglinks: func(l []Ref) { m.debruijn = append(m.debruijn[:0], l...) },
		Repair:           m.fixPointers,
		Probe:            m.chainProbe,
	})
	m.cfg, m.self = m.Config(), m.Self()
	m.space = m.cfg.Space
	return m
}

func (m *Machine) findReq(tok uint64, target dht.Key) any {
	return KFindReq{
		From: m.self, Token: tok, Target: target, TTL: m.cfg.FindTTL,
		ReplyTo: m.self, Shift: ShiftNone,
	}
}

// handle consumes the Koorde-only messages: lookups and chain repair.
// A KStabReq or KStabResp without Chain set is never sent (the successor
// stabilize is the backbone's StabReq) and is ignored.
func (m *Machine) handle(msg any) {
	switch c := msg.(type) {
	case KFindReq:
		m.handleFindReq(c)
	case KStabReq:
		if c.Chain {
			m.answerChainProbe(c)
		}
	case KStabResp:
		if c.Chain {
			m.handleChainResp(c)
		}
	case KDListReq:
		m.handleDListReq(c)
	case KDListResp:
		m.handleDListResp(c)
	}
}

// handleFindReq answers a successor lookup when the target falls on this
// node's arc, otherwise advances the stateful de Bruijn walk one hop.
func (m *Machine) handleFindReq(c KFindReq) {
	succ, forward := m.ServeFind(c.Token, c.Target, c.TTL, c.ReplyTo)
	if !forward {
		return
	}
	next, img, shift, ok := m.advance(c.Target, c.I, c.Shift, succ)
	if !ok {
		m.Counters().FindDrops++
		return
	}
	c.I, c.Shift = img, shift
	c.TTL--
	c.From = m.self
	m.send(next, c)
}

// advance is one hop of the de Bruijn walk toward target from a node
// whose arc (self, succ] does not hold it: inject digits while the
// imaginary address img sits on our arc, re-anchor when our own arc
// aligns in strictly fewer digits than the carried walk still needs
// (ShiftNone compares greater than any real digit count), then pick the
// node to forward to — toward the imaginary node, or toward the target
// once every digit is spent.
func (m *Machine) advance(target, img dht.Key, shift uint8, succ Ref) (Ref, dht.Key, uint8, bool) {
	// Bounded by shift ≤ maxT; usually at most one digit per hop.
	for shift != ShiftNone && shift > 0 && m.space.BetweenIncl(img, m.self.ID, succ.ID) {
		digit := (target >> (digitBits * uint(shift-1))) & (Degree - 1)
		img = m.space.Wrap(img<<digitBits | digit)
		shift--
	}
	if i1, left, ok := debruijnStep(m.space, m.self.ID, succ.ID, target); ok && left < shift {
		img, shift = i1, left
	}
	goal := target
	if shift != ShiftNone && shift > 0 {
		goal = img
	}
	next, ok := m.hopToward(goal, target, succ)
	if !ok || next.ID == m.self.ID {
		return Ref{}, 0, 0, false
	}
	return next, img, shift, true
}

// hopToward picks the forwarding node for a walk headed at goal (an
// imaginary de Bruijn address or, once exhausted, the target): the
// closest known live node strictly before goal, then the greedy
// closest-preceding step toward the final target, then the successor.
func (m *Machine) hopToward(goal, target dht.Key, succ Ref) (Ref, bool) {
	if hop, ok := m.closestTo(goal); ok {
		return hop, true
	}
	if hop, ok := m.ClosestPreceding(target); ok {
		return hop, true
	}
	return succ, succ.ID != m.self.ID
}

// neighborhood is this node's predecessor and a copy of its successor
// list, the window a chain probe or KDListReq asks for.
func (m *Machine) neighborhood() (hasPred bool, pred Ref, succs []Ref) {
	pred, hasPred = m.Predecessor()
	return hasPred, pred, m.SuccessorList()
}

// answerChainProbe reports our neighborhood to the node whose image we
// are believed to host. The prober is usually far away, so unlike a
// StabReq it never becomes a predecessor candidate.
func (m *Machine) answerChainProbe(c KStabReq) {
	resp := KStabResp{From: m.self, Chain: true, Image: c.Image}
	resp.HasPred, resp.Pred, resp.SuccList = m.neighborhood()
	m.send(c.From, resp)
}

// handleChainResp patches the de Bruijn chain from the anchor's
// neighborhood, piggybacked on the stabilize round. The responder's
// window — predecessor, itself, successor list — is clockwise; the link
// of that window whose arc holds the image is the true chain head, and
// the window from there on is the fresh chain. When the image escaped
// the window entirely the ring moved too far for incremental patching
// and the full KDListReq rebuild takes over.
func (m *Machine) handleChainResp(c KStabResp) {
	if c.Image != m.space.Wrap(m.self.ID<<digitBits) {
		return // stale probe for an image we no longer chase
	}
	m.anchorSeen = true
	m.anchorMisses = 0
	win := m.winScratch[:0]
	if c.HasPred {
		win = append(win, c.Pred)
	}
	win = append(win, c.From)
	win = append(win, c.SuccList...)
	m.winScratch = win
	start := -1
	for i := 0; i+1 < len(win); i++ {
		if m.space.BetweenIncl(c.Image, win[i].ID, win[i+1].ID) {
			start = i
			break
		}
	}
	if start < 0 {
		// Divergence: the believed anchor no longer borders the image.
		m.chainDirty = true
		m.fixPointers()
		return
	}
	chain := m.chainScratch[:0]
	for _, r := range win[start:] {
		if r.ID == m.self.ID || len(chain) == pointerWindow {
			continue
		}
		dup := false
		for _, have := range chain {
			if have.ID == r.ID {
				dup = true
				break
			}
		}
		if !dup {
			chain = append(chain, r)
		}
	}
	if len(chain) == 0 {
		m.chainDirty = true
		m.fixPointers()
		return
	}
	if !refsEqual(m.debruijn, chain) {
		m.Counters().FingerRepairs++
	}
	m.debruijn, m.chainScratch = chain, m.debruijn[:0]
}

// chainProbe piggybacks pointer repair on the stabilize round: account
// the previous probe, rotate out a dead anchor after MissThreshold
// silent rounds, then ask the current chain head for its neighborhood.
func (m *Machine) chainProbe() {
	if len(m.debruijn) == 0 {
		m.chainDirty = true
		m.anchorProbing = false
		return
	}
	if m.anchorProbing && !m.anchorSeen {
		m.anchorMisses++
		if m.anchorMisses >= m.cfg.MissThreshold {
			m.anchorMisses = 0
			m.debruijn = m.debruijn[1:]
			if len(m.debruijn) == 0 {
				m.chainDirty = true
				m.anchorProbing = false
				return
			}
		}
	}
	m.anchorSeen = false
	m.anchorProbing = true
	m.send(m.debruijn[0], KStabReq{
		From: m.self, Chain: true, Image: m.space.Wrap(m.self.ID << digitBits),
	})
}

// handleDListReq reports our neighborhood to a node rebuilding its
// de Bruijn pointer chain (we host its k·self).
func (m *Machine) handleDListReq(c KDListReq) {
	resp := KDListResp{From: m.self}
	resp.HasPred, resp.Pred, resp.SuccList = m.neighborhood()
	m.send(c.From, resp)
}

// handleDListResp rebuilds the pointer chain from the k·self host's
// neighborhood: its predecessor (the true pred(k·self)), itself, then its
// successor list — clockwise coverage of the image arc.
func (m *Machine) handleDListResp(c KDListResp) {
	chain := m.chainScratch[:0]
	add := func(r Ref) {
		if r.ID == m.self.ID || len(chain) == pointerWindow {
			return
		}
		for _, have := range chain {
			if have.ID == r.ID {
				return
			}
		}
		chain = append(chain, r)
	}
	if c.HasPred {
		add(c.Pred)
	}
	add(c.From)
	for _, r := range c.SuccList {
		add(r)
	}
	if !refsEqual(m.debruijn, chain) {
		m.Counters().FingerRepairs++
	}
	m.debruijn, m.chainScratch = chain, m.debruijn[:0]
	m.anchorMisses = 0
	m.anchorProbing = false
}

func refsEqual(a, b []Ref) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// fixPointers is the chain-repair fallback: resolve the node hosting
// k·self with a full lookup, then ask it for its neighborhood
// (KDListReq). In steady state the piggybacked probe on the stabilize
// round keeps the chain fresh and this is a no-op; the full rebuild
// runs only while the chain is empty (fresh join, every pointer rotated
// out dead) or flagged dirty (the image escaped the anchor's window).
func (m *Machine) fixPointers() {
	if !m.Joined() {
		return
	}
	succ, _ := m.Successor()
	if succ.ID == m.self.ID {
		// Alone: the image arc is ours too; no pointers needed.
		m.debruijn = m.debruijn[:0]
		return
	}
	if len(m.debruijn) > 0 && !m.chainDirty {
		return
	}
	m.chainDirty = false
	m.Lookup(m.space.Wrap(m.self.ID<<digitBits), func(host Ref) {
		if host.ID == m.self.ID {
			// We host k·self ourselves: the chain starts at our own
			// neighborhood.
			resp := KDListResp{From: m.self}
			resp.HasPred, resp.Pred, resp.SuccList = m.neighborhood()
			m.handleDListResp(resp)
			return
		}
		m.send(host, KDListReq{From: m.self})
	})
}

// splitLeafNodes is the sub-arc size (in estimated covered nodes) the
// multicast arc split aims for: small enough that the sub-arc fits the
// delegating predecessor's successor list, so each routed leg finishes
// in a single fan-out level.
const splitLeafNodes = 4

// SplitHeads implements overlay.ArcSplitter: partition [lo, hi] into up
// to Degree sub-arcs of about splitLeafNodes covered nodes each. The de
// Bruijn chain is one contiguous window near k·self, so unlike Chord
// fingers it cannot subdivide a distant arc; routing an independent leg
// toward each sub-arc head keeps the dissemination depth logarithmic
// where plain kid delegation degrades to a successor-list pipeline. The
// node count is estimated from the successor-list density — the only
// membership information a Koorde node holds.
func (m *Machine) SplitHeads(lo, hi dht.Key) []dht.Key {
	succs := m.SuccRefs()
	last := len(succs) - 1
	if last < 0 || succs[last].ID == m.self.ID {
		return nil
	}
	span := m.space.Distance(m.self.ID, succs[last].ID)
	gap := span / uint64(last+1)
	if gap == 0 {
		return nil
	}
	estN := m.space.Distance(lo, hi) / gap
	if estN <= uint64(2*m.cfg.SuccListLen) {
		// Shallow enough already: the kid delegation covers the arc in
		// one or two successor-list levels.
		return nil
	}
	s := (estN + splitLeafNodes - 1) / splitLeafNodes
	if s > Degree {
		s = Degree
	}
	if s < 2 {
		return nil
	}
	step := m.space.Distance(lo, hi) / s
	if step == 0 {
		return nil
	}
	heads := make([]dht.Key, 0, s)
	for j := uint64(0); j < s; j++ {
		heads = append(heads, m.space.Add(lo, step*j))
	}
	return heads
}

// DigitHop implements overlay.DigitRouter: one hop of the stateful
// de Bruijn walk for a routed data-plane leg, mirroring the KFindReq
// walk — inject digits while the imaginary address img sits on our arc,
// re-anchor when our own arc aligns in strictly fewer digits, then
// forward toward the imaginary node (or the target once every digit is
// spent). The walk state travels in the message (dht.Message.SplitImg /
// SplitShift), never in the machine.
func (m *Machine) DigitHop(target, img dht.Key, shift uint8) (Ref, dht.Key, uint8, bool) {
	succ, ok := m.LiveSuccessor()
	if !ok || succ.ID == m.self.ID {
		return Ref{}, 0, 0, false
	}
	if m.space.BetweenIncl(target, m.self.ID, succ.ID) {
		return succ, img, shift, true
	}
	return m.advance(target, img, shift, succ)
}

// closestTo returns the best known live node in (self, i1) — the real
// node hosting (or most closely trailing) the imaginary address i1. The
// interval is open on both ends: the host of an imaginary address is its
// ring predecessor (i1 lies in (host, succ(host)]), so a real node
// sitting exactly at i1 is one step too far. Used only by the stateful
// lookup walk (hopToward).
func (m *Machine) closestTo(i1 dht.Key) (Ref, bool) {
	best := Ref{}
	bestDist := uint64(0)
	found := false
	consider := func(c Ref) {
		if !m.Alive(c.ID) {
			return
		}
		if !m.space.Between(c.ID, m.self.ID, i1) {
			return
		}
		d := m.space.Distance(m.self.ID, c.ID)
		if !found || d > bestDist {
			best, bestDist, found = c, d, true
		}
	}
	for _, d := range m.debruijn {
		consider(d)
	}
	for _, s := range m.SuccRefs() {
		consider(s)
	}
	return best, found
}

// debruijnStep anchors a de Bruijn walk on this node's arc: find the
// smallest t ≥ 1 such that some imaginary address i0 in (self, succ]
// agrees with the top b−digitBits·t bits of key (i0 ≡ key >> digitBits·t
// modulo 2^(b−digitBits·t)), inject the next digit of key, and return
// i1 = i0·2^digitBits + digit — the imaginary node the walk forwards
// toward — together with the number of key digits still left to inject
// after i1 (t−1). At t = 1, i1 is the key itself. Returns false only when
// the node has no arc (succ == self).
func debruijnStep(space dht.Space, self, succ, key dht.Key) (dht.Key, uint8, bool) {
	if succ == self {
		return 0, 0, false
	}
	b := uint(space.M)
	maxT := (b + digitBits - 1) / digitBits
	for t := uint(1); t <= maxT; t++ {
		shift := digitBits * t
		var i0 dht.Key
		if shift >= b {
			// No alignment constraint left: the first address of our arc.
			i0 = space.Add(self, 1)
		} else {
			low := b - shift
			mod := dht.Key(1) << low
			base := (key >> shift) & (mod - 1)
			// The first address > self in the right residue class.
			x := self&^(mod-1) | base
			if x <= self {
				x += mod
			}
			i0 = space.Wrap(x)
			if !space.BetweenIncl(i0, self, succ) {
				continue
			}
		}
		digit := (key >> (digitBits * (t - 1))) & (Degree - 1)
		return space.Wrap(i0<<digitBits | digit), uint8(t - 1), true
	}
	return 0, 0, false
}

// Compile-time contract checks.
var (
	_ overlay.Machine     = (*Machine)(nil)
	_ overlay.ArcSplitter = (*Machine)(nil)
	_ overlay.DigitRouter = (*Machine)(nil)
)

// The walk sentinel carried in split messages must agree with the lookup
// walk's: a non-zero array length here breaks the build if they drift.
var _ [1]struct{} = [1 + int(ShiftNone) - int(dht.SplitShiftNone)]struct{}{}
