package overlay

import (
	"sync/atomic"

	"streamdex/internal/clock"
	"streamdex/internal/dht"
	"streamdex/internal/metrics"
	"streamdex/internal/sim"
)

// Ring is the successor-ring backbone every routing machine embeds: join
// with token-superseding retry, the stabilize/notify round with miss-based
// failure detection (MissThreshold consecutive unanswered rounds rotate
// the successor list or clear the predecessor), predecessor pings, the
// pending-lookup table, the warm-start and graceful-leave splices, the
// routing accessors and the published View. It speaks the shared ring
// messages (FindResp, StabReq, StabResp, Notify, PingReq, PingResp);
// everything else — the machine's lookup request and its long-link
// traffic — goes to the machine through RingHooks.
//
// Failure detection is deadline-free and message-driven on every
// substrate. The optional alive filter (SetAliveFilter) is consulted only
// when picking routing candidates, never by maintenance, so filtered and
// unfiltered rings converge through the same exchanges.
//
// All methods must be called from the substrate's single event-loop
// context except View, which any goroutine may call.
type Ring struct {
	cfg   Config
	self  Ref
	clk   clock.Clock
	send  func(to Ref, msg any)
	hooks RingHooks

	// alive is the optional routing-time liveness filter; nil trusts the
	// message-learned state (the live transport's situation).
	alive func(dht.Key) bool

	pred     *Ref
	succList []Ref

	// Miss accounting.
	stabSeen   bool
	stabMisses int
	predSeen   bool
	predMisses int

	// Outstanding lookups.
	nextToken uint64
	pendFind  map[uint64]*pendingFind

	join *joinState

	tickers  []clock.Ticker
	phaseSet bool
	stabPh   sim.Time
	repairPh sim.Time

	stopped bool

	stats metrics.Ring

	// view is the last published routing snapshot; readers on other
	// goroutines load it wait-free.
	view atomic.Pointer[RingView]

	// neighborWatch fires in loop context after a publication that moved
	// the predecessor or first successor.
	neighborWatch func()
}

// RingHooks is what a machine supplies to its backbone: its long links,
// its lookup request, and the steps of maintenance that differ per
// machine. Required hooks are FindReq, Handle, Longlinks,
// InstallLonglinks and Repair; Adopted and Probe may be nil.
type RingHooks struct {
	// FindReq builds the machine's lookup request for target, issued by
	// this node under token tok with the full TTL.
	FindReq func(tok uint64, target dht.Key) any
	// Handle consumes every message the backbone does not speak: the
	// lookup request FindReq builds and the machine's long-link traffic.
	Handle func(msg any)
	// Longlinks returns the machine's long-distance links in the order
	// EachRoutingEntry yields them (the machine's own slice, not a copy).
	Longlinks func() []Ref
	// InstallLonglinks replaces the long links wholesale (warm start).
	InstallLonglinks func([]Ref)
	// Repair runs one long-link repair step; the backbone calls it from
	// the repair ticker and from Tick.
	Repair func()
	// Adopted runs after a stabilize answer rebuilt the successor list
	// around succ, before the notify is sent.
	Adopted func(succ Ref)
	// Probe runs at the end of every stabilize round that probed the
	// successor.
	Probe func()
}

// pendingFind tracks an outstanding successor lookup.
type pendingFind struct {
	onResp func(Ref)
	timer  clock.Timer
}

// joinState tracks an in-flight join attempt.
type joinState struct {
	bootstrap Ref
	token     uint64
	retry     clock.Ticker
	onJoined  func(Ref)
}

// NewRing builds the backbone of the machine registered as name. send is
// invoked synchronously (from Handle and timer callbacks) for every
// outgoing control message; the substrate adapter owns delivery. Zero
// config fields take their defaults: SuccListLen 8, MissThreshold 3,
// FindTTL 64, JoinRetryEvery = StabilizeEvery (500 ms without
// maintenance).
func NewRing(name string, cfg Config, self Ref, clk clock.Clock, send func(to Ref, msg any), hooks RingHooks) *Ring {
	if cfg.Space.M == 0 {
		panic(name + ": config without identifier space")
	}
	if clk == nil || send == nil {
		panic(name + ": machine without clock or send hook")
	}
	if cfg.SuccListLen <= 0 {
		cfg.SuccListLen = 8
	}
	if cfg.MissThreshold <= 0 {
		cfg.MissThreshold = 3
	}
	if cfg.FindTTL <= 0 {
		cfg.FindTTL = 64
	}
	if cfg.JoinRetryEvery <= 0 {
		if cfg.StabilizeEvery > 0 {
			cfg.JoinRetryEvery = cfg.StabilizeEvery
		} else {
			cfg.JoinRetryEvery = 500 * sim.Millisecond
		}
	}
	r := &Ring{
		stats:    metrics.Ring{Machine: name},
		cfg:      cfg,
		self:     Ref{ID: cfg.Space.Wrap(self.ID), Addr: self.Addr},
		clk:      clk,
		send:     send,
		hooks:    hooks,
		pendFind: make(map[uint64]*pendingFind),
	}
	r.publishView()
	return r
}

// Name returns the registered machine name.
func (r *Ring) Name() string { return r.stats.Machine }

// Config returns the configuration with defaults applied.
func (r *Ring) Config() Config { return r.cfg }

// SetAliveFilter installs the routing-time liveness filter (nil clears
// it).
func (r *Ring) SetAliveFilter(alive func(dht.Key) bool) { r.alive = alive }

// Alive reports whether id passes the alive filter (always, without one).
func (r *Ring) Alive(id dht.Key) bool { return r.alive == nil || r.alive(id) }

// SetNeighborWatch installs (or clears, with nil) the neighborhood-change
// callback. It fires in loop context every time a published view carries
// a different predecessor or first successor than the previous one,
// including the first publication that establishes them. Callbacks may
// send messages but must not re-enter the machine.
func (r *Ring) SetNeighborWatch(fn func()) { r.neighborWatch = fn }

// SetPhases fixes the initial delay of the stabilize and repair tickers
// (normally the full period), so nodes do not stabilize in lock-step.
// Call before StartMaintenance.
func (r *Ring) SetPhases(stabilize, repair sim.Time) {
	r.phaseSet = true
	r.stabPh, r.repairPh = stabilize, repair
}

// Self returns the node's own ref.
func (r *Ring) Self() Ref { return r.self }

// Joined reports whether the node has ring state (a successor list).
func (r *Ring) Joined() bool { return len(r.succList) > 0 }

// Stats returns a snapshot of the maintenance counters.
func (r *Ring) Stats() metrics.Ring { return r.stats }

// Counters exposes the maintenance counters for the machine to bump.
func (r *Ring) Counters() *metrics.Ring { return &r.stats }

// --- Lifecycle ---

// Create bootstraps a brand-new one-node ring and starts maintenance.
func (r *Ring) Create() {
	if r.stopped {
		return
	}
	p := r.self
	r.pred = &p
	r.succList = []Ref{r.self}
	r.publishView()
	r.StartMaintenance()
}

// Join enters an existing ring through bootstrap: it asks the ring for
// the successor of its own identifier and, once answered, adopts it,
// starts maintenance and calls onJoined (which may be nil). Unanswered
// lookups are retried every JoinRetryEvery; each retry cancels the
// previous lookup token so a late FindResp to a superseded attempt is
// counted stale and discarded rather than installed.
func (r *Ring) Join(bootstrap Ref, onJoined func(Ref)) {
	if r.stopped || r.Joined() || r.join != nil {
		return
	}
	r.join = &joinState{bootstrap: bootstrap, onJoined: onJoined}
	r.sendJoinFind()
	r.join.retry = r.clk.EveryAfter(r.cfg.JoinRetryEvery, r.cfg.JoinRetryEvery, r.retryJoin)
}

// AbandonJoin cancels an in-flight join attempt (caller-side timeout).
func (r *Ring) AbandonJoin() {
	j := r.join
	if j == nil {
		return
	}
	r.join = nil
	if j.retry != nil {
		j.retry.Stop()
	}
	r.CancelFind(j.token)
}

// sendJoinFind issues (or re-issues) the join lookup toward the bootstrap
// node, superseding any previous attempt's token.
func (r *Ring) sendJoinFind() {
	j := r.join
	r.CancelFind(j.token)
	j.token = r.pend(r.completeJoin)
	r.send(j.bootstrap, r.hooks.FindReq(j.token, r.self.ID))
}

func (r *Ring) retryJoin() {
	if r.join == nil {
		return
	}
	if _, pending := r.pendFind[r.join.token]; pending {
		// The previous attempt is still inside its expiry window — its
		// answer may simply be several hops away. Re-issuing now would
		// cancel the token and turn every in-flight answer stale, which on
		// a slow path repeats forever (the retry period racing the lookup
		// round trip). Retry only once the lookup has provably expired.
		return
	}
	r.sendJoinFind()
}

// completeJoin adopts the successor the ring answered with.
func (r *Ring) completeJoin(succ Ref) {
	j := r.join
	if j == nil {
		return
	}
	r.join = nil
	if j.retry != nil {
		j.retry.Stop()
	}
	if succ.ID == r.self.ID {
		succ = r.self
	}
	r.succList = []Ref{succ}
	r.pred = nil
	r.publishView()
	r.StartMaintenance()
	if j.onJoined != nil {
		j.onJoined(succ)
	}
}

// StartMaintenance launches the periodic stabilize and long-link repair
// tasks. Idempotent; a no-op when StabilizeEvery is zero.
func (r *Ring) StartMaintenance() {
	if r.stopped || len(r.tickers) > 0 || r.cfg.StabilizeEvery <= 0 {
		return
	}
	stabPh, repairPh := r.cfg.StabilizeEvery, r.cfg.FixFingersEvery
	if r.phaseSet {
		stabPh, repairPh = r.stabPh, r.repairPh
	}
	r.tickers = append(r.tickers, r.clk.EveryAfter(stabPh, r.cfg.StabilizeEvery, r.stabilizeTick))
	if r.cfg.FixFingersEvery > 0 {
		r.tickers = append(r.tickers, r.clk.EveryAfter(repairPh, r.cfg.FixFingersEvery, r.repair))
	}
}

// Tick runs one stabilize round and one long-link repair synchronously
// (deterministic harnesses without tickers).
func (r *Ring) Tick() {
	if r.stopped {
		return
	}
	r.stabilizeTick()
	r.repair()
}

// Stop halts maintenance and cancels outstanding lookups; the machine
// ignores all further messages. Used for shutdown and crash simulation.
func (r *Ring) Stop() {
	r.stopped = true
	for _, t := range r.tickers {
		t.Stop()
	}
	r.tickers = nil
	for tok, pf := range r.pendFind {
		pf.timer.Cancel()
		delete(r.pendFind, tok)
	}
	if r.join != nil && r.join.retry != nil {
		r.join.retry.Stop()
	}
	r.join = nil
}

// --- Warm-start and splice mutators (simulator construction paths) ---

// InstallRing overwrites the ring state wholesale: predecessor (nil
// clears it), successor list, and — when longlinks is non-nil — the
// machine's long links. The simulator's perfect-ring warm start and the
// parity harnesses use it; the live protocol never does.
func (r *Ring) InstallRing(pred *Ref, succList []Ref, longlinks []Ref) {
	if pred != nil {
		p := *pred
		r.pred = &p
	} else {
		r.pred = nil
	}
	r.succList = append(r.succList[:0], succList...)
	if longlinks != nil {
		r.hooks.InstallLonglinks(longlinks)
	}
	r.publishView()
}

// AdoptPredecessor force-sets the predecessor (graceful-leave splice).
func (r *Ring) AdoptPredecessor(p Ref) {
	q := p
	r.pred = &q
	r.predSeen = true
	r.predMisses = 0
	r.publishView()
}

// ClearPredecessor force-clears the predecessor (graceful-leave splice).
func (r *Ring) ClearPredecessor() {
	r.pred = nil
	r.predMisses = 0
	r.publishView()
}

// AdoptSuccessors force-replaces the successor list (graceful-leave
// splice).
func (r *Ring) AdoptSuccessors(list []Ref) {
	r.succList = append(r.succList[:0], list...)
	r.stabMisses = 0
	r.publishView()
}

// --- Message handling ---

// Handle consumes one decoded control message: the shared ring messages
// here, everything else through the machine's Handle hook. The substrate
// calls it after transport-level delivery (hop delay in simulation,
// socket read live).
func (r *Ring) Handle(msg any) {
	if r.stopped {
		return
	}
	switch c := msg.(type) {
	case FindResp:
		if !r.resolveFind(c.Token, c.Succ) {
			// Expired, superseded by a retry, or duplicated: installing it
			// could put an outdated successor over a fresher answer.
			r.stats.StaleFindResps++
		}
	case StabReq:
		r.handleStabReq(c)
	case StabResp:
		r.handleStabResp(c)
	case Notify:
		r.considerPredecessor(c.From)
	case PingReq:
		r.send(c.From, PingResp{From: r.self})
	case PingResp:
		if r.pred != nil && c.From.ID == r.pred.ID {
			r.predSeen = true
		}
	default:
		r.hooks.Handle(msg)
	}
	// Any handled message may have moved ring state (adopted successor,
	// new predecessor, resolved lookup); republish the snapshot.
	r.publishView()
}

// ServeFind applies the lookup rule every machine shares to a request for
// target with ttl hops of budget: an exhausted request is dropped; when
// target lies in (self, succ] the successor is the answer, resolved
// locally when this node asked or sent to replyTo otherwise; a request
// that would need another hop with no budget left is dropped. Only when
// forward is true must the machine forward the request itself, one hop
// past this node, with succ the live successor.
func (r *Ring) ServeFind(tok uint64, target dht.Key, ttl int, replyTo Ref) (succ Ref, forward bool) {
	if ttl <= 0 {
		r.stats.FindDrops++
		return Ref{}, false
	}
	succ, ok := r.LiveSuccessor()
	if !ok {
		return Ref{}, false // not in a ring yet
	}
	space := r.cfg.Space
	if succ.ID == r.self.ID || space.BetweenIncl(target, r.self.ID, succ.ID) {
		answer := succ
		if succ.ID == r.self.ID {
			answer = r.self
		}
		if replyTo.ID == r.self.ID {
			r.resolveFind(tok, answer)
			return Ref{}, false
		}
		r.send(replyTo, FindResp{From: r.self, Token: tok, Succ: answer})
		return Ref{}, false
	}
	if ttl <= 1 {
		r.stats.FindDrops++
		return Ref{}, false
	}
	return succ, true
}

// handleStabReq reports our predecessor and successor list back to the
// requester — who believes we are its successor, which makes it a
// predecessor candidate even before its explicit notify arrives.
func (r *Ring) handleStabReq(c StabReq) {
	resp := StabResp{From: r.self, SuccList: append([]Ref(nil), r.succList...)}
	if r.pred != nil {
		resp.HasPred, resp.Pred = true, *r.pred
	}
	r.send(c.From, resp)
	r.considerPredecessor(c.From)
}

// handleStabResp applies the successor's view: adopt a closer successor
// when its predecessor sits between us, refresh the successor list, then
// notify.
func (r *Ring) handleStabResp(c StabResp) {
	succ, ok := r.Successor()
	if !ok || c.From.ID != succ.ID {
		return // stale response from a node no longer our successor
	}
	r.stabSeen = true
	if c.HasPred && c.Pred.ID != r.self.ID && r.cfg.Space.Between(c.Pred.ID, r.self.ID, succ.ID) {
		succ = c.Pred
	}
	// Rebuild the list: adopted successor first, then its successor list
	// with ourselves trimmed out.
	list := make([]Ref, 0, r.cfg.SuccListLen)
	list = append(list, succ)
	for _, s := range c.SuccList {
		if s.ID == r.self.ID {
			break
		}
		dup := false
		for _, have := range list {
			if have.ID == s.ID {
				dup = true
				break
			}
		}
		if !dup {
			list = append(list, s)
		}
		if len(list) == r.cfg.SuccListLen {
			break
		}
	}
	r.succList = list
	if r.hooks.Adopted != nil {
		r.hooks.Adopted(succ)
	}
	r.send(succ, Notify{From: r.self})
}

// considerPredecessor applies Chord's notify rule.
func (r *Ring) considerPredecessor(p Ref) {
	if p.ID == r.self.ID {
		return
	}
	if r.pred == nil || r.pred.ID == r.self.ID || r.cfg.Space.Between(p.ID, r.pred.ID, r.self.ID) {
		q := p
		r.pred = &q
		r.predSeen = true
		r.predMisses = 0
	}
}

// --- Periodic maintenance ---

// stabilizeTick runs one maintenance round: account the previous round's
// (non-)responses, then probe the successor and the predecessor.
func (r *Ring) stabilizeTick() {
	// The tick can rotate the successor list or drop the predecessor on any
	// exit path, so republish unconditionally on the way out.
	defer r.publishView()
	r.stats.StabilizeRounds++
	// Successor accounting.
	succ, ok := r.Successor()
	if ok && succ.ID != r.self.ID {
		if r.stabSeen {
			r.stabMisses = 0
		} else {
			r.stabMisses++
			r.stats.StabilizeMisses++
			if r.stabMisses >= r.cfg.MissThreshold {
				// Presume the successor dead: rotate the list.
				r.stabMisses = 0
				r.stats.SuccRotations++
				if len(r.succList) > 1 {
					r.succList = r.succList[1:]
				} else if r.pred != nil && r.pred.ID != r.self.ID {
					r.succList = []Ref{*r.pred}
				} else {
					r.succList = []Ref{r.self}
				}
				succ, _ = r.Successor()
			}
		}
	}
	r.stabSeen = false

	// Predecessor accounting.
	if r.pred != nil && r.pred.ID != r.self.ID {
		if r.predSeen {
			r.predMisses = 0
		} else {
			r.predMisses++
			if r.predMisses >= r.cfg.MissThreshold {
				r.pred = nil
				r.predMisses = 0
				r.stats.PredDrops++
			}
		}
	}
	r.predSeen = false

	if !ok {
		return // not in a ring yet (join still in flight)
	}
	if succ.ID == r.self.ID {
		// Ring bootstrap: while the successor is still ourselves, the
		// first node that notified us becomes our successor — this is how
		// a one-node ring grows, per the Chord paper.
		if r.pred != nil && r.pred.ID != r.self.ID {
			r.succList = []Ref{*r.pred}
			succ = r.succList[0]
		} else {
			return // genuinely alone
		}
	}
	r.send(succ, StabReq{From: r.self})
	if r.pred != nil && r.pred.ID != r.self.ID {
		r.send(*r.pred, PingReq{From: r.self})
	}
	if r.hooks.Probe != nil {
		r.hooks.Probe()
	}
}

// repair runs one long-link repair step. A lookup the machine can answer
// itself resolves inline, mutating the long links before the hook
// returns — republish either way.
func (r *Ring) repair() {
	r.hooks.Repair()
	r.publishView()
}

// --- Lookups ---

// FindSuccessor resolves the successor node of key and calls onResp on
// the substrate's loop context. Unanswered lookups expire silently.
func (r *Ring) FindSuccessor(key dht.Key, onResp func(Ref)) {
	r.Lookup(r.cfg.Space.Wrap(key), onResp)
}

// Lookup is FindSuccessor for an already wrapped key, returning the
// lookup token so the machine can supersede it with CancelFind.
func (r *Ring) Lookup(key dht.Key, onResp func(Ref)) uint64 {
	tok := r.pend(onResp)
	r.hooks.Handle(r.hooks.FindReq(tok, key))
	return tok
}

// pend registers a pending lookup under a fresh token; it expires after
// findExpiry.
func (r *Ring) pend(onResp func(Ref)) uint64 {
	r.nextToken++
	tok := r.nextToken
	pf := &pendingFind{onResp: onResp}
	pf.timer = r.clk.Schedule(r.findExpiry(), func() { delete(r.pendFind, tok) })
	r.pendFind[tok] = pf
	return tok
}

func (r *Ring) resolveFind(tok uint64, succ Ref) bool {
	pf := r.pendFind[tok]
	if pf == nil {
		return false
	}
	delete(r.pendFind, tok)
	pf.timer.Cancel()
	pf.onResp(succ)
	return true
}

// CancelFind forgets an outstanding lookup; a later answer carrying its
// token is then stale by construction.
func (r *Ring) CancelFind(tok uint64) {
	if pf := r.pendFind[tok]; pf != nil {
		delete(r.pendFind, tok)
		pf.timer.Cancel()
	}
}

// findExpiry is how long a pending lookup may stay unanswered.
func (r *Ring) findExpiry() sim.Time {
	p := r.cfg.StabilizeEvery
	if p <= 0 {
		p = r.cfg.JoinRetryEvery
	}
	return p * sim.Time(r.cfg.MissThreshold)
}

// --- Routing state accessors ---

// Successor returns the raw head of the successor list.
func (r *Ring) Successor() (Ref, bool) {
	if len(r.succList) == 0 {
		return Ref{}, false
	}
	return r.succList[0], true
}

// LiveSuccessor returns the first successor-list entry passing the alive
// filter (the raw head when no filter is installed).
func (r *Ring) LiveSuccessor() (Ref, bool) {
	for _, s := range r.succList {
		if r.Alive(s.ID) {
			return s, true
		}
	}
	return Ref{}, false
}

// Predecessor returns the raw predecessor pointer.
func (r *Ring) Predecessor() (Ref, bool) {
	if r.pred == nil {
		return Ref{}, false
	}
	return *r.pred, true
}

// LivePredecessor returns the predecessor if known and passing the alive
// filter.
func (r *Ring) LivePredecessor() (Ref, bool) {
	if r.pred == nil || !r.Alive(r.pred.ID) {
		return Ref{}, false
	}
	return *r.pred, true
}

// SuccessorList returns a copy of the successor list.
func (r *Ring) SuccessorList() []Ref { return append([]Ref(nil), r.succList...) }

// SuccRefs returns the successor list itself (callers must not mutate
// or retain it).
func (r *Ring) SuccRefs() []Ref { return r.succList }

// LonglinkCount reports how many long-distance links are installed.
func (r *Ring) LonglinkCount() int { return len(r.hooks.Longlinks()) }

// EachRoutingEntry calls fn for every routing entry: the long links, then
// the successor list. Entries may repeat; callers dedup.
func (r *Ring) EachRoutingEntry(fn func(Ref)) {
	for _, l := range r.hooks.Longlinks() {
		fn(l)
	}
	for _, s := range r.succList {
		fn(s)
	}
}

// Covers reports whether this node is the successor node of key: key in
// (pred, self]. With no predecessor the node conservatively covers only
// its own identifier (routing passes other keys to a stabilized neighbor
// instead).
func (r *Ring) Covers(key dht.Key) bool {
	if r.pred == nil {
		return key == r.self.ID
	}
	return r.cfg.Space.BetweenIncl(key, r.pred.ID, r.self.ID)
}

// NextHop picks the forwarding target for key: the successor when key
// lies in (self, succ], otherwise the closest preceding routing entry,
// alive-filtered. The step is strictly clockwise, so per-message routing
// that carries no walk state always terminates.
func (r *Ring) NextHop(key dht.Key) (Ref, bool) {
	succ, ok := r.LiveSuccessor()
	if !ok {
		return Ref{}, false
	}
	if r.cfg.Space.BetweenIncl(key, r.self.ID, succ.ID) {
		return succ, true
	}
	if c, ok := r.ClosestPreceding(key); ok {
		return c, true
	}
	return succ, true
}

// ClosestPreceding returns the routing entry that most immediately
// precedes key — Chord's closest_preceding_finger over the long links
// (from the farthest down) and the successor list, hardened against
// entries rejected by the alive filter.
func (r *Ring) ClosestPreceding(key dht.Key) (Ref, bool) {
	return closestPreceding(r.cfg.Space, r.self, key, r.hooks.Longlinks(), r.succList, r.alive)
}

func closestPreceding(space dht.Space, self Ref, key dht.Key, long, succs []Ref, alive func(dht.Key) bool) (Ref, bool) {
	best := Ref{}
	found := false
	consider := func(c Ref) {
		if c.ID == self.ID || (alive != nil && !alive(c.ID)) {
			return
		}
		if !space.Between(c.ID, self.ID, key) {
			return
		}
		if !found || space.Between(best.ID, self.ID, c.ID) {
			best, found = c, true
		}
	}
	for i := len(long) - 1; i >= 0; i-- {
		consider(long[i])
	}
	for _, s := range succs {
		consider(s)
	}
	return best, found
}

// --- Published routing view ---

// RingView is an immutable snapshot of a ring's routing state — self,
// predecessor, successor list, long links — published through an atomic
// pointer so goroutines outside the loop route wait-free. The live node's
// data-plane workers route decoded frames against it without posting to
// the control loop.
//
// The view omits the alive filter: only the simulator installs one, and
// the simulator never reads views (its event loop calls the machine
// directly). View routing therefore mirrors the machine's unfiltered
// behavior — exactly what the live transport runs.
type RingView struct {
	space dht.Space

	// Self is the owning node.
	Self Ref
	// Pred is the predecessor when HasPred.
	HasPred bool
	Pred    Ref
	// Succs is the successor list, nearest first. Empty until the node has
	// joined a ring.
	Succs []Ref
	// Long holds the machine's long links (populated fingers on Chord, the
	// de Bruijn chain on Koorde, the prefix table on Pastry).
	Long []Ref
}

// publishView snapshots the current ring state and fires the neighbor
// watch when the predecessor or first successor moved.
func (r *Ring) publishView() {
	v := &RingView{space: r.cfg.Space, Self: r.self}
	if r.pred != nil {
		v.HasPred, v.Pred = true, *r.pred
	}
	if len(r.succList) > 0 {
		v.Succs = append(make([]Ref, 0, len(r.succList)), r.succList...)
	}
	if r.hooks.Longlinks != nil {
		if l := r.hooks.Longlinks(); len(l) > 0 {
			v.Long = append(make([]Ref, 0, len(l)), l...)
		}
	}
	prev := r.view.Load()
	r.view.Store(v)
	if r.neighborWatch != nil && neighborhoodChanged(prev, v) {
		r.neighborWatch()
	}
}

// neighborhoodChanged reports whether the predecessor or first successor
// differs between two views.
func neighborhoodChanged(prev, cur *RingView) bool {
	if prev == nil {
		return cur.HasPred || len(cur.Succs) > 0
	}
	if prev.HasPred != cur.HasPred || (cur.HasPred && prev.Pred.ID != cur.Pred.ID) {
		return true
	}
	ps, pok := prev.Successor()
	cs, cok := cur.Successor()
	return pok != cok || (cok && ps.ID != cs.ID)
}

// View returns the most recently published routing snapshot. Safe from
// any goroutine; never nil. The dynamic type is always *RingView.
func (r *Ring) View() View { return r.view.Load() }

// Joined reports whether the snapshot has ring state.
func (v *RingView) Joined() bool { return len(v.Succs) > 0 }

// Owner returns the node the snapshot belongs to.
func (v *RingView) Owner() Ref { return v.Self }

// SuccRefs returns the successor list (the snapshot's own slice; views are
// immutable, so callers must not mutate it).
func (v *RingView) SuccRefs() []Ref { return v.Succs }

// Successor returns the head of the successor list.
func (v *RingView) Successor() (Ref, bool) {
	if len(v.Succs) == 0 {
		return Ref{}, false
	}
	return v.Succs[0], true
}

// Predecessor returns the predecessor pointer.
func (v *RingView) Predecessor() (Ref, bool) { return v.Pred, v.HasPred }

// Covers mirrors Ring.Covers: key in (pred, self], or exactly self when
// no predecessor is known.
func (v *RingView) Covers(key dht.Key) bool {
	if !v.HasPred {
		return key == v.Self.ID
	}
	return v.space.BetweenIncl(key, v.Pred.ID, v.Self.ID)
}

// NextHop mirrors Ring.NextHop without an alive filter.
func (v *RingView) NextHop(key dht.Key) (Ref, bool) {
	succ, ok := v.Successor()
	if !ok {
		return Ref{}, false
	}
	if v.space.BetweenIncl(key, v.Self.ID, succ.ID) {
		return succ, true
	}
	if c, ok := v.ClosestPreceding(key); ok {
		return c, true
	}
	return succ, true
}

// ClosestPreceding mirrors Ring.ClosestPreceding without an alive filter.
func (v *RingView) ClosestPreceding(key dht.Key) (Ref, bool) {
	return closestPreceding(v.space, v.Self, key, v.Long, v.Succs, nil)
}

var _ View = (*RingView)(nil)
