package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

// Store is the per-node index partition: the MBR summaries this data center
// covers by content. Entries are soft state with a lifespan (BSPAN) "in
// order to prevent cluttering of storage space and to eliminate query
// responses that contain stale information" (§V). Every data center, on
// the simulator and on a live node, runs this one store.
//
// The store is sharded by an L₁ band partition so a node's data
// plane can run it from many goroutines at once: entry shard =
// floor(L₁/bandWidth) mod S. A similarity query (Q, r) can only match MBRs
// whose first-coefficient interval [L₁, H₁] overlaps [q₁−r, q₁+r] — the
// same Fourier-locality fact Eq. 6 routes on — so the index keeps entries
// in runs sorted by L₁, laid out structure-of-arrays: flat []float64 slices
// carry the first-coefficient bounds (lo1/hi1), an []sim.Time slice the
// expiries, and — when every entry shares one dimensionality — a flattened
// corner array, with a parallel []*summary.MBR id slice consulted only when
// an entry actually matches. A walk binary-searches a run for the
// overlapping band and scans it branch-light over the flat arrays.
//
// A shard is generational. Because every MBR carries
// the same lifespan, entries leave a node in almost the order they arrived,
// so a shard is a short list of generations ordered by arrival: a handful
// of sealed ones, each an immutable sorted run with its own width bound,
// and one active generation that Put appends to — the slot is
// written past the published length and then published by an atomic store
// of that length; when a chunk of slots fills, a fresh chunk is linked
// behind it, nothing is copied. Once the active generation holds
// 1/storeGenerations of what the sealed ones hold — at a steady rate, what
// arrived in that fraction of the lifespan — the Put that filled it seals
// it: its entries are sorted once into a run. Sweep drops a sealed
// generation whole, by unlinking it, once its newest expiry has passed.
// Nothing else ever moves an entry: there is no per-put snapshot, no merge
// and no compaction, and an expired entry that lingers in a generation not
// yet dropped (at most about one generation's worth per shard) is skipped
// by the per-entry expiry test every walk applies.
//
// Readers are lock-free: a walk loads the shard's current view — the list
// of sealed runs plus the head of the active chunk chain — with one atomic
// pointer read, binary-searches each sealed run, scans the active chunks
// flat up to their published lengths, and never blocks a writer or another
// reader. Writers (Put, Sweep) serialize on a per-shard mutex. A view, a
// sealed run and the published prefix of a chunk are never mutated, so a
// reader holding a stale view keeps seeing exactly the state it loaded.
//
// What callers rely on is the set a walk returns — every matching entry
// live at the walk's now, each once — never its order: results come
// generation by generation, and which generation holds an entry depends on
// arrival order and seal points.
//
// Concurrency contract: Put, Sweep and the walks may be called from any
// goroutine; walks acquire no locks and perform no allocations (beyond
// growing the caller's destination slice). The simulator's single
// goroutine runs the same mutex and atomics, uncontended.
type Store struct {
	shards    []storeShard
	bandWidth float64

	// Cumulative data-plane counters (atomic; surfaced via the node's
	// STATS output and asserted by the stale-width regression test).
	puts    atomic.Int64
	scanned atomic.Int64 // entries visited by candidate walks

	// Publication counters (SnapStats).
	epochs    atomic.Int64 // publications across all shards
	cowCopied atomic.Int64 // entries moved by seals
	merges    atomic.Int64 // seals
}

// storeShard is one independently mutated L₁ band of the store. view is
// what readers load; mu serializes writers only.
type storeShard struct {
	mu   sync.Mutex
	view atomic.Pointer[shardView]

	// Writer state, guarded by mu.
	tail   *genChunk // chunk the next Put appends to
	n      int       // entries in the active generation
	finite int       // those of them that expire
	newest sim.Time  // newest expiry among them; 0 while finite is 0
	sealed int       // entries in the sealed generations
}

// shardView is one published state of a shard: immutable, replaced whole
// when a generation is sealed or dropped.
type shardView struct {
	// runs are the sealed generations, oldest first.
	runs []*shardSnap
	// active is the first chunk of the active generation.
	active *genChunk
	epoch  uint64 // bumped on every publication of this shard's view
}

// shardSnap is one run of entries sorted ascending by lo1: a sealed
// generation, frozen when it was built and walked without synchronization.
type shardSnap struct {
	lo1, hi1 []float64
	exp      []sim.Time
	crd      []float64 // flattened corners [lo…, hi…] per entry; nil if dims mixed
	refs     []*summary.MBR

	dims     int      // uniform dimensionality; 0 = mixed, -1 = empty
	maxWidth float64  // upper bound on Hi[0]-Lo[0] within this run
	newest   sim.Time // its newest expiry; dropped once passed
}

// genSlot is one entry of the active generation. The first-coefficient
// interval and the expiry sit inline so the flat scan touches the MBR only
// when the interval overlaps the query's.
type genSlot struct {
	lo1, hi1 float64
	exp      sim.Time
	ref      *summary.MBR
}

// genChunk is one fixed-capacity piece of the active generation's
// append-only log. slots[:n] is published and immutable; the writer fills
// slots[n] and then stores n+1, so a reader that loads n sees every slot
// below it. A full chunk gets a successor linked through next.
type genChunk struct {
	slots []genSlot
	n     atomic.Int32
	next  atomic.Pointer[genChunk]
}

// SnapStats reports the store's cumulative publication activity.
type SnapStats struct {
	// Epochs counts publications summed over all shards: every Put, every
	// seal, and every Sweep that dropped a generation.
	Epochs int64
	// CowCopied counts entries moved when a generation was sealed. Each
	// entry is sealed at most once, so the ratio to puts stays near one.
	CowCopied int64
	// Merges counts sealed generations.
	Merges int64
}

// defaultBandWidth is the L₁ stripe width of the shard partition. Features
// are normalized, so first coefficients live in roughly [-1, 1]; a 0.25
// stripe spreads a typical workload over all shards while keeping a
// radius-sized query band inside a handful of them.
const defaultBandWidth = 0.25

// storeGenerations is G: a shard seals its active generation once it
// holds 1/G of what the shard's sealed generations hold. At a steady
// arrival rate the sealed generations are what arrived over one lifespan,
// so a generation spans 1/G of the lifespan, a shard holds about G sealed
// generations, and at most about 1/G of it lingers expired or is scanned
// flat. A walk pays one binary search per generation.
const storeGenerations = 8

// Active-generation chunks hold between minChunk and maxChunk slots. A new
// chunk is sized to what the generation (or its predecessor) already holds,
// so a steady generation fits in one or two. minChunk is also the smallest
// generation worth sealing.
const (
	minChunk = 64
	maxChunk = 4096
)

func newChunk(held int) *genChunk {
	return &genChunk{slots: make([]genSlot, min(max(held, minChunk), maxChunk))}
}

// append publishes sl behind the chunk's last slot and returns the chunk
// the next append goes to. held is the generation's length so far. Only
// the shard's writer calls it.
func (c *genChunk) append(sl genSlot, held int) *genChunk {
	n := c.n.Load()
	if int(n) == len(c.slots) {
		next := newChunk(held)
		next.slots[0] = sl
		next.n.Store(1)
		c.next.Store(next)
		return next
	}
	c.slots[n] = sl
	c.n.Store(n + 1)
	return c
}

// NewShardedStore returns an empty store with the given number of L₁-band
// shards (values < 1 are treated as 1), each a list of generations.
func NewShardedStore(shards int) *Store {
	if shards < 1 {
		shards = 1
	}
	s := &Store{shards: make([]storeShard, shards), bandWidth: defaultBandWidth}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.tail = newChunk(0)
		sh.view.Store(&shardView{active: sh.tail})
	}
	return s
}

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// shardOf maps a first-coefficient lower corner to its shard.
func (s *Store) shardOf(l1 float64) int {
	if len(s.shards) == 1 {
		return 0
	}
	band := int(math.Floor(l1 / s.bandWidth))
	idx := band % len(s.shards)
	if idx < 0 {
		idx += len(s.shards)
	}
	return idx
}

// Len returns the number of MBRs held, including expired entries of
// generations not yet dropped. Lock-free.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		v := s.shards[i].view.Load()
		for _, p := range v.runs {
			n += len(p.lo1)
		}
		for c := v.active; c != nil; c = c.next.Load() {
			n += int(c.n.Load())
		}
	}
	return n
}

// Generations returns how many non-empty generations the shards hold
// between them (stats).
func (s *Store) Generations() int {
	n := 0
	for i := range s.shards {
		v := s.shards[i].view.Load()
		n += len(v.runs)
		if v.active.n.Load() > 0 {
			n++
		}
	}
	return n
}

// Stats reports cumulative store activity: entries inserted and entries
// visited by candidate walks. The scanned/put ratio exposes how well the
// sorted-band pruning and the per-shard width bounds are working.
func (s *Store) Stats() (puts, scanned int64) {
	return s.puts.Load(), s.scanned.Load()
}

// SnapStats reports the store's cumulative publication counters.
func (s *Store) SnapStats() SnapStats {
	return SnapStats{
		Epochs:    s.epochs.Load(),
		CowCopied: s.cowCopied.Load(),
		Merges:    s.merges.Load(),
	}
}

// foldDims combines a run's dims state with one entry's dimensionality.
func foldDims(dims, k int) int {
	switch {
	case dims == -1:
		return k
	case dims == k:
		return dims
	default:
		return 0
	}
}

// appendCorners appends b's corners to dst in flat [lo…, hi…] layout.
func appendCorners(dst []float64, b *summary.MBR) []float64 {
	dst = append(dst, b.Lo...)
	return append(dst, b.Hi...)
}

// Put inserts an MBR into its L₁-band shard and publishes it before
// returning, so a candidate walk that starts after Put returns is
// guaranteed to see the entry (the ordering fence the
// handleQuery/publishMBR protocol relies on).
func (s *Store) Put(b *summary.MBR) {
	sh := &s.shards[s.shardOf(b.Lo[0])]
	sh.mu.Lock()
	sh.tail = sh.tail.append(genSlot{lo1: b.Lo[0], hi1: b.Hi[0], exp: b.Expiry, ref: b}, sh.n)
	sh.n++
	if b.Expiry != 0 {
		sh.finite++
		sh.newest = max(sh.newest, b.Expiry)
	}
	s.epochs.Add(1)
	if sh.finite >= max(minChunk, sh.sealed/storeGenerations) {
		// Put has no clock: at time 0 nothing is expired, so this
		// drops and filters nothing.
		s.republish(sh, 0, true)
	}
	sh.mu.Unlock()
	s.puts.Add(1)
}

// buildRun lays lo1-sorted slots out as an immutable sorted run.
func buildRun(sorted []genSlot) *shardSnap {
	n := len(sorted)
	run := &shardSnap{
		lo1:  make([]float64, n),
		hi1:  make([]float64, n),
		exp:  make([]sim.Time, n),
		refs: make([]*summary.MBR, n),
		dims: -1,
	}
	for i, sl := range sorted {
		run.lo1[i], run.hi1[i], run.exp[i], run.refs[i] = sl.lo1, sl.hi1, sl.exp, sl.ref
		run.dims = foldDims(run.dims, len(sl.ref.Lo))
		run.maxWidth = max(run.maxWidth, sl.hi1-sl.lo1)
		run.newest = max(run.newest, sl.exp)
	}
	if run.dims > 0 {
		run.crd = make([]float64, 0, n*2*run.dims)
		for _, sl := range sorted {
			run.crd = appendCorners(run.crd, sl.ref)
		}
	}
	return run
}

// Sweep drops expired MBRs and returns how many entries were removed. It
// is pointer work: each shard unlinks the sealed generations whose newest
// expiry has passed (and retires an active generation in which everything
// has expired); walks in flight keep reading the view they loaded.
func (s *Store) Sweep(now sim.Time) int {
	removed := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		removed += s.sweepShard(sh, now)
		sh.mu.Unlock()
	}
	return removed
}

// sweepShard is Sweep on one shard, under its writer mutex. With
// nothing to drop it publishes nothing and allocates nothing.
func (s *Store) sweepShard(sh *storeShard, now sim.Time) int {
	// An active generation whose newest entry has expired holds nothing
	// live: it goes too (a trickle too thin to ever fill a generation).
	retire := sh.finite > 0 && now >= sh.newest
	if !retire {
		dead := false
		for _, p := range sh.view.Load().runs {
			dead = dead || p.newest <= now
		}
		if !dead {
			return 0
		}
	}
	return s.republish(sh, now, retire)
}

// republish replaces the shard's view, under its writer mutex: sealed
// generations whose newest expiry is at or before now are left out, and
// with seal set the active generation is sealed behind the rest. It returns
// how many entries the new view no longer holds.
func (s *Store) republish(sh *storeShard, now sim.Time, seal bool) int {
	v := sh.view.Load()
	next := &shardView{
		runs:   make([]*shardSnap, 0, len(v.runs)+1),
		active: v.active,
		epoch:  v.epoch + 1,
	}
	removed := 0
	for _, p := range v.runs {
		if p.newest <= now {
			removed += len(p.refs)
		} else {
			next.runs = append(next.runs, p)
		}
	}
	sh.sealed -= removed
	if seal {
		removed += s.seal(sh, next, now)
	}
	sh.view.Store(next)
	s.epochs.Add(1)
	return removed
}

// seal freezes the shard's active generation into next: entries still live
// at now are sorted once by lo1 into an immutable run, expired ones are
// dropped (and counted in the result), and entries that never expire are
// carried into the fresh active generation so they cannot pin a sealed one
// forever. The old chunks are left untouched for readers still on them.
func (s *Store) seal(sh *storeShard, next *shardView, now sim.Time) (removed int) {
	live := make([]genSlot, 0, sh.finite)
	head := newChunk(sh.n)
	tail, carried := head, 0
	for c := next.active; c != nil; c = c.next.Load() {
		for _, sl := range c.slots[:c.n.Load()] {
			switch {
			case sl.exp == 0:
				tail = tail.append(sl, carried)
				carried++
			case now >= sl.exp:
				removed++
			default:
				live = append(live, sl)
			}
		}
	}
	if len(live) > 0 {
		slices.SortFunc(live, func(a, b genSlot) int { return cmp.Compare(a.lo1, b.lo1) })
		next.runs = append(next.runs, buildRun(live))
		s.merges.Add(1)
	}
	next.active = head
	sh.tail, sh.n, sh.finite, sh.newest = tail, carried, 0, 0
	sh.sealed += len(live)
	s.cowCopied.Add(int64(len(live) + carried))
	return removed
}

// Candidates scans the store for MBRs whose minimum distance to the query
// feature is within the radius — the no-false-dismissal candidate test.
func (s *Store) Candidates(q summary.Feature, radius float64, now sim.Time, node dht.Key) []query.Match {
	return s.AppendCandidates(nil, q, radius, now, node)
}

// AppendCandidates is Candidates appending into dst, for callers that reuse
// a scratch buffer across queries. The walk itself is lock-free: it loads
// each shard's current view with one atomic pointer read, binary-searches
// the sealed runs and scans the active generation flat, so any number of
// walks proceed in parallel with each other and with writers. Results come
// generation by generation, each sealed one in lo1 order.
func (s *Store) AppendCandidates(dst []query.Match, q summary.Feature, radius float64, now sim.Time, node dht.Key) []query.Match {
	q1 := q[0]
	visited := int64(0)
	for i := range s.shards {
		v := s.shards[i].view.Load()
		for _, p := range v.runs {
			dst, visited = p.appendCandidates(dst, visited, q, q1, radius, now, node)
		}
		dst, visited = v.active.appendCandidates(dst, visited, q, radius, now, node)
	}
	if visited > 0 {
		s.scanned.Add(visited)
	}
	return dst
}

// minDistFlat is summary.MBR.MinDist over a flat [lo…, hi…] corner block,
// kept operation-for-operation identical so flat and pointer walks produce
// bitwise-equal distances.
func minDistFlat(crd []float64, q summary.Feature, k int) float64 {
	var sum float64
	for d := 0; d < k; d++ {
		switch {
		case q[d] < crd[d]:
			diff := crd[d] - q[d]
			sum += diff * diff
		case q[d] > crd[k+d]:
			diff := q[d] - crd[k+d]
			sum += diff * diff
		}
	}
	return math.Sqrt(sum)
}

// appendCandidates walks one sorted run's overlapping band without locks.
func (p *shardSnap) appendCandidates(dst []query.Match, visited int64, q summary.Feature, q1, radius float64, now sim.Time, node dht.Key) ([]query.Match, int64) {
	// Only entries with Lo[0] in [q1-r-maxWidth, q1+r] can have a
	// first-coefficient interval overlapping [q1-r, q1+r].
	lo := q1 - radius - p.maxWidth
	hi := q1 + radius
	qlo := q1 - radius
	k := p.dims
	flat := k == len(q) && p.crd != nil

	start := sort.Search(len(p.lo1), func(i int) bool { return p.lo1[i] >= lo })
	for j := start; j < len(p.lo1); j++ {
		if p.lo1[j] > hi {
			break
		}
		visited++
		if e := p.exp[j]; e != 0 && now >= e {
			continue
		}
		if p.hi1[j] >= qlo { // cheap interval pre-test before MinDist
			var d float64
			switch {
			case flat:
				d = minDistFlat(p.crd[j*2*k:(j+1)*2*k], q, k)
			case len(p.refs[j].Lo) == len(q):
				d = p.refs[j].MinDist(q)
			default:
				continue // another dimensionality: cannot match
			}
			if d <= radius {
				b := p.refs[j]
				dst = append(dst, query.Match{
					StreamID: b.StreamID,
					Seq:      b.Seq,
					DistLB:   d,
					FoundAt:  now,
					Node:     node,
				})
			}
		}
	}
	return dst, visited
}

// appendCandidates scans the active generation from chunk c on: every
// published slot whose first-coefficient interval overlaps the query's is
// visited, expired ones are skipped, the rest take the exact MinDist test.
func (c *genChunk) appendCandidates(dst []query.Match, visited int64, q summary.Feature, radius float64, now sim.Time, node dht.Key) ([]query.Match, int64) {
	qlo, qhi := q[0]-radius, q[0]+radius
	for ; c != nil; c = c.next.Load() {
		slots := c.slots[:c.n.Load()]
		for j := range slots {
			sl := &slots[j]
			if sl.hi1 < qlo || sl.lo1 > qhi {
				continue
			}
			visited++
			if sl.exp != 0 && now >= sl.exp {
				continue
			}
			if len(sl.ref.Lo) != len(q) {
				continue // another dimensionality: cannot match
			}
			if d := sl.ref.MinDist(q); d <= radius {
				dst = append(dst, query.Match{
					StreamID: sl.ref.StreamID,
					Seq:      sl.ref.Seq,
					DistLB:   d,
					FoundAt:  now,
					Node:     node,
				})
			}
		}
	}
	return dst, visited
}

// shardWidth returns the widest first-coefficient interval shard i's walks
// have to allow for: the largest width bound among its sealed runs and the
// widest entry of its active generation (tests).
func (s *Store) shardWidth(i int) float64 {
	v := s.shards[i].view.Load()
	w := 0.0
	for _, p := range v.runs {
		w = max(w, p.maxWidth)
	}
	for c := v.active; c != nil; c = c.next.Load() {
		for _, sl := range c.slots[:c.n.Load()] {
			w = max(w, sl.hi1-sl.lo1)
		}
	}
	return w
}

// allEntries returns a copy of every shard's entries (tests).
func (s *Store) allEntries() []*summary.MBR {
	var out []*summary.MBR
	for i := range s.shards {
		out = append(out, s.shardEntries(i)...)
	}
	return out
}

// shardEntries returns a copy of shard i's entries in walk order: sealed
// runs oldest first, then the active generation in insertion order (tests).
func (s *Store) shardEntries(i int) []*summary.MBR {
	v := s.shards[i].view.Load()
	var out []*summary.MBR
	for _, p := range v.runs {
		out = append(out, p.refs...)
	}
	for c := v.active; c != nil; c = c.next.Load() {
		for _, sl := range c.slots[:c.n.Load()] {
			out = append(out, sl.ref)
		}
	}
	return out
}

// AppendOverlapping appends a match for every live stored MBR whose
// rectangle intersects [lo, hi] — the store walk behind standing pub/sub
// predicates. Like AppendCandidates it is lock-free, with the same
// L₁ band pruning (an entry can only overlap if its first-coefficient
// interval does): a binary search per sealed run, a flat scan of the
// active generation.
func (s *Store) AppendOverlapping(dst []query.Match, lo, hi summary.Feature, now sim.Time, node dht.Key) []query.Match {
	l1lo, l1hi := lo[0], hi[0]
	visited := int64(0)
	for i := range s.shards {
		v := s.shards[i].view.Load()
		for _, p := range v.runs {
			from := l1lo - p.maxWidth
			start := sort.Search(len(p.lo1), func(j int) bool { return p.lo1[j] >= from })
			for j := start; j < len(p.lo1); j++ {
				if p.lo1[j] > l1hi {
					break
				}
				visited++
				if e := p.exp[j]; e != 0 && now >= e {
					continue
				}
				if b := p.refs[j]; rectOverlaps(b, lo, hi) {
					dst = append(dst, query.Match{StreamID: b.StreamID, Seq: b.Seq, FoundAt: now, Node: node})
				}
			}
		}
		for c := v.active; c != nil; c = c.next.Load() {
			slots := c.slots[:c.n.Load()]
			for j := range slots {
				sl := &slots[j]
				if sl.hi1 < l1lo || sl.lo1 > l1hi {
					continue
				}
				visited++
				if sl.exp != 0 && now >= sl.exp {
					continue
				}
				if b := sl.ref; rectOverlaps(b, lo, hi) {
					dst = append(dst, query.Match{StreamID: b.StreamID, Seq: b.Seq, FoundAt: now, Node: node})
				}
			}
		}
	}
	if visited > 0 {
		s.scanned.Add(visited)
	}
	return dst
}

// rectOverlaps reports whether the MBR intersects the rectangle [lo, hi].
func rectOverlaps(b *summary.MBR, lo, hi summary.Feature) bool {
	if len(lo) != len(b.Lo) {
		return false
	}
	for d := range lo {
		if b.Hi[d] < lo[d] || b.Lo[d] > hi[d] {
			return false
		}
	}
	return true
}
