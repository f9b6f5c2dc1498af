// Package pastry implements a simplified, Pastry-style prefix-routing
// machine (Rowstron & Druschel, Middleware 2001) behind the
// substrate-neutral overlay.Machine contract, registered as "pastry" and
// hosted by the same simulated network as the Chord and Koorde machines.
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
//   - Each node also keeps a leaf set: the L/2 closest ring successors (the
//     backbone's successor list, so L/2 = SuccListLen) and L/2 closest
//     predecessors, which both terminates routing exactly and provides the
//     neighbor primitives the range multicast needs.
//   - Routing to key k: if the local node covers k (successor-interval
//     semantics, so the middleware sees identical delivery rules on every
//     machine), deliver; if k's successor lies within the leaf set, hand
//     over directly; otherwise forward along the routing-table entry
//     matching one more digit of k — falling back to the numerically
//     closest known node that still makes prefix progress.
//
// Routing therefore takes O(log_{2^b} N) hops — fewer, fatter strides than
// Chord's O(log2 N) fingers, which is exactly the contrast the substrate-
// comparison ablation measures.
//
// The machine is static (overlay.Factory.Static): the warm start builds
// it from the membership list, and it has no join protocol, no lookups and
// no maintenance. It embeds the ring backbone for the predecessor, the
// successor list, the counters and the published view; that view routes
// with the backbone's greedy step, which only the live transport reads,
// and the transport never hosts a static machine.
package pastry

import (
	"sort"

	"streamdex/internal/clock"
	"streamdex/internal/dht"
	"streamdex/internal/overlay"
)

// MachineName is the registry key of the Pastry machine.
const MachineName = "pastry"

// digitBits is b: identifiers are strings of base-2^b digits.
const digitBits = 4

func init() {
	overlay.Register(overlay.Factory{
		Name:      MachineName,
		New:       newMachine,
		Longlinks: Longlinks,
		Static:    true,
	})
}

// Longlinks computes a node's warm-start routing state: its prefix table,
// row-major (rows by shared-prefix length, digits ascending, empty slots
// skipped), then the predecessor half of the leaf set, nearest first and
// as long as the successor list the host installs beside it.
//
// Slot (r, d) covers the digit block of identifiers that share r digits
// with self and have digit d at position r. The block is contiguous and
// excludes self, so its clockwise-closest member from self — the
// deterministic stand-in for Pastry's proximity heuristic — is its lowest
// member, the ring successor of the block's first identifier.
func Longlinks(cfg overlay.Config, ring []dht.Key, self dht.Key) []overlay.Ref {
	sp := cfg.Space
	var out []overlay.Ref
	for r := 0; r < digitCount(sp); r++ {
		for d := 0; d < 1<<digitBits; d++ {
			if d == digit(sp, self, r) {
				continue
			}
			s, ok := overlay.SuccessorOnRing(sp, ring, blockStart(sp, self, r, d))
			if ok && sharedDigits(sp, self, s) == r && digit(sp, s, r) == d {
				out = append(out, overlay.Ref{ID: s})
			}
		}
	}
	sz := len(ring)
	pos := sort.Search(sz, func(i int) bool { return ring[i] >= self })
	for k := 1; k <= cfg.SuccListLen && k < sz; k++ {
		out = append(out, overlay.Ref{ID: ring[(pos-k+sz)%sz]})
	}
	if sz <= 1 {
		// A one-node ring's successor list is the node itself; so is its
		// predecessor half.
		out = append(out, overlay.Ref{ID: self})
	}
	return out
}

// digitCount is the number of digit positions, ceil(M / digitBits).
func digitCount(sp dht.Space) int { return (int(sp.M) + digitBits - 1) / digitBits }

// digit returns the r-th base-2^b digit of k, counting from the most
// significant end of the m-bit identifier.
func digit(sp dht.Space, k dht.Key, r int) int {
	shift := int(sp.M) - (r+1)*digitBits
	if shift < 0 {
		// Final partial digit for M not divisible by digitBits.
		return int(k << uint(-shift) & (1<<digitBits - 1))
	}
	return int(k >> uint(shift) & (1<<digitBits - 1))
}

// sharedDigits returns the length of the common digit prefix of a and b.
func sharedDigits(sp dht.Space, a, b dht.Key) int {
	for r := 0; r < digitCount(sp); r++ {
		if digit(sp, a, r) != digit(sp, b, r) {
			return r
		}
	}
	return digitCount(sp)
}

// blockStart returns the lowest identifier sharing r digits with self and
// having digit d at position r.
func blockStart(sp dht.Space, self dht.Key, r, d int) dht.Key {
	low := sp.M - uint(r*digitBits) // bits below the shared prefix
	prefix := self >> low << low
	shift := int(sp.M) - (r+1)*digitBits
	if shift < 0 {
		return prefix | dht.Key(d)>>uint(-shift)
	}
	return prefix | dht.Key(d)<<uint(shift)
}

// Machine is one node's Pastry routing state: the ring backbone, whose
// successor list is the leaf set's successor half, plus the prefix table
// and the leaf set's predecessor half.
type Machine struct {
	*overlay.Ring

	space  dht.Space
	digits int

	// entries is the prefix table, row-major: the long links
	// EachRoutingEntry yields before the successors.
	entries []overlay.Ref
	// table indexes entries by slot r<<digitBits | d.
	table map[int]overlay.Ref
	// preds is the predecessor half of the leaf set, nearest first.
	preds []overlay.Ref
}

func newMachine(cfg overlay.Config, self overlay.Ref, clk clock.Clock, send func(to overlay.Ref, msg any)) overlay.Machine {
	m := &Machine{space: cfg.Space, digits: digitCount(cfg.Space)}
	m.Ring = overlay.NewRing(MachineName, cfg, self, clk, send, overlay.RingHooks{
		// A static machine issues no lookups and receives no messages.
		FindReq:          func(uint64, dht.Key) any { return nil },
		Handle:           func(any) {},
		Longlinks:        func() []overlay.Ref { return m.entries },
		InstallLonglinks: m.install,
		Repair:           func() {},
	})
	return m
}

// install splits Longlinks' output. InstallRing has already set the
// successor list, and the predecessors are the trailing entries, one per
// successor.
func (m *Machine) install(links []overlay.Ref) {
	k := len(links) - len(m.SuccRefs())
	m.entries = append(m.entries[:0], links[:k]...)
	m.preds = append(m.preds[:0], links[k:]...)
	m.table = make(map[int]overlay.Ref, len(m.entries))
	for _, e := range m.entries {
		r := sharedDigits(m.space, m.Self().ID, e.ID)
		m.table[r<<digitBits|digit(m.space, e.ID, r)] = e
	}
}

// NextHop picks the forwarding target per the Pastry routing rule:
// leaf-set handover over both leaf halves, then the prefix step, then the
// closest known node.
func (m *Machine) NextHop(key dht.Key) (overlay.Ref, bool) {
	sp, self := m.space, m.Self().ID
	// Leaf-set handover: if key's successor lies within the leaf arc,
	// route to it directly. The leaf set spans (preds[last], succs[last]]
	// around us; Covers already said no for our own interval.
	succs := m.SuccRefs()
	prev := self
	for _, s := range succs {
		if sp.BetweenIncl(key, prev, s.ID) {
			return s, true
		}
		prev = s.ID
	}
	for i := 0; i+1 < len(m.preds); i++ {
		if sp.BetweenIncl(key, m.preds[i+1].ID, m.preds[i].ID) {
			return m.preds[i], true
		}
	}
	// Prefix routing: the entry that extends the shared prefix by one
	// digit.
	if r := sharedDigits(sp, self, key); r < m.digits {
		if e, ok := m.table[r<<digitBits|digit(sp, key, r)]; ok {
			return e, true
		}
	}
	// Rare fallback: among all known nodes, pick one strictly closer to
	// the key (numerically, on the ring) than we are; guarantees progress
	// like Pastry's rule.
	best, found := overlay.Ref{}, false
	myDist := ringAbs(sp, self, key)
	for _, group := range [][]overlay.Ref{succs, m.preds, m.entries} {
		for _, c := range group {
			if d := ringAbs(sp, c.ID, key); d < myDist && (!found || d < ringAbs(sp, best.ID, key)) {
				best, found = c, true
			}
		}
	}
	return best, found
}

// ringAbs is the minimal circular distance between a and b.
func ringAbs(sp dht.Space, a, b dht.Key) uint64 {
	return min(sp.Distance(a, b), sp.Distance(b, a))
}
