package koorde

import (
	"sort"
	"testing"

	"streamdex/internal/clock"
	"streamdex/internal/dht"
	"streamdex/internal/overlay"
	"streamdex/internal/sim"
)

// lcg is the deterministic generator the repo's tests use for id/key
// draws that must not depend on math/rand's version.
type lcg uint64

func (r *lcg) next(n uint64) uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r>>33) % n
}

// uniformIDs draws n distinct identifiers in space.
func uniformIDs(space dht.Space, n int, seed uint64) []dht.Key {
	r := lcg(seed)
	seen := make(map[dht.Key]bool, n)
	ids := make([]dht.Key, 0, n)
	for len(ids) < n {
		id := dht.Key(r.next(1 << space.M))
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// buildRing wires a warm oracle ring: every machine gets its true
// predecessor, successor chain and perfect de Bruijn pointer chain, with
// no maintenance running and a discarding send hook.
func buildRing(space dht.Space, ids []dht.Key, succLen int) map[dht.Key]*Machine {
	clk := clock.Virtual(sim.NewEngine())
	cfg := overlay.Config{Space: space, SuccListLen: succLen}
	n := len(ids)
	nodes := make(map[dht.Key]*Machine, n)
	for i, id := range ids {
		m := New(cfg, Ref{ID: id}, clk, func(Ref, any) {})
		pred := Ref{ID: ids[(i-1+n)%n]}
		succs := make([]Ref, 0, succLen)
		for k := 1; k <= succLen && k < n; k++ {
			succs = append(succs, Ref{ID: ids[(i+k)%n]})
		}
		m.InstallRing(&pred, succs, Longlinks(cfg, ids, id))
		nodes[id] = m
	}
	return nodes
}

func oracleOwner(ids []dht.Key, key dht.Key) dht.Key {
	at := sort.Search(len(ids), func(i int) bool { return ids[i] >= key })
	if at == len(ids) {
		at = 0
	}
	return ids[at]
}

// TestLonglinksWindow checks the warm-start pointer chain: it starts at
// the ring predecessor of k·self, never contains self, never repeats, and
// is capped at the pointer window.
func TestLonglinksWindow(t *testing.T) {
	space := dht.NewSpace(16)
	ids := uniformIDs(space, 128, 0x5eed)
	cfg := overlay.Config{Space: space}
	for _, self := range ids {
		chain := Longlinks(cfg, ids, self)
		if len(chain) == 0 || len(chain) > pointerWindow {
			t.Fatalf("node %d: chain length %d, want 1..%d", self, len(chain), pointerWindow)
		}
		seen := map[dht.Key]bool{}
		for _, r := range chain {
			if r.ID == self {
				t.Fatalf("node %d: chain contains self", self)
			}
			if seen[r.ID] {
				t.Fatalf("node %d: chain repeats %d", self, r.ID)
			}
			seen[r.ID] = true
		}
		// The head is the ring predecessor of k·self — or, when self is
		// that predecessor, the host of k·self itself (self is skipped).
		target := space.Wrap(self << digitBits)
		host := oracleOwner(ids, target)
		at := sort.Search(len(ids), func(i int) bool { return ids[i] >= host })
		wantHead := ids[(at-1+len(ids))%len(ids)]
		if wantHead == self {
			wantHead = host
		}
		if chain[0].ID != wantHead {
			t.Fatalf("node %d: chain head %d, want pred(k·self)=%d", self, chain[0].ID, wantHead)
		}
	}
}

// TestDebruijnStepAligned checks the hop computation against its
// contract: the returned imaginary address i1 embeds a member of the
// node's own arc shifted one digit, carrying the next digit of the key,
// and at the final alignment level i1 is the key itself.
func TestDebruijnStepAligned(t *testing.T) {
	space := dht.NewSpace(16)
	r := lcg(0xfeed)
	for trial := 0; trial < 2000; trial++ {
		self := dht.Key(r.next(1 << 16))
		succ := space.Add(self, 1+r.next(1<<12))
		key := dht.Key(r.next(1 << 16))
		if space.BetweenIncl(key, self, succ) || key == self {
			continue // succ-branch territory, debruijnStep not consulted
		}
		i1, left, ok := debruijnStep(space, self, succ, key)
		if !ok {
			t.Fatalf("no step for self=%d succ=%d key=%d", self, succ, key)
		}
		if left >= (16+digitBits-1)/digitBits {
			t.Fatalf("digits left %d out of range for self=%d succ=%d key=%d", left, self, succ, key)
		}
		// i1 = Wrap(i0<<4|digit) for some i0 in (self, succ] and some
		// digit of key: recover i0 by shifting back through every digit
		// position and demand at least one consistent witness.
		witness := false
		for tt := uint(1); tt <= (16+digitBits-1)/digitBits; tt++ {
			digit := (key >> (digitBits * (tt - 1))) & (Degree - 1)
			if i1&(Degree-1) != digit {
				continue
			}
			// Candidate i0s are the keys whose low 12 bits are i1>>4.
			for hi := dht.Key(0); hi < Degree; hi++ {
				i0 := hi<<(16-digitBits) | i1>>digitBits
				if space.BetweenIncl(i0, self, succ) {
					witness = true
				}
			}
		}
		if !witness {
			t.Fatalf("unaligned step: self=%d succ=%d key=%d i1=%d", self, succ, key, i1)
		}
	}
	// Final level: i0 = 0x1234 lies in (0x1200, 0x1fff], so any key with
	// key>>4 ≡ 0x234 (mod 2^12) aligns at t=1 and the hop target is the
	// key itself with no digits left; take key = 0x2347.
	self, succ := dht.Key(0x1200), dht.Key(0x1fff)
	i1, left, ok := debruijnStep(space, self, succ, 0x2347)
	if !ok || i1 != 0x2347 || left != 0 {
		t.Fatalf("level-1 step: got i1=%#x left=%d ok=%v, want key itself %#x left=0", i1, left, ok, 0x2347)
	}
}

// TestDataPlaneWalkTerminates routes stateless per-message walks across
// a warm 256-node ring: the greedy data-plane NextHop must be strictly
// monotone — every walk reaches exactly the oracle owner, bounded by the
// live node count, never cycling.
func TestDataPlaneWalkTerminates(t *testing.T) {
	space := dht.NewSpace(16)
	ids := uniformIDs(space, 256, 0x5eed)
	nodes := buildRing(space, ids, 8)

	r := lcg(0x9e3779b9)
	for trial := 0; trial < 2000; trial++ {
		cur := ids[r.next(uint64(len(ids)))]
		key := dht.Key(r.next(1 << 16))
		want := oracleOwner(ids, key)
		hops := 0
		for !nodes[cur].Covers(key) {
			next, ok := nodes[cur].NextHop(key)
			if !ok {
				t.Fatalf("trial %d: no hop at %d for key %d", trial, cur, key)
			}
			if next.ID == cur {
				t.Fatalf("trial %d: self-hop at %d for key %d", trial, cur, key)
			}
			cur = next.ID
			if hops++; hops > len(ids) {
				t.Fatalf("trial %d: walk for key %d did not terminate", trial, key)
			}
		}
		if cur != want {
			t.Fatalf("trial %d: key %d delivered to %d, oracle owner %d", trial, key, cur, want)
		}
	}
}

// TestLookupHopsOracleRing drives the stateful de Bruijn lookup walk
// (KFindReq with carried imaginary-node state) over a synchronously
// wired 256-node warm ring and demands the constant-degree advantage:
// every lookup resolves to the oracle owner, and the mean number of
// KFindReq forwards stays below Chord's ~½·log2(256) = 4 expectation.
func TestLookupHopsOracleRing(t *testing.T) {
	space := dht.NewSpace(16)
	ids := uniformIDs(space, 256, 0x5eed)

	clk := clock.Virtual(sim.NewEngine())
	cfg := overlay.Config{Space: space, SuccListLen: 8}
	nodes := make(map[dht.Key]*Machine, len(ids))
	forwards := 0
	send := func(to Ref, msg any) {
		if _, isFind := msg.(KFindReq); isFind {
			forwards++
		}
		if tgt := nodes[to.ID]; tgt != nil {
			tgt.Handle(msg)
		}
	}
	n := len(ids)
	for i, id := range ids {
		m := New(cfg, Ref{ID: id}, clk, send)
		pred := Ref{ID: ids[(i-1+n)%n]}
		succs := make([]Ref, 0, 8)
		for k := 1; k <= 8; k++ {
			succs = append(succs, Ref{ID: ids[(i+k)%n]})
		}
		m.InstallRing(&pred, succs, Longlinks(cfg, ids, id))
		nodes[id] = m
	}

	r := lcg(0x5eed9e37)
	const trials = 1000
	for trial := 0; trial < trials; trial++ {
		origin := ids[r.next(uint64(n))]
		key := dht.Key(r.next(1 << 16))
		want := oracleOwner(ids, key)
		var got Ref
		resolved := false
		nodes[origin].FindSuccessor(key, func(succ Ref) { got, resolved = succ, true })
		if !resolved {
			t.Fatalf("trial %d: lookup for key %d from %d did not resolve", trial, key, origin)
		}
		if got.ID != want {
			t.Fatalf("trial %d: lookup for key %d resolved to %d, oracle owner %d", trial, key, got.ID, want)
		}
	}
	mean := float64(forwards) / float64(trials)
	if mean >= 4.0 {
		t.Fatalf("mean lookup forwards %.2f on 256-node warm ring, want < 4 (de Bruijn advantage)", mean)
	}
	t.Logf("mean lookup forwards %.2f over %d lookups", mean, trials)
}

func refIDs(rs []Ref) []dht.Key {
	ids := make([]dht.Key, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}
