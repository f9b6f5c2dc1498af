package protocol_test

import (
	"sort"
	"testing"

	"streamdex/internal/clock"
	"streamdex/internal/dht"
	"streamdex/internal/overlay"
	"streamdex/internal/sim"
)

// bus is a minimal deterministic substrate for churn testing: machines wired
// together over a fixed-delay message channel driven entirely by the virtual
// clock. Crashed nodes silently eat deliveries, exactly like a dead socket.
// An optional jitter adds a random delay per message while keeping each
// directed link first-in first-out, like one TCP connection per node pair.
type bus struct {
	eng    *sim.Engine
	clk    clock.Clock
	delay  sim.Time
	fac    overlay.Factory
	cfg    overlay.Config
	nodes  map[dht.Key]overlay.Machine
	down   map[dht.Key]bool
	jitter func() sim.Time
	last   map[[2]dht.Key]sim.Time // per-link latest delivery, with jitter
}

func newBus(eng *sim.Engine, fac overlay.Factory, cfg overlay.Config, delay sim.Time) *bus {
	return &bus{
		eng:   eng,
		clk:   clock.Virtual(eng),
		delay: delay,
		fac:   fac,
		cfg:   cfg,
		nodes: make(map[dht.Key]overlay.Machine),
		down:  make(map[dht.Key]bool),
		last:  make(map[[2]dht.Key]sim.Time),
	}
}

func (b *bus) add(id dht.Key) overlay.Machine {
	m := b.fac.New(b.cfg, Ref{ID: id}, b.clk, func(to Ref, msg any) {
		tid := to.ID
		d := b.delay
		if b.jitter != nil {
			link := [2]dht.Key{id, tid}
			d += b.jitter()
			if now := b.eng.Now(); now+d < b.last[link] {
				d = b.last[link] - now
			}
			b.last[link] = b.eng.Now() + d
		}
		b.clk.Schedule(d, func() {
			if tgt := b.nodes[tid]; tgt != nil && !b.down[tid] {
				tgt.Handle(msg)
			}
		})
	})
	// Routing hardening mirrors the simulator substrate: next-hop selection
	// may consult liveness, the maintenance protocol itself never does.
	m.SetAliveFilter(func(id dht.Key) bool { return b.nodes[id] != nil && !b.down[id] })
	b.nodes[id] = m
	return m
}

// leave performs a graceful departure: splice the neighbors together (the
// application-level handoff the simulator's Leave does), then silence the
// node.
func (b *bus) leave(id dht.Key) {
	m := b.nodes[id]
	succ, okS := m.LiveSuccessor()
	pred, okP := m.LivePredecessor()
	if okS && succ.ID != id {
		s := b.nodes[succ.ID]
		if okP && pred.ID != id {
			s.AdoptPredecessor(pred)
			rest := []Ref{succ}
			for _, r := range m.SuccessorList() {
				if r.ID != id && r.ID != succ.ID {
					rest = append(rest, r)
				}
			}
			b.nodes[pred.ID].AdoptSuccessors(rest)
		} else {
			s.ClearPredecessor()
		}
	}
	m.Stop()
	b.down[id] = true
}

// crash silences the node with no handoff: its neighbors must notice via
// miss accounting and repair around it.
func (b *bus) crash(id dht.Key) {
	b.nodes[id].Stop()
	b.down[id] = true
}

func (b *bus) live() []dht.Key {
	var ids []dht.Key
	for id := range b.nodes {
		if !b.down[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// oracleChain returns the n live nodes clockwise after id.
func (b *bus) oracleChain(id dht.Key, n int) []dht.Key {
	live := b.live()
	at := sort.Search(len(live), func(i int) bool { return live[i] > id })
	chain := make([]dht.Key, 0, n)
	for k := 0; k < n; k++ {
		chain = append(chain, live[(at+k)%len(live)])
	}
	return chain
}

// assertConverged checks every live machine against the live-membership
// oracle: successor lists are exactly the clockwise chain of live nodes,
// predecessors match, every long link names a live node, every probe key
// is covered by exactly the node the oracle owns it to — no key lost or
// double-owned — and every probe key routed hop by hop through NextHop
// from every live node reaches that owner.
func (b *bus) assertConverged(t *testing.T, when string) {
	t.Helper()
	live := b.live()
	want := b.cfg.SuccListLen
	if want > len(live)-1 {
		want = len(live) - 1
	}
	for _, id := range live {
		m := b.nodes[id]
		chain := b.oracleChain(id, want)
		if got := refIDs(m.SuccessorList()); !keysEqual(got, chain) {
			t.Fatalf("%s: node %d successor list %v, oracle %v", when, id, got, chain)
		}
		at := sort.Search(len(live), func(i int) bool { return live[i] >= id })
		wantPred := live[(at-1+len(live))%len(live)]
		if p, ok := m.Predecessor(); !ok || p.ID != wantPred {
			t.Fatalf("%s: node %d predecessor %v (ok=%v), oracle %d", when, id, p, ok, wantPred)
		}
		for _, r := range m.View().(*overlay.RingView).Long {
			if b.nodes[r.ID] == nil || b.down[r.ID] {
				t.Fatalf("%s: node %d long link names dead node %d", when, id, r.ID)
			}
		}
	}
	// Key ownership: probe a deterministic spread of keys (plus the edges
	// right at each node identifier) and demand exactly one covering node —
	// the oracle's successor of the key.
	var probes []dht.Key
	for i := 0; i < 64; i++ {
		probes = append(probes, dht.Key((i*997)%(1<<16)))
	}
	for _, id := range live {
		probes = append(probes, id, b.cfg.Space.Add(id, 1), b.cfg.Space.Add(id, 1<<16-1))
	}
	for _, key := range probes {
		owner := b.oracleChain(b.cfg.Space.Add(key, 1<<16-1), 1)[0] // successor(key): first live node >= key
		covered := 0
		for _, id := range live {
			if b.nodes[id].Covers(key) {
				covered++
				if id != owner {
					t.Fatalf("%s: key %d covered by %d, oracle owner %d", when, key, id, owner)
				}
			}
		}
		if covered != 1 {
			t.Fatalf("%s: key %d covered by %d nodes, want exactly 1 (owner %d)", when, key, covered, owner)
		}
	}
	// Routability.
	for _, start := range live {
		for _, key := range probes {
			owner := b.oracleChain(b.cfg.Space.Add(key, 1<<16-1), 1)[0]
			cur := start
			hops := 0
			for !b.nodes[cur].Covers(key) {
				next, ok := b.nodes[cur].NextHop(key)
				if !ok || next.ID == cur {
					t.Fatalf("%s: walk from %d for key %d stuck at %d", when, start, key, cur)
				}
				cur = next.ID
				if hops++; hops > 24 {
					t.Fatalf("%s: walk from %d for key %d did not terminate", when, start, key)
				}
			}
			if cur != owner {
				t.Fatalf("%s: key %d from %d delivered to %d, oracle owner %d", when, key, start, cur, owner)
			}
		}
	}
}

// TestChurnReconverges scripts a full churn scenario on every registered
// machine — incremental joins, a graceful leave, two simultaneous crashes
// (adjacent on the ring, exercising successor-list depth), and a late
// join — in virtual time, asserting after each phase that the ring and
// the machine's long links (fingers on Chord, the de Bruijn chain on
// Koorde) re-converge to the live-membership oracle with no lost keys and
// every key routable from every node. Runs under -race in CI (the
// determinism also means any data race found here is reproducible).
func TestChurnReconverges(t *testing.T) {
	eachMachine(t, func(t *testing.T, row machineRow) {
		eng := sim.NewEngine()
		cfg := overlay.Config{
			Space:           dht.NewSpace(16),
			SuccListLen:     4,
			StabilizeEvery:  200 * sim.Millisecond,
			FixFingersEvery: 100 * sim.Millisecond,
		}
		fac, _ := overlay.Lookup(row.name)
		b := newBus(eng, fac, cfg, 50*sim.Millisecond)

		ids := []dht.Key{1000, 9000, 17000, 25000, 33000, 41000, 49000, 57000}
		b.add(ids[0]).Create()
		eng.RunFor(sim.Second)
		for _, id := range ids[1:] {
			b.add(id).Join(Ref{ID: ids[0]}, nil)
			eng.RunFor(2 * sim.Second)
		}
		eng.RunFor(5 * sim.Second)
		b.assertConverged(t, "after joins")

		b.leave(ids[2])
		eng.RunFor(5 * sim.Second)
		b.assertConverged(t, "after graceful leave")

		// Two adjacent crashes: nodes pointing at ids[5] must rotate past
		// both bodies using the successor list alone.
		b.crash(ids[5])
		b.crash(ids[6])
		eng.RunFor(12 * sim.Second)
		b.assertConverged(t, "after adjacent crashes")

		b.add(21000).Join(Ref{ID: ids[7]}, nil)
		eng.RunFor(8 * sim.Second)
		b.assertConverged(t, "after late join")
	})
}
