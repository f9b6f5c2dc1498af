package protocol_test

import (
	"sort"
	"testing"

	"streamdex/internal/chord/protocol"
	"streamdex/internal/clock"
	"streamdex/internal/dht"
	"streamdex/internal/koorde"
	"streamdex/internal/overlay"
	"streamdex/internal/sim"
)

// The ring backbone (overlay.Ring) is shared by every registered machine,
// so its tests run once per machine through the registry. A row differs
// only in the lookup request a test injects or inspects.

type Ref = overlay.Ref

// lookup is the machine-neutral content of a lookup request.
type lookup struct {
	From    Ref
	Token   uint64
	Target  dht.Key
	TTL     int
	ReplyTo Ref
}

type machineRow struct {
	name string
	// wrap builds the machine's own lookup request; unwrap reads one back
	// (ok false for any other message).
	wrap   func(lookup) any
	unwrap func(any) (lookup, bool)
}

var machineRows = []machineRow{
	{
		name: protocol.MachineName,
		wrap: func(l lookup) any {
			return protocol.FindReq{From: l.From, Token: l.Token, Target: l.Target, TTL: l.TTL, ReplyTo: l.ReplyTo}
		},
		unwrap: func(msg any) (lookup, bool) {
			r, ok := msg.(protocol.FindReq)
			return lookup{r.From, r.Token, r.Target, r.TTL, r.ReplyTo}, ok
		},
	},
	{
		name: koorde.MachineName,
		wrap: func(l lookup) any {
			return koorde.KFindReq{From: l.From, Token: l.Token, Target: l.Target, TTL: l.TTL, ReplyTo: l.ReplyTo, Shift: koorde.ShiftNone}
		},
		unwrap: func(msg any) (lookup, bool) {
			r, ok := msg.(koorde.KFindReq)
			return lookup{r.From, r.Token, r.Target, r.TTL, r.ReplyTo}, ok
		},
	},
}

// eachMachine runs fn as one subtest per row, after checking the rows
// cover exactly the registered machines.
func eachMachine(t *testing.T, fn func(t *testing.T, row machineRow)) {
	names := overlay.Names()
	if len(names) != len(machineRows) {
		t.Fatalf("registered machines %v, test rows %d", names, len(machineRows))
	}
	for i, row := range machineRows {
		if names[i] != row.name {
			t.Fatalf("registered machines %v, row %d is %q", names, i, row.name)
		}
		t.Run(row.name, func(t *testing.T) { fn(t, row) })
	}
}

// capture records every (dest, message) pair a machine emits, standing in
// for a substrate adapter. Tests deliver replies by calling Handle directly,
// so every exchange is explicit and deterministic.
type capture struct {
	out []sent
}

type sent struct {
	to  Ref
	msg any
}

func (c *capture) send(to Ref, msg any) { c.out = append(c.out, sent{to, msg}) }

func (c *capture) lookups(row machineRow) []lookup {
	var reqs []lookup
	for _, s := range c.out {
		if l, ok := row.unwrap(s.msg); ok {
			reqs = append(reqs, l)
		}
	}
	return reqs
}

func (c *capture) reset() { c.out = c.out[:0] }

func newTestMachine(t *testing.T, row machineRow, cfg overlay.Config, id dht.Key) (overlay.Machine, *capture, *sim.Engine) {
	t.Helper()
	fac, ok := overlay.Lookup(row.name)
	if !ok {
		t.Fatalf("machine %q not registered", row.name)
	}
	eng := sim.NewEngine()
	cap := &capture{}
	if cfg.Space.M == 0 {
		cfg.Space = dht.NewSpace(16)
	}
	return fac.New(cfg, Ref{ID: id}, clock.Virtual(eng), cap.send), cap, eng
}

// TestJoinRetrySupersedesToken is the stale-token regression test: once a
// join lookup has been re-issued, a late answer to the superseded attempt
// must be counted stale and discarded — resolving it would install an
// outdated successor over the fresh answer.
func TestJoinRetrySupersedesToken(t *testing.T) {
	eachMachine(t, func(t *testing.T, row machineRow) {
		cfg := overlay.Config{
			SuccListLen:    4,
			StabilizeEvery: 100 * sim.Millisecond,
			JoinRetryEvery: 150 * sim.Millisecond,
			MissThreshold:  1, // lookup expiry = 100 ms, before the 150 ms retry
		}
		m, cap, eng := newTestMachine(t, row, cfg, 100)

		var joined []Ref
		m.Join(Ref{ID: 200}, func(succ Ref) { joined = append(joined, succ) })
		if reqs := cap.lookups(row); len(reqs) != 1 {
			t.Fatalf("join issued %d lookups, want 1", len(reqs))
		}
		tok1 := cap.lookups(row)[0].Token

		// Past the expiry (100 ms) and the first retry (150 ms): a second
		// lookup with a fresh token must be on the wire.
		eng.RunFor(160 * sim.Millisecond)
		reqs := cap.lookups(row)
		if len(reqs) != 2 {
			t.Fatalf("after expiry+retry: %d lookups, want 2", len(reqs))
		}
		tok2 := reqs[1].Token
		if tok2 == tok1 {
			t.Fatal("retry reused the superseded token")
		}

		// The fresh answer wins.
		m.Handle(overlay.FindResp{From: Ref{ID: 200}, Token: tok2, Succ: Ref{ID: 250}})
		if s, ok := m.Successor(); !ok || s.ID != 250 {
			t.Fatalf("successor after fresh answer = %v, want 250", s)
		}
		if len(joined) != 1 || joined[0].ID != 250 {
			t.Fatalf("onJoined calls = %v, want one with 250", joined)
		}

		// The late answer to the superseded attempt is stale: dropped,
		// counted, and must not disturb the installed successor.
		m.Handle(overlay.FindResp{From: Ref{ID: 200}, Token: tok1, Succ: Ref{ID: 999}})
		if s, _ := m.Successor(); s.ID != 250 {
			t.Fatalf("stale answer installed successor %d", s.ID)
		}
		if got := m.Stats().StaleFindResps; got != 1 {
			t.Fatalf("StaleFindResps = %d, want 1", got)
		}
		if len(joined) != 1 {
			t.Fatalf("stale answer re-triggered onJoined: %v", joined)
		}
	})
}

// TestJoinRetryWaitsForExpiry pins the livelock fix: when the lookup round
// trip is slower than the retry period, the retry tick must NOT cancel the
// in-flight token (that would make every answer arrive stale, forever).
func TestJoinRetryWaitsForExpiry(t *testing.T) {
	eachMachine(t, func(t *testing.T, row machineRow) {
		cfg := overlay.Config{
			SuccListLen:    4,
			StabilizeEvery: 200 * sim.Millisecond, // expiry = 3 * 200 ms
			JoinRetryEvery: 50 * sim.Millisecond,  // much faster than the lookup
		}
		m, cap, eng := newTestMachine(t, row, cfg, 100)
		m.Join(Ref{ID: 200}, nil)
		tok1 := cap.lookups(row)[0].Token

		// Several retry periods later — but still inside the expiry window —
		// the original token must be the only one issued.
		eng.RunFor(180 * sim.Millisecond)
		if reqs := cap.lookups(row); len(reqs) != 1 {
			t.Fatalf("retry cancelled an in-flight lookup: %d lookups", len(reqs))
		}
		// The slow answer still lands.
		m.Handle(overlay.FindResp{From: Ref{ID: 200}, Token: tok1, Succ: Ref{ID: 300}})
		if s, ok := m.Successor(); !ok || s.ID != 300 {
			t.Fatalf("slow answer rejected: successor=%v ok=%v", s, ok)
		}
		if got := m.Stats().StaleFindResps; got != 0 {
			t.Fatalf("StaleFindResps = %d, want 0", got)
		}
	})
}

// TestFindReqTTLExhausted: a request arriving with no TTL budget is dropped
// outright — never answered, never forwarded.
func TestFindReqTTLExhausted(t *testing.T) {
	eachMachine(t, func(t *testing.T, row machineRow) {
		m, cap, _ := newTestMachine(t, row, overlay.Config{SuccListLen: 4}, 100)
		pred := Ref{ID: 50}
		m.InstallRing(&pred, []Ref{{ID: 200}}, nil)
		req := func(tok uint64, target dht.Key, ttl int) any {
			return row.wrap(lookup{From: Ref{ID: 400}, Token: tok, Target: target, TTL: ttl, ReplyTo: Ref{ID: 400}})
		}

		m.Handle(req(7, 150, 0))
		if len(cap.out) != 0 {
			t.Fatalf("TTL=0 request produced sends: %v", cap.out)
		}
		// TTL=1 may still be *answered* (no forwarding involved) ...
		m.Handle(req(8, 150, 1))
		if len(cap.out) != 1 {
			t.Fatalf("answerable TTL=1 request: %d sends, want 1", len(cap.out))
		}
		resp, ok := cap.out[0].msg.(overlay.FindResp)
		if !ok || resp.Succ.ID != 200 || cap.out[0].to.ID != 400 {
			t.Fatalf("bad answer: %+v to %v", cap.out[0].msg, cap.out[0].to)
		}
		cap.reset()
		// ... but a TTL=1 request that would need another hop is dropped.
		m.Handle(req(9, 300, 1))
		if len(cap.out) != 0 {
			t.Fatalf("TTL=1 request was forwarded: %v", cap.out)
		}
		if got := m.Stats().FindDrops; got != 2 {
			t.Fatalf("FindDrops = %d, want 2", got)
		}
		// A forwardable request is relayed with the TTL decremented and the
		// hop-sender rewritten.
		m.Handle(req(10, 300, 5))
		if len(cap.out) != 1 {
			t.Fatalf("forwardable request: %d sends, want 1", len(cap.out))
		}
		fwd, ok := row.unwrap(cap.out[0].msg)
		if !ok || fwd.TTL != 4 || fwd.From.ID != 100 || fwd.Target != 300 || fwd.ReplyTo.ID != 400 {
			t.Fatalf("bad forward: %+v", cap.out[0].msg)
		}
	})
}

// TestMissRotation: unanswered stabilize rounds rotate the successor list
// and eventually drop an unresponsive predecessor, with every step counted.
func TestMissRotation(t *testing.T) {
	eachMachine(t, func(t *testing.T, row machineRow) {
		cfg := overlay.Config{
			SuccListLen:    4,
			StabilizeEvery: 100 * sim.Millisecond,
			MissThreshold:  2,
		}
		m, cap, eng := newTestMachine(t, row, cfg, 100)
		pred := Ref{ID: 50}
		m.InstallRing(&pred, []Ref{{ID: 200}, {ID: 300}}, nil)
		m.StartMaintenance()

		// Two silent rounds: the head is presumed dead and rotated out, and
		// the silent predecessor is cleared.
		eng.RunFor(250 * sim.Millisecond)
		if s, _ := m.Successor(); s.ID != 300 {
			t.Fatalf("successor after rotation = %d, want 300", s.ID)
		}
		if _, ok := m.Predecessor(); ok {
			t.Fatal("silent predecessor survived the miss threshold")
		}
		st := m.Stats()
		if st.SuccRotations != 1 || st.PredDrops != 1 || st.StabilizeMisses != 2 || st.StabilizeRounds != 2 {
			t.Fatalf("stats = %+v", st)
		}
		// The machine probes the rotated-in successor from then on.
		last := cap.out[len(cap.out)-1]
		if req, ok := last.msg.(overlay.StabReq); !ok || last.to.ID != 300 || req.From.ID != 100 {
			t.Fatalf("last send = %+v to %v, want StabReq to 300", last.msg, last.to)
		}
	})
}

// TestStabilizeAdoptsCloserSuccessor: the successor's predecessor, when it
// lies between us and the successor, becomes the new successor (the core
// stabilize rule) and is notified.
func TestStabilizeAdoptsCloserSuccessor(t *testing.T) {
	eachMachine(t, func(t *testing.T, row machineRow) {
		m, cap, _ := newTestMachine(t, row, overlay.Config{SuccListLen: 4}, 100)
		m.InstallRing(nil, []Ref{{ID: 300}}, nil)

		m.Handle(overlay.StabResp{
			From:     Ref{ID: 300},
			HasPred:  true,
			Pred:     Ref{ID: 200},
			SuccList: []Ref{{ID: 300}, {ID: 400}},
		})
		want := []dht.Key{200, 300, 400}
		if got := refIDs(m.SuccessorList()); !keysEqual(got, want) {
			t.Fatalf("successor list = %v, want ids %v", got, want)
		}
		last := cap.out[len(cap.out)-1]
		if _, ok := last.msg.(overlay.Notify); !ok || last.to.ID != 200 {
			t.Fatalf("last send = %+v to %v, want Notify to 200", last.msg, last.to)
		}
		// A StabResp from a node that is no longer the successor is ignored.
		m.Handle(overlay.StabResp{From: Ref{ID: 300}, SuccList: []Ref{{ID: 300}}})
		if s, _ := m.Successor(); s.ID != 200 {
			t.Fatalf("stale StabResp reinstalled %d", s.ID)
		}
	})
}

// TestNotifyRule: a notify installs the sender as predecessor only when it
// improves on the current one.
func TestNotifyRule(t *testing.T) {
	eachMachine(t, func(t *testing.T, row machineRow) {
		m, _, _ := newTestMachine(t, row, overlay.Config{SuccListLen: 4}, 100)
		m.InstallRing(nil, []Ref{{ID: 300}}, nil)

		m.Handle(overlay.Notify{From: Ref{ID: 150}})
		if p, ok := m.Predecessor(); !ok || p.ID != 150 {
			t.Fatalf("first notify: pred=%v ok=%v", p, ok)
		}
		m.Handle(overlay.Notify{From: Ref{ID: 120}}) // not between (150, 100): keep
		if p, _ := m.Predecessor(); p.ID != 150 {
			t.Fatalf("farther notify replaced pred: %d", p.ID)
		}
		m.Handle(overlay.Notify{From: Ref{ID: 180}}) // between (150, 100): adopt
		if p, _ := m.Predecessor(); p.ID != 180 {
			t.Fatalf("closer notify ignored: %d", p.ID)
		}
	})
}

// checkViewParity asserts the published View makes exactly the machine's
// routing decisions (the machines under test never install an alive
// filter, so unfiltered parity is the contract).
func checkViewParity(t *testing.T, m overlay.Machine, keys []dht.Key) {
	t.Helper()
	v, _ := m.View().(*overlay.RingView)
	if v == nil {
		t.Fatal("machine never published a view")
	}
	if v.Self != m.Self() {
		t.Fatalf("view self = %+v, machine self = %+v", v.Self, m.Self())
	}
	if v.Joined() != m.Joined() {
		t.Fatalf("view joined = %v, machine joined = %v", v.Joined(), m.Joined())
	}
	mp, mok := m.Predecessor()
	vp, vok := v.Predecessor()
	if mok != vok || (mok && mp.ID != vp.ID) {
		t.Fatalf("view pred = %+v/%v, machine pred = %+v/%v", vp, vok, mp, mok)
	}
	ms, msok := m.Successor()
	vs, vsok := v.Successor()
	if msok != vsok || (msok && ms.ID != vs.ID) {
		t.Fatalf("view succ = %+v/%v, machine succ = %+v/%v", vs, vsok, ms, msok)
	}
	if got, want := len(v.Succs), len(m.SuccessorList()); got != want {
		t.Fatalf("view succ list len = %d, machine = %d", got, want)
	}
	if got, want := len(v.Long), m.LonglinkCount(); got != want {
		t.Fatalf("view long links = %d, machine = %d", got, want)
	}
	for _, k := range keys {
		if gv, gm := v.Covers(k), m.Covers(k); gv != gm {
			t.Fatalf("Covers(%d): view %v, machine %v", k, gv, gm)
		}
		vh, vhok := v.NextHop(k)
		mh, mhok := m.NextHop(k)
		if vhok != mhok || (vhok && vh.ID != mh.ID) {
			t.Fatalf("NextHop(%d): view %+v/%v, machine %+v/%v", k, vh, vhok, mh, mhok)
		}
		vc, vcok := v.ClosestPreceding(k)
		mc, mcok := m.ClosestPreceding(k)
		if vcok != mcok || (vcok && vc.ID != mc.ID) {
			t.Fatalf("ClosestPreceding(%d): view %+v/%v, machine %+v/%v", k, vc, vcok, mc, mcok)
		}
	}
}

// TestViewMirrorsMachine drives a machine through its mutation surfaces —
// construction, warm start, stabilize adoption, notify, rotation, splices —
// and checks after each step that the lock-free View routes bit-for-bit
// like the machine's own accessors; then it does the same for every node
// of a 64-node warm ring with the factory's perfect long links.
func TestViewMirrorsMachine(t *testing.T) {
	eachMachine(t, func(t *testing.T, row machineRow) {
		keys := []dht.Key{0, 1, 50, 99, 100, 101, 150, 200, 201, 299, 300, 400, 500, 65535}

		cfg := overlay.Config{
			SuccListLen:    4,
			StabilizeEvery: 100 * sim.Millisecond,
			MissThreshold:  2,
		}
		m, _, eng := newTestMachine(t, row, cfg, 100)
		checkViewParity(t, m, keys) // fresh, un-joined machine

		pred := Ref{ID: 50}
		m.InstallRing(&pred, []Ref{{ID: 200}, {ID: 300}}, []Ref{{ID: 200}, {ID: 200}, {ID: 300}})
		checkViewParity(t, m, keys)

		// Stabilize adoption rebuilds the successor list (and, on Chord,
		// finger[0]).
		m.Handle(overlay.StabResp{
			From: Ref{ID: 200}, HasPred: true, Pred: Ref{ID: 150},
			SuccList: []Ref{{ID: 200}, {ID: 300}, {ID: 400}},
		})
		checkViewParity(t, m, keys)

		// Notify moves the predecessor.
		m.Handle(overlay.Notify{From: Ref{ID: 99}})
		checkViewParity(t, m, keys)

		// Silent rounds rotate the successor and drop the predecessor.
		m.StartMaintenance()
		eng.RunFor(250 * sim.Millisecond)
		checkViewParity(t, m, keys)

		// Graceful-leave splices.
		m.AdoptPredecessor(Ref{ID: 42})
		checkViewParity(t, m, keys)
		m.AdoptSuccessors([]Ref{{ID: 500}, {ID: 42}})
		checkViewParity(t, m, keys)
		m.ClearPredecessor()
		checkViewParity(t, m, keys)

		// Create on a fresh machine publishes the one-node ring.
		m2, _, _ := newTestMachine(t, row, overlay.Config{SuccListLen: 4}, 7)
		m2.Create()
		checkViewParity(t, m2, keys)

		// Every node of a warm ring.
		space := dht.NewSpace(16)
		ids := spreadIDs(space, 64)
		fac, _ := overlay.Lookup(row.name)
		wcfg := overlay.Config{Space: space, SuccListLen: 8}
		var probes []dht.Key
		for p := 0; p < 64; p++ {
			probes = append(probes, dht.Key((p*1021)%(1<<16)))
		}
		clk := clock.Virtual(sim.NewEngine())
		for i, id := range ids {
			w := fac.New(wcfg, Ref{ID: id}, clk, func(Ref, any) {})
			pred := Ref{ID: ids[(i-1+len(ids))%len(ids)]}
			var succs []Ref
			for k := 1; k <= 8; k++ {
				succs = append(succs, Ref{ID: ids[(i+k)%len(ids)]})
			}
			w.InstallRing(&pred, succs, fac.Longlinks(wcfg, ids, id))
			if w.LonglinkCount() == 0 {
				t.Fatalf("node %d: warm start installed no long links", id)
			}
			checkViewParity(t, w, probes)
		}
	})
}

// spreadIDs draws n distinct sorted identifiers from a fixed LCG, so the
// rows do not depend on math/rand's version.
func spreadIDs(space dht.Space, n int) []dht.Key {
	r := uint64(0xabcd)
	seen := make(map[dht.Key]bool, n)
	ids := make([]dht.Key, 0, n)
	for len(ids) < n {
		r = r*6364136223846793005 + 1442695040888963407
		id := space.Wrap(dht.Key(r >> 33))
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func refIDs(rs []Ref) []dht.Key {
	ids := make([]dht.Key, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}

func keysEqual(a, b []dht.Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
