package transport

import (
	"fmt"
	"io"
	"net"
	"regexp"
	"testing"

	"streamdex/internal/chord"
	"streamdex/internal/chord/protocol"
	"streamdex/internal/dht"
	"streamdex/internal/koorde"
	"streamdex/internal/metrics"
	"streamdex/internal/overlay"
	"streamdex/internal/sim"
)

// parityRow is one machine's share of the parity trace: its own lookup
// request, built from random walk state where the machine has any, and
// (for Koorde) its chain-repair messages, including the neighbourhood
// answer that completes a joiner's chain.
type parityRow struct {
	lookup func(next func(uint64) uint64, from, replyTo overlay.Ref, tok uint64, target dht.Key, ttl int) any
	own    func(next func(uint64) uint64, pick func() overlay.Ref, image dht.Key) any
	// linkAnswer is the reply that completes the long links a join's
	// lookups started (nil when the lookup answers alone complete them).
	linkAnswer func(from, pred overlay.Ref, succs []overlay.Ref) any
}

var parityRows = map[string]parityRow{
	protocol.MachineName: {
		lookup: func(_ func(uint64) uint64, from, replyTo overlay.Ref, tok uint64, target dht.Key, ttl int) any {
			return protocol.FindReq{From: from, Token: tok, Target: target, TTL: ttl, ReplyTo: replyTo}
		},
	},
	koorde.MachineName: {
		lookup: func(next func(uint64) uint64, from, replyTo overlay.Ref, tok uint64, target dht.Key, ttl int) any {
			req := koorde.KFindReq{From: from, Token: tok, Target: target, TTL: ttl, ReplyTo: replyTo}
			switch next(3) {
			case 0:
				req.Shift = koorde.ShiftNone // unanchored
			case 1:
				req.I, req.Shift = dht.Key(next(1<<16)), uint8(next(4)) // mid-walk
			case 2:
				req.I, req.Shift = req.Target, 0 // exhausted
			}
			return req
		},
		own: func(next func(uint64) uint64, pick func() overlay.Ref, image dht.Key) any {
			switch next(4) {
			case 0:
				return koorde.KDListReq{From: pick()}
			case 1:
				dr := koorde.KDListResp{From: pick(), SuccList: []overlay.Ref{pick(), pick(), pick()}}
				if next(2) == 0 {
					dr.HasPred, dr.Pred = true, pick()
				}
				return dr
			case 2:
				return koorde.KStabReq{From: pick(), Chain: true, Image: dht.Key(next(1 << 16))}
			default:
				// A chain-probe answer, usually for the image the node
				// chases (a patch), sometimes for a stale one.
				cr := koorde.KStabResp{From: pick(), Chain: true, Image: image, SuccList: []overlay.Ref{pick(), pick(), pick()}}
				if next(4) == 0 {
					cr.Image = dht.Key(next(1 << 16))
				}
				if next(2) == 0 {
					cr.HasPred, cr.Pred = true, pick()
				}
				return cr
			}
		},
		linkAnswer: func(from, pred overlay.Ref, succs []overlay.Ref) any {
			return koorde.KDListResp{From: from, HasPred: true, Pred: pred, SuccList: succs}
		},
	},
}

// TestControlPlaneParitySimVsLive is the one-control-plane acceptance test,
// run for every registered machine: a simulated node and a live transport
// node are two adapters around the same machine, so when both start from
// the identical ring snapshot (predecessor, successor list, long links)
// and consume the identical control-message trace — lookups in the
// machine's own request type (Koorde's in fresh, mid-walk and exhausted
// walk states), stale find answers, stabilize exchanges, notifies, pings,
// and Koorde's chain probes and KDList repairs — they must make
// bit-for-bit identical decisions — predecessor, successor list, long
// links, next-hop choice and key coverage — after every single message.
//
// A second, scripted trace grows the ring around the node: a join into a
// one-node ring, a join of the node itself, joins that displace its
// predecessor and a late notify from the displaced one. There both hosts
// must also make the same sends, message for message.
//
// Neither machine runs maintenance here (no tickers fire); the trace is
// the only input, so any divergence is a real decision difference between
// the substrates, not scheduling noise. Runs under -race in CI.
func TestControlPlaneParitySimVsLive(t *testing.T) {
	for _, name := range overlay.Names() {
		row, ok := parityRows[name]
		if !ok {
			t.Fatalf("no parity row for registered machine %q", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Run("trace", func(t *testing.T) { checkParity(t, name, row) })
			t.Run("joins", func(t *testing.T) { checkJoinParity(t, name, row) })
		})
	}
}

func checkParity(t *testing.T, name string, row parityRow) {
	space := dht.NewSpace(16)
	ids := []dht.Key{100, 9000, 21000, 40000, 61000}

	// Simulated side: a converged 5-node ring; we adopt the middle node's
	// machine. The engine is never run, so the trace below is its sole
	// stimulus.
	eng := sim.NewEngine()
	net := chord.New(eng, chord.Config{Space: space, HopDelay: sim.Millisecond, SuccListLen: 4, Machine: name})
	net.BuildStable(ids, nil)
	simM := net.Node(ids[2]).Machine()

	// Live side: one real transport node with the same identifier and
	// machine, given the same ring snapshot. Maintenance is configured but
	// never started (InstallRing does not start tickers), so it too sees
	// only the trace.
	node, err := New(Config{
		ID: ids[2], Listen: "127.0.0.1:0", Space: space,
		StabilizeEvery: 500_000, FixFingersEvery: 250_000, SuccListLen: 4,
		Machine: name,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	var pred *overlay.Ref
	if p, ok := simM.Predecessor(); ok {
		pred = &p
	}
	succList := simM.SuccessorList()
	long := simM.View().(*overlay.RingView).Long
	if len(long) == 0 {
		t.Fatal("sim long links unpopulated after BuildStable")
	}
	node.Do(func() { node.ring.InstallRing(pred, succList, long) })

	// Deterministic trace over ring-member refs.
	members := make([]overlay.Ref, len(ids))
	for i, id := range ids {
		members[i] = overlay.Ref{ID: id}
	}
	rnd := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return (rnd >> 33) % n
	}
	pick := func() overlay.Ref { return members[next(5)] }
	image := space.Wrap(ids[2] * koorde.Degree)
	kinds := uint64(6)
	if row.own != nil {
		kinds++
	}
	var trace []any
	for i := 0; i < 200; i++ {
		switch next(kinds) {
		case 0:
			from, tok := pick(), 1000+uint64(i)
			target, ttl := dht.Key(next(1<<16)), int(next(8))
			trace = append(trace, row.lookup(next, from, pick(), tok, target, ttl))
		case 1:
			trace = append(trace, overlay.FindResp{From: pick(), Token: next(2000), Succ: pick()})
		case 2:
			trace = append(trace, overlay.StabReq{From: pick()})
		case 3:
			sr := overlay.StabResp{From: pick(), SuccList: []overlay.Ref{pick(), pick(), pick()}}
			if next(2) == 0 {
				sr.HasPred, sr.Pred = true, pick()
			}
			trace = append(trace, sr)
		case 4:
			trace = append(trace, overlay.Notify{From: pick()})
		case 5:
			if next(2) == 0 {
				trace = append(trace, overlay.PingReq{From: pick()})
			} else {
				trace = append(trace, overlay.PingResp{From: pick()})
			}
		case 6:
			trace = append(trace, row.own(next, pick, image))
		}
	}

	for i, msg := range trace {
		simM.Handle(msg)
		var liveSnap paritySnap
		m := msg
		node.Do(func() {
			node.ring.Handle(m)
			liveSnap = takeSnap(node.ring)
		})
		if simSnap := takeSnap(simM); simSnap != liveSnap {
			t.Fatalf("divergence after message %d (%T):\n sim  %+v\n live %+v", i, msg, simSnap, liveSnap)
		}
	}

	// The maintenance counters the trace exercised must agree too.
	var liveStats metrics.Ring
	node.Do(func() { liveStats = node.ring.Stats() })
	if simStats := simM.Stats(); simStats != liveStats {
		t.Fatalf("stats diverged:\n sim  %+v\n live %+v", simStats, liveStats)
	}
	if liveStats.Machine != name {
		t.Fatalf("stats carry machine %q, want %q", liveStats.Machine, name)
	}
	if liveStats.StaleFindResps == 0 || liveStats.FindDrops == 0 {
		t.Fatalf("trace failed to exercise stale answers and TTL drops: %+v", liveStats)
	}
	if row.own != nil && liveStats.FingerRepairs == 0 {
		t.Fatalf("trace failed to exercise long-link repairs: %+v", liveStats)
	}
}

// paritySnap is the decision state compared between the hosts:
// predecessor, successor list, long links, and the next hop and coverage
// of a fixed set of probe keys.
type paritySnap struct{ pred, succ, long, hops, covers string }

var parityProbes = []dht.Key{0, 101, 8999, 9000, 21000, 21001, 39999, 52000, 61001, 65535}

func takeSnap(m overlay.Machine) paritySnap {
	var s paritySnap
	if p, ok := m.Predecessor(); ok {
		s.pred = fmt.Sprint(p.ID)
	}
	for _, r := range m.SuccessorList() {
		s.succ += fmt.Sprint(r.ID, ",")
	}
	for _, r := range m.View().(*overlay.RingView).Long {
		s.long += fmt.Sprint(r.ID, ",")
	}
	for _, k := range parityProbes {
		if h, ok := m.NextHop(k); ok {
			s.hops += fmt.Sprint(h.ID, ",")
		} else {
			s.hops += "-,"
		}
		s.covers += fmt.Sprint(m.Covers(k), ",")
	}
	return s
}

// sendLog records the control messages one node sends, Addr fields
// stripped: the simulator's refs carry none, the live node's own ref does.
type sendLog struct {
	from dht.Key
	out  []string
}

var addrField = regexp.MustCompile(` ?Addr:[^ }]*`)

func (l *sendLog) OnTransmit(from, to dht.Key, msg *dht.Message) {
	if from == l.from && msg.Kind == overlay.KindRing {
		l.out = append(l.out, addrField.ReplaceAllString(fmt.Sprintf("%d %T%+v", to, msg.Payload, msg.Payload), ""))
	}
}

func (l *sendLog) OnDeliver(dht.Key, *dht.Message) {}

func (l *sendLog) take() []string {
	out := l.out
	l.out = nil
	return out
}

// checkJoinParity grows the ring around node 21000 on both hosts through
// two scripted traces — one from a one-node ring, one from the node's own
// join — and requires identical sends and state after every message and
// the expected number of join-time sends. The
// other ring members are simulator nodes with stopped machines, so the
// simulated network delivers (and shows) every send without answering it;
// the live node sends to a listener that discards everything.
func checkJoinParity(t *testing.T, name string, row parityRow) {
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	go func() {
		for {
			c, err := sink.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, c); c.Close() }()
		}
	}()
	ref := func(id dht.Key) overlay.Ref { return overlay.Ref{ID: id, Addr: sink.Addr().String()} }

	const self = dht.Key(21000)
	members := []dht.Key{100, 9000, 15000, 40000, 61000}
	space := dht.NewSpace(16)
	hop := sim.Millisecond

	for _, sc := range []struct {
		name string
		// lone starts the node as a one-node ring; otherwise it joins
		// through members[0].
		lone  bool
		trace []any
		// steps is how many join-time messages the trace makes the node
		// send (metrics.Ring.JoinSteps).
		steps uint64
	}{
		{
			name: "into-lone-node",
			lone: true,
			trace: []any{
				// 40000 joins through us: its lookup, then its probe. We
				// adopt it as predecessor and, being alone, as successor.
				row.lookup(func(uint64) uint64 { return 0 }, ref(40000), ref(40000), 7, 40000, 8),
				overlay.StabReq{From: ref(40000)},
				overlay.StabResp{From: ref(40000), SuccList: []overlay.Ref{ref(self)}},
				overlay.Notify{From: ref(40000)},
				// 15000 joins between 40000 and us: it displaces our live
				// predecessor, which is told at once.
				overlay.StabReq{From: ref(15000)},
				overlay.Notify{From: ref(15000)},
				overlay.StabResp{From: ref(40000), HasPred: true, Pred: ref(self), SuccList: []overlay.Ref{ref(self)}},
				// A notify 40000 sent before it heard: told again.
				overlay.Notify{From: ref(40000)},
			},
			steps: 3,
		},
		{
			name: "self-joins",
			trace: func() []any {
				tr := []any{
					// The join answer: probe the successor at once and
					// start the long links.
					overlay.FindResp{From: ref(9000), Token: 1, Succ: ref(40000)},
					overlay.StabResp{From: ref(40000), HasPred: true, Pred: ref(9000), SuccList: []overlay.Ref{ref(61000), ref(100), ref(9000)}},
					overlay.Notify{From: ref(9000)},
				}
				// Answers to the long-link lookups (tokens past the
				// join's; the ones already resolved locally are stale).
				for tok := uint64(2); tok < 2+uint64(space.M); tok++ {
					tr = append(tr, overlay.FindResp{From: ref(40000), Token: tok, Succ: ref(members[tok%uint64(len(members))])})
				}
				if row.linkAnswer != nil {
					tr = append(tr, row.linkAnswer(ref(9000), ref(100), []overlay.Ref{ref(self), ref(40000), ref(61000)}))
				}
				return append(tr,
					// 15000 joins between our predecessor and us.
					overlay.StabReq{From: ref(15000)},
					overlay.Notify{From: ref(15000)},
					overlay.StabResp{From: ref(40000), HasPred: true, Pred: ref(self), SuccList: []overlay.Ref{ref(61000), ref(100), ref(9000)}},
					// 9000's notify overtaken by the join: it hears of
					// 15000 again.
					overlay.Notify{From: ref(9000)},
				)
			}(),
			steps: 3,
		},
	} {
		t.Run(sc.name, func(t *testing.T) {
			// Simulated host: every member's machine stopped.
			eng := sim.NewEngine()
			simNet := chord.New(eng, chord.Config{Space: space, HopDelay: hop, SuccListLen: 4, Machine: name})
			simLog := &sendLog{from: self}
			simNet.SetObserver(simLog)
			ring := members
			if sc.lone {
				ring = append(append([]dht.Key(nil), members...), self)
			}
			simNet.BuildStable(ring, nil)
			for _, id := range members {
				simNet.Node(id).Machine().Stop()
			}

			// Live host: periods of an hour, so no ticker fires.
			const hour = int64(3600_000_000)
			node, err := New(Config{
				ID: self, Listen: "127.0.0.1:0", Space: space,
				StabilizeEvery: hour, FixFingersEvery: hour, SuccListLen: 4,
				Machine: name,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer node.Close()
			liveLog := &sendLog{from: self}
			node.SetObserver(liveLog)

			var simM overlay.Machine
			if sc.lone {
				simM = simNet.Node(self).Machine()
				alone := overlay.Ref{ID: self}
				simM.InstallRing(&alone, []overlay.Ref{alone}, []overlay.Ref{})
				node.Do(func() {
					me := node.ring.Self()
					node.ring.InstallRing(&me, []overlay.Ref{me}, []overlay.Ref{})
				})
			} else {
				n, err := simNet.Join(self, nil, members[0])
				if err != nil {
					t.Fatal(err)
				}
				simM = n.Machine()
				node.Do(func() { node.ring.Join(ref(members[0]), nil) })
			}
			check := func(step string) {
				t.Helper()
				eng.RunFor(hop)
				var live []string
				var liveSnap paritySnap
				node.Do(func() {
					live = liveLog.take()
					liveSnap = takeSnap(node.ring)
				})
				if sim := simLog.take(); fmt.Sprint(sim) != fmt.Sprint(live) {
					t.Fatalf("sends diverged after %s:\n sim  %q\n live %q", step, sim, live)
				}
				if simSnap := takeSnap(simM); simSnap != liveSnap {
					t.Fatalf("state diverged after %s:\n sim  %+v\n live %+v", step, simSnap, liveSnap)
				}
			}
			check("the start")
			for i, msg := range sc.trace {
				simM.Handle(msg)
				m := msg
				node.Do(func() { node.ring.Handle(m) })
				check(fmt.Sprintf("message %d (%T)", i, msg))
			}

			var liveStats metrics.Ring
			node.Do(func() { liveStats = node.ring.Stats() })
			if simStats := simM.Stats(); simStats != liveStats {
				t.Fatalf("stats diverged:\n sim  %+v\n live %+v", simStats, liveStats)
			}
			if liveStats.JoinSteps != sc.steps {
				t.Fatalf("trace made %d join-time sends, want %d", liveStats.JoinSteps, sc.steps)
			}
			// The trace ends converged around us: 15000 precedes us, 40000
			// follows, and the node holds long links.
			if p, ok := simM.Predecessor(); !ok || p.ID != 15000 {
				t.Fatalf("predecessor %v (ok=%v), want 15000", p, ok)
			}
			if s, ok := simM.Successor(); !ok || s.ID != 40000 {
				t.Fatalf("successor %v (ok=%v), want 40000", s, ok)
			}
			if !sc.lone && simM.LonglinkCount() == 0 {
				t.Fatal("joined node holds no long links")
			}
		})
	}
}
