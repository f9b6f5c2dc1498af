package transport

import (
	"fmt"
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
// (for Koorde) its chain-repair messages.
type parityRow struct {
	lookup func(next func(uint64) uint64, from, replyTo overlay.Ref, tok uint64, target dht.Key, ttl int) any
	own    func(next func(uint64) uint64, pick func() overlay.Ref, image dht.Key) any
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
// Neither machine runs maintenance here (no tickers are started); the
// trace is the only input, so any divergence is a real decision difference
// between the substrates, not scheduling noise. Runs under -race in CI.
func TestControlPlaneParitySimVsLive(t *testing.T) {
	for _, name := range overlay.Names() {
		row, ok := parityRows[name]
		if !ok {
			t.Fatalf("no parity row for registered machine %q", name)
		}
		t.Run(name, func(t *testing.T) { checkParity(t, name, row) })
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

	probes := []dht.Key{0, 101, 8999, 9000, 21000, 21001, 39999, 52000, 61001, 65535}
	type snap struct{ pred, succ, long, hops, covers string }
	take := func(m overlay.Machine) snap {
		var s snap
		if p, ok := m.Predecessor(); ok {
			s.pred = fmt.Sprint(p.ID)
		}
		for _, r := range m.SuccessorList() {
			s.succ += fmt.Sprint(r.ID, ",")
		}
		for _, r := range m.View().(*overlay.RingView).Long {
			s.long += fmt.Sprint(r.ID, ",")
		}
		for _, k := range probes {
			if h, ok := m.NextHop(k); ok {
				s.hops += fmt.Sprint(h.ID, ",")
			} else {
				s.hops += "-,"
			}
			s.covers += fmt.Sprint(m.Covers(k), ",")
		}
		return s
	}

	for i, msg := range trace {
		simM.Handle(msg)
		var liveSnap snap
		m := msg
		node.Do(func() {
			node.ring.Handle(m)
			liveSnap = take(node.ring)
		})
		if simSnap := take(simM); simSnap != liveSnap {
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
