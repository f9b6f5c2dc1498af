package experiments

// Head-to-head routing-machine comparison: the same simulated substrate,
// the same identifier placement, the same workload — once per ring
// machine with membership dynamics. Where ablation A7 (Substrates)
// compares the middleware on the Chord and static Pastry machines, this
// experiment compares the two machines with maintenance (Chord's finger
// routing vs. Koorde's de Bruijn walk) on the three axes the substrate-neutral refactor is
// supposed to leave machine-specific:
//
//   - lookup cost: control-plane request forwards per resolved
//     FindSuccessor on a warm ring (maintenance off, so every observed
//     KindRing transmission belongs to a lookup),
//   - maintenance bandwidth: KindRing bytes per node per second with the
//     periodic stabilize/repair tasks running,
//   - range-multicast dissemination: transmissions and virtual time to
//     the last delivery of a tree-mode SendRange, whose fan-out set is
//     the machine's own routing entries (fingers vs. de Bruijn chain).
//
// Koorde's claim (Kaashoek & Karger, IPTPS 2003) is fewer lookup hops per
// routing-table entry: degree-16 de Bruijn links resolve in ~log16(N)
// digit injections against Chord's ~½log2(N) finger strides.
// TestHeadToHeadGates holds this experiment to that claim at the paper's
// largest size.

import (
	"fmt"
	"sort"

	"streamdex/internal/chord"
	"streamdex/internal/dht"
	// Register the Koorde machine so Config.Machine can name it.
	_ "streamdex/internal/koorde"
	"streamdex/internal/overlay"
	"streamdex/internal/sim"
)

// HeadToHeadMachines are the ring machines the head-to-head runs, in
// report order. Chord first: it is the baseline the gate compares against.
var HeadToHeadMachines = []string{"chord", "koorde"}

// HeadToHeadRow is one (size, machine) measurement.
type HeadToHeadRow struct {
	Nodes   int
	Machine string
	// Lookups is the number of FindSuccessor calls measured; every one
	// resolved to the membership oracle's owner (enforced, not sampled).
	Lookups int
	// LookupMeanHops / LookupP99Hops count control-plane request forwards
	// per lookup (the response transmission is excluded).
	LookupMeanHops float64
	LookupP99Hops  float64
	// MaintBytesPerNodeSec is KindRing bytes per node per virtual second
	// with periodic maintenance running on a converged ring.
	MaintBytesPerNodeSec float64
	// MulticastMsgs / MulticastLastMs are per tree-mode range multicast
	// over one eighth of the keyspace: transmissions used, and virtual
	// milliseconds from send to the last delivery.
	MulticastMsgs   float64
	MulticastLastMs float64
	// Longlinks is the mean long-distance routing entries per node
	// (fingers on Chord, de Bruijn chain on Koorde) — the table-size side
	// of the hops-per-state trade.
	Longlinks float64
	// ChurnRepairBytesPerNodeSec is KindRing bytes per surviving node per
	// virtual second while the ring reconverges after one tenth of the
	// nodes crash simultaneously — the repair-traffic side of the
	// piggybacked pointer-repair trade.
	ChurnRepairBytesPerNodeSec float64
	// ChurnLookupOK is the fraction of lookups issued during that
	// convergence window that resolved to the live membership oracle's
	// owner within their step of the window.
	ChurnLookupOK float64
}

// ringObserver counts control-plane traffic and data-plane deliveries.
type ringObserver struct {
	now       func() sim.Time
	probeKind dht.Kind

	ringMsgs  int64
	ringBytes int64

	probeMsgs int64
	delivered int64
	lastAt    sim.Time
}

func (o *ringObserver) OnTransmit(from, to dht.Key, msg *dht.Message) {
	switch msg.Kind {
	case overlay.KindRing:
		o.ringMsgs++
		o.ringBytes += int64(msg.Bytes)
	case o.probeKind:
		o.probeMsgs++
	}
}

func (o *ringObserver) OnDeliver(at dht.Key, msg *dht.Message) {
	if msg.Kind == o.probeKind {
		o.delivered++
		o.lastAt = o.now()
	}
}

// headToHeadProbe tags the multicast probe messages; any kind unused by
// the middleware works, the simulator routes on the envelope alone.
const headToHeadProbe dht.Kind = 240

// headToHeadLookups is the default per-row lookup count.
const headToHeadLookups = 512

// HeadToHead measures every machine in HeadToHeadMachines at every size,
// all rows deterministic for a fixed seed. lookups <= 0 selects the
// default count.
func HeadToHead(sizes []int, seed int64, lookups, workers int) ([]HeadToHeadRow, error) {
	if lookups <= 0 {
		lookups = headToHeadLookups
	}
	type res struct {
		row HeadToHeadRow
		err error
	}
	var jobs []func() res
	for _, n := range sizes {
		for _, machine := range HeadToHeadMachines {
			n, machine := n, machine
			jobs = append(jobs, func() res {
				row, err := headToHeadOne(n, machine, seed, lookups)
				return res{row: row, err: err}
			})
		}
	}
	var rows []HeadToHeadRow
	for _, r := range Parallel(workers, jobs) {
		if r.err != nil {
			return nil, r.err
		}
		rows = append(rows, r.row)
	}
	return rows, nil
}

// headToHeadOne runs the three phases for one (size, machine) pair. Each
// phase builds its own engine so measurements cannot bleed into each
// other: lookups and multicasts run with maintenance off (every control
// transmission is attributable), bandwidth runs with maintenance on.
func headToHeadOne(n int, machine string, seed int64, lookups int) (HeadToHeadRow, error) {
	space := dht.NewSpace(32)
	ids := chord.SortKeys(chord.UniformIDs(space, n))
	row := HeadToHeadRow{Nodes: n, Machine: machine, Lookups: lookups}

	quiet := chord.Config{Space: space, HopDelay: 50 * sim.Millisecond, SuccListLen: 8, Machine: machine}

	// Phase 1: lookup hops on a warm, quiescent ring. Each lookup runs to
	// completion (the engine drains between calls), so the transmission
	// delta is exactly that lookup's forwards plus its one response.
	{
		eng := sim.NewEngine()
		net := chord.New(eng, quiet)
		obs := &ringObserver{now: eng.Now, probeKind: headToHeadProbe}
		net.SetObserver(obs)
		net.BuildStable(ids, nil)

		var links int64
		for _, id := range ids {
			links += int64(net.Node(id).Machine().LonglinkCount())
		}
		row.Longlinks = float64(links) / float64(n)

		rng := uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		next := func() uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return rng >> 11
		}
		hops := make([]float64, 0, lookups)
		for i := 0; i < lookups; i++ {
			origin := ids[next()%uint64(n)]
			target := space.Wrap(dht.Key(next()))
			before := obs.ringMsgs
			resolved := false
			var got dht.Key
			net.Node(origin).Machine().FindSuccessor(target, func(s overlay.Ref) {
				resolved = true
				got = s.ID
			})
			eng.Run()
			if !resolved {
				return row, fmt.Errorf("%s/%d nodes: lookup %d from %d for key %d did not resolve", machine, n, i, origin, target)
			}
			want, _ := net.OracleSuccessor(target)
			if got != want {
				return row, fmt.Errorf("%s/%d nodes: lookup for key %d resolved to %d, oracle owner is %d", machine, n, target, got, want)
			}
			// The delta includes the single response transmission — except
			// when the origin covered the key itself and answered locally.
			delta := obs.ringMsgs - before
			if delta > 0 {
				delta--
			}
			hops = append(hops, float64(delta))
		}
		row.LookupMeanHops = mean(hops)
		row.LookupP99Hops = percentile(hops, 0.99)
	}

	// Phase 2: maintenance bandwidth with the periodic tasks running.
	{
		cfg := quiet
		cfg.StabilizeEvery = 500 * sim.Millisecond
		cfg.FixFingersEvery = 250 * sim.Millisecond
		eng := sim.NewEngine()
		net := chord.New(eng, cfg)
		obs := &ringObserver{now: eng.Now, probeKind: headToHeadProbe}
		net.SetObserver(obs)
		net.BuildStable(ids, nil)

		eng.RunUntil(5 * sim.Second) // settle the staggered tickers
		base := obs.ringBytes
		const window = 20 * sim.Second
		eng.RunFor(window)
		row.MaintBytesPerNodeSec = float64(obs.ringBytes-base) / float64(n) / (float64(window) / float64(sim.Second))
	}

	// Phase 3: tree-mode range multicast over one eighth of the keyspace,
	// averaged over several origins.
	{
		eng := sim.NewEngine()
		net := chord.New(eng, quiet)
		obs := &ringObserver{now: eng.Now, probeKind: headToHeadProbe}
		net.SetObserver(obs)
		// Every node keeps the dissemination going, as the middleware's
		// Deliver does; the tree fan-out set is the machine's own routing
		// entries (dht.Neighbors).
		apps := make([]dht.App, len(ids))
		for i := range apps {
			apps[i] = dht.AppFunc(func(at dht.Key, msg *dht.Message) {
				dht.ContinueRange(net, at, msg, 1)
			})
		}
		net.BuildStable(ids, apps)

		const casts = 8
		span := space.Size()/8 - 1
		var msgs, lastMs float64
		for c := 0; c < casts; c++ {
			origin := ids[(c*len(ids))/casts]
			lo := space.Add(origin, 1)
			hi := space.Add(lo, span)
			preMsgs, preDeliv := obs.probeMsgs, obs.delivered
			t0 := eng.Now()
			dht.SendRange(net, origin, lo, hi, &dht.Message{Kind: headToHeadProbe}, dht.RangeTree)
			eng.Run()
			if obs.delivered == preDeliv {
				return row, fmt.Errorf("%s/%d nodes: multicast from %d delivered nothing", machine, n, origin)
			}
			msgs += float64(obs.probeMsgs - preMsgs)
			lastMs += float64(obs.lastAt-t0) / float64(sim.Millisecond)
		}
		row.MulticastMsgs = msgs / casts
		row.MulticastLastMs = lastMs / casts
	}

	// Phase 4: scripted churn. One tenth of the ring crashes at once on a
	// converged, maintained ring; the convergence window then measures the
	// machine's repair traffic and its lookup availability while pointers
	// heal. Lookups interleave with the repair tasks in virtual time, so a
	// machine that floods repairs or one that leaves its chain stale both
	// show up — the first in bytes, the second in failed lookups.
	{
		cfg := quiet
		cfg.StabilizeEvery = 500 * sim.Millisecond
		cfg.FixFingersEvery = 250 * sim.Millisecond
		eng := sim.NewEngine()
		net := chord.New(eng, cfg)
		obs := &ringObserver{now: eng.Now, probeKind: headToHeadProbe}
		net.SetObserver(obs)
		net.BuildStable(ids, nil)
		eng.RunUntil(5 * sim.Second) // settle the staggered tickers

		alive := make([]dht.Key, 0, len(ids))
		for i, id := range ids {
			if i%10 == 5 {
				net.Fail(id)
			} else {
				alive = append(alive, id)
			}
		}
		base := obs.ringBytes
		rng := uint64(seed)*0x9e3779b97f4a7c15 + 0x7f4a7c159e3779b9
		next := func() uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return rng >> 11
		}
		const (
			churnWindow  = 20 * sim.Second
			churnLookups = 32
		)
		ok := 0
		for i := 0; i < churnLookups; i++ {
			origin := alive[next()%uint64(len(alive))]
			target := space.Wrap(dht.Key(next()))
			resolved := false
			var got dht.Key
			net.Node(origin).Machine().FindSuccessor(target, func(s overlay.Ref) {
				resolved = true
				got = s.ID
			})
			// Let the lookup race the repair traffic for its slice of the
			// window; 625 ms of virtual time is a dozen 50 ms hops, so a
			// lookup that cannot finish is an availability failure too.
			eng.RunFor(churnWindow / churnLookups)
			want, _ := net.OracleSuccessor(target)
			if resolved && got == want {
				ok++
			}
		}
		secs := float64(churnWindow) / float64(sim.Second)
		row.ChurnRepairBytesPerNodeSec = float64(obs.ringBytes-base) / float64(len(alive)) / secs
		row.ChurnLookupOK = float64(ok) / churnLookups
	}
	return row, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// percentile returns the p-quantile (0 < p <= 1) by nearest-rank on a
// copy of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := int(float64(len(sorted))*p+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// HeadToHeadTable renders the comparison for the -exp text mode.
func HeadToHeadTable(rows []HeadToHeadRow) *Table {
	t := NewTable("Routing machines head to head: Chord fingers vs. Koorde de Bruijn walk",
		"nodes", "machine", "lookup-hops", "p99", "longlinks", "maint-B/node/s", "mcast-msgs", "mcast-last-ms",
		"churn-B/node/s", "churn-lookup-ok")
	for _, r := range rows {
		t.AddRow(r.Nodes, r.Machine, r.LookupMeanHops, r.LookupP99Hops, r.Longlinks,
			r.MaintBytesPerNodeSec, r.MulticastMsgs, r.MulticastLastMs,
			r.ChurnRepairBytesPerNodeSec, r.ChurnLookupOK)
	}
	t.AddNote("lookup-hops counts control-plane request forwards per resolved FindSuccessor on a warm ring;")
	t.AddNote("Koorde resolves in ~log16(N) digit injections vs. Chord's ~log2(N)/2 finger strides, at")
	t.AddNote("similar long-link state; both machines run the identical stabilize/notify ring substrate.")
	t.AddNote("churn columns: repair bytes and lookup availability while the ring reconverges after a")
	t.AddNote("simultaneous crash of one tenth of the nodes")
	return t
}
