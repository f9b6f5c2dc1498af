package main

import (
	"runtime"
	"time"

	"streamdex/internal/metrics"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/workload"
)

// The simulator workload is Table I at 500 nodes, exactly as the golden
// figure rows run it (workload.DefaultConfig, chord, sequential multicast),
// for a fixed span of virtual time so that its message counts are a pure
// function of the seed.
const (
	simNodes = 500
	// simMeasure is the measured virtual time after the 40 s warm-up.
	// ISSUE 12 proposed 3000 s (≈20 s of wall time per execution); the
	// driver's 20 s window holds four executions of 800 s, three more than
	// the repeat-exactly check needs, and the median over them is steadier
	// than one long execution.
	simMeasure = 800 * sim.Second
	// simStep is the granularity at which the harness hands virtual time
	// to the engine. Between steps it reads Run.Queries(), which is how it
	// learns each query's post time without touching the workload: ids are
	// issued in post order, so the k-th post is query k.
	simStep = sim.Millisecond
)

// simRep is one build-and-execute of the simulator workload.
type simRep struct {
	buildSeconds float64
	wallSeconds  float64
	cpuSeconds   float64
	from, to     int64 // the execution's interval on the benchmark clock
	report       *metrics.Report
	queries      int // posted inside the measured interval

	// firstResponse is the virtual time from a post inside the interval to
	// the first response of any content: Table I draws query features
	// uniformly, so most queries never match anything and "first response
	// carrying a match" would time the data, not the protocol.
	firstResponse sample
	detect        sample // virtual ms, coverer detection -> client callback
}

func simConfig(seed int64) workload.Config {
	cfg := workload.DefaultConfig(simNodes)
	cfg.Seed = seed
	cfg.Measure = simMeasure
	return cfg
}

func runSimOnce(seed int64) (*simRep, error) {
	rep := &simRep{}
	start := time.Now()
	r, err := workload.Build(simConfig(seed))
	if err != nil {
		return nil, err
	}
	rep.buildSeconds = time.Since(start).Seconds()

	eng := r.Eng
	measureFrom := r.Cfg.Warmup
	var postAt []sim.Time // postAt[k-1] is when query k was posted
	firstAt := map[query.ID]sim.Time{}
	r.MW.OnSimilarity = func(id query.ID, fresh []query.Match) {
		now := eng.Now()
		if _, seen := firstAt[id]; !seen {
			firstAt[id] = now
		}
		if now < measureFrom {
			return
		}
		for _, m := range fresh {
			rep.detect = append(rep.detect, (now - m.FoundAt).Millis())
		}
	}
	advance := func(d sim.Time) {
		for end := eng.Now() + d; eng.Now() < end; {
			step := simStep
			if left := end - eng.Now(); left < step {
				step = left
			}
			eng.RunFor(step)
			for uint64(len(postAt)) < r.Queries() {
				postAt = append(postAt, eng.Now())
			}
		}
	}

	// Run.Execute, one millisecond at a time: the same RunFor/Reset/
	// Snapshot sequence, so the event order and every count are its.
	cpu, wall := readRusage().cpuSeconds, time.Now()
	rep.from = nowNs()
	advance(r.Cfg.Warmup)
	r.MW.Collector().Reset(eng.Now())
	advance(r.Cfg.Measure)
	rep.report = r.MW.Collector().Snapshot(eng.Now(), r.IDs)
	rep.report.EngineEvents = eng.Executed()
	rep.wallSeconds = time.Since(wall).Seconds()
	rep.cpuSeconds = readRusage().cpuSeconds - cpu
	rep.to = nowNs()

	for k, at := range postAt {
		if at < measureFrom {
			continue
		}
		rep.queries++
		if first, ok := firstAt[query.ID(k+1)]; ok {
			rep.firstResponse = append(rep.firstResponse, (first - at).Millis())
		}
	}
	return rep, nil
}

// sameCounts reports whether two executions produced identical accounting.
func sameCounts(a, b *metrics.Report) bool {
	return a.TotalLoad == b.TotalLoad && a.TotalByCategory == b.TotalByCategory &&
		a.BytesByCategory == b.BytesByCategory && a.Events == b.Events && a.EngineEvents == b.EngineEvents
}

func sum64(v []int64) float64 {
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s
}

// simBuilds is how many times a run sets up, for the median.
const simBuilds = 9

// runSim executes the workload at least twice, and again until `seconds`
// of wall time have gone into executions; every execution must reproduce
// the first one's counts bit for bit. Wall-clock metrics are medians over
// the executions, counts are the (identical) counts of any of them. All of
// it is one goroutine's CPU work, so every time is reported at the reference
// host speed (calib.go): an execution's by the slowdown over that
// execution, set-up's by the slowdown over the whole run.
func runSim(seed int64, seconds float64, traced bool) (*outcome, error) {
	out := &outcome{Workload: simWorkload, Seed: seed, Traced: traced, Correct: true, Recall: 1}
	cal := startCalibrator()
	defer cal.close()
	runFrom := nowNs()
	var reps []*simRep
	var spent float64
	for len(reps) < 2 || spent < seconds {
		rep, err := runSimOnce(seed)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		spent += rep.wallSeconds
		runtime.GC() // the next execution reuses this one's heap: peak RSS is one execution's, however many fit the window
		out.Attempted++
		if !sameCounts(reps[0].report, rep.report) {
			out.Failed++
			out.notef("execution %d did not reproduce execution 1: load %v vs %v, events %d vs %d",
				len(reps), rep.report.TotalLoad, reps[0].report.TotalLoad, rep.report.EngineEvents, reps[0].report.EngineEvents)
		}
	}
	builds := sample{}
	for _, r := range reps {
		builds = append(builds, r.buildSeconds)
	}
	for len(builds) < simBuilds { // set-up takes under 0.1 s here
		start := time.Now()
		if _, err := workload.Build(simConfig(seed)); err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(start).Seconds())
		runtime.GC()
	}
	out.Correct = out.Failed == 0
	cal.close()
	overall, bursts := cal.slowdown(runFrom, nowNs())

	rep := reps[0].report
	points := float64(rep.Events[metrics.EventMBR]) * float64(simConfig(seed).Core.Beta)
	msgs := sum64(rep.TotalByCategory[:])
	var perSec, cpuPerM, eventsPerSec, rawPerSec sample
	for _, r := range reps {
		slow, _ := cal.slowdown(r.from, r.to)
		rawPerSec = append(rawPerSec, points/r.wallSeconds/simNodes)
		perSec = append(perSec, points/r.wallSeconds/simNodes*slow)
		cpuPerM = append(cpuPerM, r.cpuSeconds/points*1e6/slow)
		eventsPerSec = append(eventsPerSec, float64(r.report.EngineEvents)/r.wallSeconds*slow)
	}
	virtualSecs := (simConfig(seed).Warmup + simMeasure).Seconds()

	if !traced {
		fr, dt := reps[0].firstResponse.sorted(), reps[0].detect.sorted()
		out.add("setup_s", median(builds)/overall, len(builds))
		out.add("ingest_points_per_s_node", median(perSec), len(reps))
		out.add("cpu_s_per_mpoint", median(cpuPerM), len(reps))
		out.add("query_first_response_ms_p50", percentile(fr, 0.50), len(fr))
		out.add("query_first_response_ms_p95", percentile(fr, 0.95), len(fr))
		out.add("detect_ms_p50", percentile(dt, 0.50), len(dt))
		out.add("detect_ms_p99", percentile(dt, 0.99), len(dt))
		out.add("wire_bytes_per_point", sum64(rep.BytesByCategory[:])/points, int(points))
		out.add("msgs_per_point", msgs/points, int(points))
		out.add("peak_rss_mb", readRusage().maxRSSMB, 1)
		out.notef("%d executions of %.0f virtual s (%.0f simulated points, %d queries each) in %.1f s; points/s/node and CPU are wall-clock medians over them",
			len(reps), virtualSecs, points, reps[0].queries, spent)
		out.notef("host ran at %.4f of the reference time per unit of work over the run (%d calibration bursts); setup_s, ingest_points_per_s_node and cpu_s_per_mpoint are reported at the reference speed, measured %.4f s and %.1f points/s/node",
			overall, bursts, median(builds), median(rawPerSec))
		out.notef("latencies are on the simulator's virtual clock: first response (matches or none) from the post (±%v), detection from the coverer's match (Match.FoundAt) to the client callback", simStep)
		out.notef("load %.6f msgs/node/s and %.0f events/s (median) — sim.msgs_per_node_s and sim.events_per_s of a traced run", rep.TotalLoad, median(eventsPerSec))
		return out, nil
	}

	var hopSum, hopCnt float64
	for h := range rep.HopCount {
		hopSum += rep.HopMean[h] * float64(rep.HopCount[h])
		hopCnt += float64(rep.HopCount[h])
	}
	out.add("host.slowdown", overall, bursts)
	out.add("sim.events_per_s", median(eventsPerSec), len(reps))
	out.add("sim.events_per_virtual_s", float64(rep.EngineEvents)/virtualSecs, int(rep.EngineEvents))
	out.add("sim.msgs_per_node_s", rep.TotalLoad, int(msgs))
	out.add("dht.msgs_per_point", msgs/points, int(points))
	out.add("dht.mbr_range_legs_per_publish", rep.Overhead(metrics.MBRRange, metrics.EventMBR), int(rep.Events[metrics.EventMBR]))
	out.add("dht.query_range_legs_per_query", rep.Overhead(metrics.QueryRange, metrics.EventQuery), int(rep.Events[metrics.EventQuery]))
	out.add("dht.route_hops_mean", ratio(hopSum, hopCnt), int(hopCnt))
	if len(reps) > 2 {
		out.notef("%d executions; a traced simulator run installs no interposer, so trace.overhead_pct is 0", len(reps))
	}
	return out, nil
}
