package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"` // observations behind the value
}

// outcome is the result of one workload run: its metrics (end-to-end on an
// untraced run, per-layer on a traced one) and the correctness verdict.
type outcome struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Recall    float64  `json:"recall"`
	Metrics   []metric `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`

	// cpuPerMpoint is the run's CPU cost whether or not it is reported:
	// trace.overhead_pct compares it between a traced run and a plain one.
	cpuPerMpoint float64
}

func (o *outcome) add(name string, value float64, samples int) {
	o.Metrics = append(o.Metrics, metric{Name: name, Value: value, Unit: unitOf(name), Samples: samples})
}

func (o *outcome) get(name string) (float64, bool) {
	for _, m := range o.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

func (o *outcome) notef(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// mbrID names one MBR of the run: flat stream index and sequence number.
type mbrID struct {
	stream int
	seq    uint64
}

// liveVerdict is the oracle's judgement of a live run.
type liveVerdict struct {
	queries    int // ad-hoc queries due inside the measure window
	required   int // detections the oracle demands
	delivered  int // … of which the gateway reported
	unanswered int // queries with a required detection and no answer at all
	wrong      int // reported matches the oracle rejects
	dropped    int64

	firstResponse sample  // ms, per answered measured query
	firstDue      []int64 // when each of those queries was due, parallel to firstResponse
	detect        sample  // ms, per reported detection closed after its query
	detectAt      []int64 // when each detection was reported, parallel to detect
	postLateness  sample  // ms, how late the load generator posted
}

func (v *liveVerdict) attempted() int { return v.required + v.queries }

func (v *liveVerdict) failed() int {
	return (v.required - v.delivered) + v.unanswered + v.wrong + int(v.dropped)
}

func (v *liveVerdict) recall() float64 {
	if v.required == 0 {
		return 1
	}
	return float64(v.delivered) / float64(v.required)
}

// judge replays the generators, rebuilds the MBRs and compares what the
// gateway was told with what it had to be told.
func judge(lc *liveCapture) (*liveVerdict, error) {
	v := &liveVerdict{dropped: lc.droppedTotal - lc.before.dropped}

	byID := make(map[uint64]*postedQuery, len(lc.queries))
	for i := range lc.queries {
		byID[uint64(lc.queries[i].id)] = &lc.queries[i]
	}

	// What the gateway reported, and the two latencies read off it.
	reported := map[uint64]map[mbrID]bool{}
	firstAnswer := map[uint64]int64{}
	for _, a := range lc.answers {
		q := byID[uint64(a.id)]
		if q == nil {
			return nil, fmt.Errorf("answer for query %d, which was never posted", a.id)
		}
		set := reported[uint64(a.id)]
		if set == nil {
			set = map[mbrID]bool{}
			reported[uint64(a.id)] = set
			firstAnswer[uint64(a.id)] = a.at
		}
		inWindow := a.at >= lc.open && a.at < lc.shut
		for _, m := range a.matches {
			idx, ok := lc.streamIndex[m.StreamID]
			if !ok {
				return nil, fmt.Errorf("answer names unknown stream %q", m.StreamID)
			}
			set[mbrID{idx, m.Seq}] = true
			if !inWindow || m.Seq >= uint64(len(lc.closeAt[idx])) {
				continue
			}
			if closed := lc.closeAt[idx][m.Seq]; closed > q.posted {
				v.detect = append(v.detect, msBetween(closed, a.at))
				v.detectAt = append(v.detectAt, a.at)
			}
		}
	}

	// Regenerate every stream and rebuild the MBRs that closed inside the
	// window; anything else an answer refers to is rebuilt on demand.
	dft := newDirectDFT(windowSize)
	walks := newWalks(lc.seed, liveNodes, lc.spec.streamsPerNode)
	oracles := make([]*streamOracle, len(lc.closeAt))
	from := make([]uint64, len(oracles))
	to := make([]uint64, len(oracles))
	for idx := range oracles {
		w := walks[idx/lc.spec.streamsPerNode][idx%lc.spec.streamsPerNode]
		oracles[idx] = newStreamOracle(dft, batchBeta, w, lc.liveCalls[idx])
		if got, want := uint64(len(lc.closeAt[idx])), oracles[idx].seqs(); got != want {
			return nil, fmt.Errorf("stream %s closed %d MBRs by the probe's count, %d by the oracle's", lc.streamNames[idx], got, want)
		}
		from[idx] = uint64(sort.Search(len(lc.closeAt[idx]), func(i int) bool { return lc.closeAt[idx][i] >= lc.open }))
		to[idx] = uint64(sort.Search(len(lc.closeAt[idx]), func(i int) bool { return lc.closeAt[idx][i] > lc.shut }))
	}
	precompute(oracles, from, to)

	// Required detections: per query, the MBRs within the radius that
	// closed inside its life, clipped to the window and shrunk by the
	// margins at both ends.
	for i := range lc.queries {
		q := &lc.queries[i]
		measured := !q.standing && q.due >= lc.open && q.due < lc.shut
		if measured {
			v.queries++
			v.postLateness = append(v.postLateness, msBetween(q.due, q.posted))
		}
		if !measured && !q.standing {
			continue
		}
		lo := max(q.posted, lc.open) + int64(postMargin)
		hi := min(q.expire, lc.shut) - int64(settleMargin)
		got := reported[uint64(q.id)]
		need := 0
		for idx, closes := range lc.closeAt {
			first := sort.Search(len(closes), func(i int) bool { return closes[i] > lo })
			for seq := first; seq < len(closes) && closes[seq] < hi; seq++ {
				b := oracles[idx].mbr(uint64(seq))
				if b.minDist(q.feature) > queryRadius-answerTolerance {
					continue
				}
				need++
				if got[mbrID{idx, uint64(seq)}] {
					v.delivered++
				}
			}
		}
		v.required += need
		if first, ok := firstAnswer[uint64(q.id)]; ok {
			if measured {
				v.firstResponse = append(v.firstResponse, msBetween(q.due, first))
				v.firstDue = append(v.firstDue, q.due)
			}
		} else if need > 0 {
			v.unanswered++
		}
	}

	// Forbidden answers: anything reported from the window on must be
	// within the radius by the oracle's own arithmetic, at the distance
	// the system claimed.
	for _, a := range lc.answers {
		if a.at < lc.open {
			continue
		}
		q := byID[uint64(a.id)]
		for _, m := range a.matches {
			idx := lc.streamIndex[m.StreamID]
			if m.Seq >= oracles[idx].seqs() {
				v.wrong++
				continue
			}
			b := oracles[idx].mbr(m.Seq)
			d := b.minDist(q.feature)
			if d > queryRadius+answerTolerance || math.Abs(d-m.DistLB) > answerTolerance {
				v.wrong++
			}
		}
	}
	return v, nil
}

// slicedTail is the run's typical tail: the window is cut into one-second
// slices by time, each slice with at least minPerSlice samples contributes
// its own p-quantile, and the median of those is returned. One stalled
// second (a collector cycle, a descheduled host CPU) then moves the number
// as little as it would over a long run, which a 20 s window otherwise
// cannot offer: on the saturated ring the pooled p95 of 400 first responses
// spread by 21-28 % between runs of the same code, the pooled p99 of a
// million detections by 37 %. With fewer than three usable slices the
// pooled percentile is returned.
func slicedTail(values sample, at []int64, from int64, p float64, minPerSlice int) float64 {
	const slice = int64(time.Second)
	bySlice := map[int64]sample{}
	for i, v := range values {
		if k := (at[i] - from) / slice; at[i] >= from {
			bySlice[k] = append(bySlice[k], v)
		}
	}
	var tails sample
	for _, s := range bySlice {
		if len(s) >= minPerSlice {
			tails = append(tails, percentile(s.sorted(), p))
		}
	}
	if len(tails) < 3 {
		return percentile(values.sorted(), p)
	}
	return median(tails)
}

// A slice of detections supports its own p99 by the ten-samples rule. A
// slice of first responses holds the adhocPerSec queries due in that second
// and cannot; its p95 is the second slowest of twenty, and the median over
// the window's slices is what makes that a steady number.
const (
	detectPerSlice        = 1000
	firstResponsePerSlice = adhocPerSec / 2
)

// rawCPUPerMpoint is the window's CPU seconds per million points as the
// host happened to run them.
func (lc *liveCapture) rawCPUPerMpoint() float64 {
	points := float64(lc.after.points - lc.before.points)
	return (lc.after.ru.cpuSeconds - lc.before.ru.cpuSeconds) / points * 1e6
}

// cpuPerMpoint is the same at the reference host speed (calib.go).
func (lc *liveCapture) cpuPerMpoint() float64 { return lc.rawCPUPerMpoint() / lc.slowdown }

// liveEndToEnd turns a capture and its verdict into the end-to-end metrics.
func liveEndToEnd(lc *liveCapture, v *liveVerdict, out *outcome) {
	secs := float64(lc.after.at-lc.before.at) / 1e9
	points := float64(lc.after.points - lc.before.points)
	// A closed loop takes in what the CPU allows and holds mbrLifespan of
	// it, so its rate and its memory both scale with the host's speed.
	ingest, rss := points/secs/liveNodes, lc.peakRSSMB
	if lc.spec.closedLoop {
		ingest *= lc.slowdown
		rss *= lc.slowdown
	}
	out.add("setup_s", median(lc.setupTimes), len(lc.setupTimes))
	out.add("ingest_points_per_s_node", ingest, int(points))
	out.add("cpu_s_per_mpoint", lc.cpuPerMpoint(), int(points))
	fr := v.firstResponse.sorted()
	out.add("query_first_response_ms_p50", percentile(fr, 0.50), len(fr))
	out.add("query_first_response_ms_p95", slicedTail(v.firstResponse, v.firstDue, lc.open, 0.95, firstResponsePerSlice), len(fr))
	dt := v.detect.sorted()
	out.add("detect_ms_p50", percentile(dt, 0.50), len(dt))
	out.add("detect_ms_p99", slicedTail(v.detect, v.detectAt, lc.open, 0.99, detectPerSlice), len(dt))
	out.add("wire_bytes_per_point", float64(lc.after.bytes-lc.before.bytes)/points, int(points))
	out.add("msgs_per_point", float64(lc.after.msgs-lc.before.msgs)/points, int(points))
	out.add("peak_rss_mb", rss, 1)

	what := "cpu_s_per_mpoint is"
	if lc.spec.closedLoop {
		what = "cpu_s_per_mpoint, ingest_points_per_s_node and peak_rss_mb are"
	}
	out.notef("host ran at %.4f of the reference time per unit of work over the window (%d calibration bursts); %s reported at the reference speed, measured %.4f CPU-s/Mpoint, %.1f points/s/node and %.1f MB",
		lc.slowdown, lc.calBursts, what, lc.rawCPUPerMpoint(), points/secs/liveNodes, lc.peakRSSMB)
	if p := supportedTail(len(fr)); p < 0.95 {
		out.notef("first-response sample of %d supports at most p%g; p95 is quoted from too few samples", len(fr), p*100)
	}
	if p := supportedTail(len(dt)); p < 0.99 {
		out.notef("detection sample of %d supports at most p%g; p99 is quoted from too few samples", len(dt), p*100)
	}
	late := v.postLateness.sorted()
	out.notef("open loop: %d ad-hoc queries at %d/s posted a median %.2f ms (p99 %.2f ms) after they were due; latency is timed from the due time",
		v.queries, adhocPerSec, percentile(late, 0.5), percentile(late, 0.99))
	out.notef("slowest detection %.1f ms (p99 over the whole window %.1f ms), slowest first response %.1f ms (p95 over the whole window %.1f ms)",
		percentile(dt, 1), percentile(dt, 0.99), percentile(fr, 1), percentile(fr, 0.95))
	out.notef("window %.2f s, %.0f points, %d answers carrying matches, %d empty responses; traffic crossed the loopback interface only",
		secs, points, len(lc.answers), lc.empties)
}
