package main

import (
	"encoding/json"

	"streamdex/internal/sim"
)

// This file is the benchmark's contract: the workloads, every metric's
// name, unit and direction, and the regression bound of each end-to-end
// metric. BENCHMARK.json at the repository root is `-spec` output; a unit
// test keeps the two identical.

type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end metrics only
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the measure window the driver asks for. ISSUE 12 proposed
// 30 s; the driver's total time budget (92 runs and two builds in 3420 s)
// holds 20 s with the 7 s warm-up untouched.
const runSeconds = 20

var workloads = []workloadDef{
	{"live-saturate", "8-node TCP ring, 16 streams/node ticking as fast as they re-arm plus 20 ad-hoc queries/s: both CPUs busy, so any per-point or per-MBR cost moves capacity and queueing latency"},
	{"live-paced", "same ring, 32 streams/node at 20 ms: nothing queues, latency is push-period timers times funnel hops; a CPU saving must show in cpu_s_per_mpoint and leave latency alone"},
	{"live-standing", "paced ingest under 1000 standing queries: every MBR is matched against the standing set and response fan-in runs hot, so trading match cost for Put speed moves this the other way"},
	{"sim-table1-500", "Table I on the 500-node simulator, virtual clock, one goroutine: event heap, simulated chord, range walk and in-place store only; its exact counts prove a perf change kept the protocol"},
}

var liveSpecs = map[string]liveSpec{
	// Tickers re-arm after their callback returns, so a 1 µs period is a
	// closed loop at whatever rate the node sustains.
	"live-saturate": {name: "live-saturate", streamsPerNode: 16, period: sim.Microsecond, closedLoop: true},
	"live-paced":    {name: "live-paced", streamsPerNode: 32, period: 20 * sim.Millisecond},
	"live-standing": {name: "live-standing", streamsPerNode: 32, period: 20 * sim.Millisecond, standing: 1000},
}

const simWorkload = "sim-table1-500"

// Bounds are set from the quartile spread of ten differently seeded runs
// per workload, made twice (README, "Noise"). ISSUE 12 wanted 10 % for
// throughput, CPU, bytes and medians and 15 % for tails. The driver wants
// every spread within its bound with room to spare, and what this 2-CPU
// slice of a shared host shows after the host's own speed is taken out
// (calib.go) is 1-6 % for counts and timer-paced latencies, 4-9 % for the
// latencies of the saturated ring and the first-response median (a median
// of 400 nearly uniform waits for a push timer), and up to 16 % for the CPU
// cost of the paced ring, which is mostly wake-ups from idle. A bound is at
// least three times the widest spread seen, or the driver's cap of 25 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_points_per_s_node", "points/s/node", "higher", 0.25},
	{"cpu_s_per_mpoint", "s/Mpoint", "lower", 0.25},
	{"query_first_response_ms_p50", "ms", "lower", 0.25},
	{"query_first_response_ms_p95", "ms", "lower", 0.25},
	{"detect_ms_p50", "ms", "lower", 0.25},
	{"detect_ms_p99", "ms", "lower", 0.25},
	{"wire_bytes_per_point", "B/point", "lower", 0.20},
	{"msgs_per_point", "msgs/point", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

var perLayer = []metricDef{
	{Name: "host.slowdown", Unit: "ratio", Better: "lower"},
	{Name: "clock.tick_overhead_us", Unit: "us", Better: "lower"},
	{Name: "clock.tick_lateness_us_p50", Unit: "us", Better: "lower"},
	{Name: "clock.tick_lateness_us_p99", Unit: "us", Better: "lower"},
	{Name: "clock.loop_highwater", Unit: "count", Better: "lower"},
	{Name: "clock.loop_blocked_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.randomwalk_next_ns", Unit: "ns", Better: "lower"},
	{Name: "dsp.push_ns", Unit: "ns", Better: "lower"},
	{Name: "summary.feature_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "summary.keyrange_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.marshal_mbr_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.unmarshal_mbr_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.marshal_query_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.mbr_frame_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.unmarshal_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.arena_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "transport.frames_per_write", Unit: "ratio", Better: "higher"},
	{Name: "transport.loopback_frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transport.pool_inline_share", Unit: "ratio", Better: "lower"},
	{Name: "transport.pool_blocked_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.dropped_frames", Unit: "count", Better: "lower"},
	{Name: "dht.msgs_per_point", Unit: "count", Better: "lower"},
	{Name: "dht.mbr_range_legs_per_publish", Unit: "count", Better: "lower"},
	{Name: "dht.query_range_legs_per_query", Unit: "count", Better: "lower"},
	{Name: "dht.route_hops_mean", Unit: "count", Better: "lower"},
	{Name: "core.store_put_ns", Unit: "ns", Better: "lower"},
	{Name: "core.store_match_ns", Unit: "ns", Better: "lower"},
	{Name: "core.store_sweep_ns", Unit: "ns", Better: "lower"},
	{Name: "core.store_scanned_per_candidate", Unit: "ratio", Better: "lower"},
	{Name: "core.store_cow_copied_per_put", Unit: "count", Better: "lower"},
	{Name: "core.store_len_per_node", Unit: "count", Better: "lower"},
	{Name: "core.deliver_mbr_us", Unit: "us", Better: "lower"},
	{Name: "core.deliver_query_us", Unit: "us", Better: "lower"},
	{Name: "core.deliver_notify_us", Unit: "us", Better: "lower"},
	{Name: "core.deliver_response_us", Unit: "us", Better: "lower"},
	{Name: "core.deliver_busy_s_per_mpoint", Unit: "s", Better: "lower"},
	{Name: "core.deliver_loop_share", Unit: "ratio", Better: "lower"},
	{Name: "cqe.standing_match_us_per_mbr", Unit: "us", Better: "lower"},
	{Name: "query.route_ms", Unit: "ms", Better: "lower"},
	{Name: "query.funnel_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "query.notify_relays_per_answer", Unit: "count", Better: "lower"},
	{Name: "query.responses_per_query", Unit: "count", Better: "lower"},
	{Name: "query.empty_response_share", Unit: "ratio", Better: "lower"},
	{Name: "overlay.stabilize_rounds_per_s", Unit: "1/s", Better: "lower"},
	{Name: "overlay.longlinks", Unit: "count", Better: "higher"},
	{Name: "metrics.on_transmit_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.events_per_virtual_s", Unit: "count", Better: "lower"},
	{Name: "sim.msgs_per_node_s", Unit: "1/s", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_point", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.goroutines", Unit: "count", Better: "lower"},
	{Name: "loadgen.post_lateness_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// benchmarkSpec is the shape of BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []specMetric  `json:"end_to_end"`
	PerLayer   []specLayer   `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func currentSpec() benchmarkSpec {
	s := benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		s.EndToEnd = append(s.EndToEnd, specMetric(m))
	}
	for _, m := range perLayer {
		s.PerLayer = append(s.PerLayer, specLayer{m.Name, m.Unit, m.Better})
	}
	return s
}

func specJSON() []byte {
	b, err := json.MarshalIndent(currentSpec(), "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(b, '\n')
}
