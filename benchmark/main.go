// Command benchmark is the repository's one end-to-end and per-layer
// benchmark (BENCHMARK.json): three workloads on a live in-process ring of
// transport nodes and one on the simulator, each checked against an oracle.
// It measures every layer from outside, through public functions only.
//
//	bash benchmark/run.sh -workload all -seed 1        every end-to-end metric
//	bash benchmark/run.sh -workload live-paced -trace  per-layer metrics + span file
//	bash benchmark/run.sh -repeat 10 -json a.json      medians, quartiles, a result set
//	bash benchmark/run.sh -agree a.json b.json         compare two result sets
//
// The last line of a single-workload run is the one-line JSON result the
// benchmark driver reads. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// hostInfo travels with every result: numbers from different hosts do not
// compare.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Loopback   bool   `json:"loopback"` // all traffic crossed 127.0.0.1, never a real link
}

func thisHost() hostInfo {
	return hostInfo{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Loopback: true}
}

// resultSet is what -json writes and -agree reads.
type resultSet struct {
	Host     hostInfo   `json:"host"`
	Seconds  float64    `json:"seconds"`
	Outcomes []*outcome `json:"outcomes"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	repeat   int
	outDir   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so tests can drive the CLI.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace, jsonOut string
	var smoke, spec, agree bool
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input: stream walks, query targets, ring rotation, core.Config.Seed")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measure window")
	fs.StringVar(&trace, "trace", "0", "1: run again with the interposers installed and report the per-layer metrics")
	fs.IntVar(&o.repeat, "repeat", 1, "run each workload this many times, on seeds seed, seed+1, …, and print median and quartiles")
	fs.StringVar(&jsonOut, "json", "", "also write the results as a result set to this file")
	fs.StringVar(&o.outDir, "out", "benchmark/out", "directory for span files")
	fs.BoolVar(&smoke, "smoke", false, "all four workloads with 3 s windows")
	fs.BoolVar(&spec, "spec", false, "print BENCHMARK.json and exit")
	fs.BoolVar(&agree, "agree", false, "compare the two result sets named as arguments against the bounds")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	switch {
	case spec:
		stdout.Write(specJSON())
		return 0
	case agree:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "-agree needs two result-set files")
			return 2
		}
		return agreeFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	switch trace {
	case "1", "true":
		o.traced = true
	case "0", "false":
	default:
		fmt.Fprintf(stderr, "-trace %q: want 0 or 1\n", trace)
		return 2
	}
	if smoke {
		o.workload, o.seconds = "all", 3
	}
	names := workloadNames()
	if o.workload != "all" {
		if !slices.Contains(names, o.workload) {
			fmt.Fprintf(stderr, "unknown workload %q (have %s)\n", o.workload, strings.Join(names, ", "))
			return 2
		}
		names = []string{o.workload}
	}
	if o.seconds <= 0 || o.repeat < 1 {
		fmt.Fprintln(stderr, "-seconds and -repeat must be positive")
		return 2
	}

	host := thisHost()
	fmt.Fprintf(stdout, "# host: %d cpus, GOMAXPROCS %d, %s, loopback only\n", host.CPUs, host.GOMAXPROCS, host.GoVersion)
	set := resultSet{Host: host, Seconds: o.seconds}
	ok := true
	isolate := len(names)*o.repeat > 1
	for _, name := range names {
		var runs []*outcome
		for i := 0; i < o.repeat; i++ {
			var out *outcome
			var err error
			if isolate {
				out, err = runIsolated(name, o.seed+int64(i), o, stdout, stderr)
			} else if out, err = runWorkload(name, o.seed+int64(i), o.seconds, o.traced, o.outDir); err == nil {
				printOutcome(stdout, out)
			}
			if err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", name, err)
				return 1
			}
			ok = ok && out.Correct
			runs = append(runs, out)
		}
		if o.repeat > 1 {
			printSummary(stdout, name, runs)
		}
		set.Outcomes = append(set.Outcomes, runs...)
	}
	if jsonOut != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(jsonOut, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	// The driver's line goes last, and only when it is unambiguous.
	if len(set.Outcomes) == 1 {
		stdout.Write(driverLine(set.Outcomes[0]))
	}
	if !ok {
		return 1
	}
	return 0
}

// runIsolated makes one run in a process of its own, by re-executing this
// binary: peak RSS, heap size and GC pacing then start from nothing for
// every run, as they do under the driver, instead of inheriting the
// previous run's. The child prints its own report.
func runIsolated(name string, seed int64, o options, stdout, stderr io.Writer) (*outcome, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(o.outDir, "run-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	trace := "-trace=0"
	if o.traced {
		trace = "-trace=1"
	}
	cmd := exec.Command(os.Args[0], "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), trace, "-out", o.outDir, "-json", tmp.Name())
	cmd.Stdout, cmd.Stderr = stdout, stderr
	runErr := cmd.Run() // exit 1 with a result means "ran, but incorrect"
	set, err := readSet(tmp.Name())
	if err != nil || len(set.Outcomes) != 1 {
		return nil, fmt.Errorf("run in its own process left no result: %v", runErr)
	}
	return set.Outcomes[0], nil
}

// normalizeTrace lets -trace be given bare, as the issue's examples do, or
// with a separate 0/1 value, as the driver does.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-trace" || a == "--trace" {
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				out = append(out, "-trace="+args[i+1])
				i++
			} else {
				out = append(out, "-trace=1")
			}
			continue
		}
		out = append(out, a)
	}
	return out
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// runWorkload runs one workload once. A traced run is two runs: the plain
// one first, for the end-to-end numbers tracing must not disturb, then the
// same seed again with the interposers in; the outcome carries the
// per-layer metrics and trace.overhead_pct, the difference between them.
func runWorkload(name string, seed int64, seconds float64, traced bool, outDir string) (*outcome, error) {
	if name == simWorkload {
		out, err := runSim(seed, seconds, traced)
		if err != nil || !traced {
			return out, err
		}
		if err := replays(replayInputs{shards: 1}, seed, out); err != nil {
			return nil, err
		}
		return fillPerLayer(out), nil
	}
	spec := liveSpecs[name]
	plain, err := runLiveOnce(spec, seed, seconds, false, outDir)
	if err != nil || !traced {
		return plain, err
	}
	out, err := runLiveOnce(spec, seed, seconds, true, outDir)
	if err != nil {
		return nil, err
	}
	base, with := plain.cpuPerMpoint, out.cpuPerMpoint
	out.add("trace.overhead_pct", ratio(with-base, base)*100, 2)
	out.notef("untraced run of the same seed: %.3f CPU-s/Mpoint, traced: %.3f", base, with)
	out.Correct = out.Correct && plain.Correct
	return fillPerLayer(out), nil
}

func runLiveOnce(spec liveSpec, seed int64, seconds float64, traced bool, outDir string) (*outcome, error) {
	lc, err := runLive(spec, seed, seconds, traced)
	if err != nil {
		return nil, err
	}
	v, err := judge(lc)
	if err != nil {
		return nil, err
	}
	out := &outcome{Workload: spec.name, Seed: seed, Traced: traced,
		Attempted: v.attempted(), Failed: v.failed(), Recall: v.recall(), cpuPerMpoint: lc.cpuPerMpoint()}
	out.Correct = out.Failed == 0
	out.notef("oracle: %d required detections, %d delivered (recall %.6f); %d queries, %d unanswered; %d wrong answers; %d dropped frames",
		v.required, v.delivered, v.recall(), v.queries, v.unanswered, v.wrong, v.dropped)
	if !traced {
		liveEndToEnd(lc, v, out)
		return out, nil
	}
	liveLayers(lc, v, lc.spans, out)
	in := replayInputs{mbrs: lc.sampledMBRs, shards: 4 * runtime.GOMAXPROCS(0)}
	if m, ok := out.get("core.store_len_per_node"); ok {
		in.storeLen = int(m)
	}
	for i := range lc.queries {
		q := &lc.queries[i]
		in.queries = append(in.queries, append([]float64(nil), q.feature[:]...))
	}
	if err := replays(in, seed, out); err != nil {
		return nil, err
	}
	path, err := writeTrace(outDir, fmt.Sprintf("%s-seed%d", spec.name, seed), lc.spans, lc.streamNames)
	if err != nil {
		return nil, err
	}
	out.TraceFile = path
	return out, nil
}

// replays runs every layer replay; inputs a run did not record are taken
// from the dsp/summary replay's own output.
func replays(in replayInputs, seed int64, out *outcome) error {
	made := replayPipeline(seed, out)
	if len(in.mbrs) == 0 {
		in.mbrs = made
	}
	if len(in.queries) == 0 {
		for _, b := range made[:256] {
			in.queries = append(in.queries, b.Center())
		}
	}
	replayClock(out)
	replayWire(in, out)
	replayStore(in, out)
	replayCollector(out)
	replayEngine(out)
	return replayLoopback(in, out)
}

// fillPerLayer orders a traced outcome's metrics as BENCHMARK.json lists
// them, reporting 0 for the ones this workload has no such layer for (the
// simulator has no sockets, the live ring no event heap).
func fillPerLayer(out *outcome) *outcome {
	measured := make(map[string]metric, len(out.Metrics))
	for _, m := range out.Metrics {
		measured[m.Name] = m
	}
	ordered := make([]metric, 0, len(perLayer))
	for _, def := range perLayer {
		m := measured[def.Name]
		ordered = append(ordered, metric{Name: def.Name, Value: m.Value, Unit: def.Unit, Samples: m.Samples})
	}
	out.Metrics = ordered
	return out
}

func printOutcome(w io.Writer, out *outcome) {
	mode := "end-to-end"
	if out.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s ==\n", out.Workload, out.Seed, mode)
	for _, m := range out.Metrics {
		fmt.Fprintf(w, "%-36s %14.4f %-14s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "%-36s %14.6f %-14s attempted=%d failed=%d correct=%v\n", "recall", out.Recall, "ratio", out.Attempted, out.Failed, out.Correct)
	for _, n := range out.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if out.TraceFile != "" {
		fmt.Fprintf(w, "  spans: %s\n", out.TraceFile)
	}
}

func printSummary(w io.Writer, name string, runs []*outcome) {
	fmt.Fprintf(w, "\n== %s  %d runs: median [q1, q3] spread ==\n", name, len(runs))
	for _, m := range runs[0].Metrics {
		var s sample
		for _, r := range runs {
			if v, ok := r.get(m.Name); ok {
				s = append(s, v)
			}
		}
		q1, q3 := quartiles(s)
		fmt.Fprintf(w, "%-36s %14.4f [%.4f, %.4f] %-14s spread %.2f%%\n", m.Name, median(s), q1, q3, m.Unit, 100*spread(s))
	}
}

// driverLine renders the result line of the driver's contract.
func driverLine(out *outcome) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, map[string]value{}}
	for _, m := range out.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // NaN or Inf in a metric: a bug in the harness
	}
	return append(b, '\n')
}
