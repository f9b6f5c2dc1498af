package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdictKind is what -agree concludes about one metric on one workload.
type verdictKind string

const (
	agreed     verdictKind = "ok"
	regressed  verdictKind = "REGRESSED"  // second median worse than the first by more than the bound
	unresolved verdictKind = "UNRESOLVED" // a set's own spread exceeds the bound, so the bound cannot be checked
)

type agreement struct {
	Workload, Metric   string
	MedianA, MedianB   float64
	SpreadA, SpreadB   float64
	WorseBy, Bound     float64
	Verdict            verdictKind
	SamplesA, SamplesB int
}

// compareSets judges result set b against a, metric by metric, with the
// bounds of the end-to-end definitions. Metrics without a bound (per-layer
// ones) are skipped. A metric whose quartile spread in either set exceeds
// its bound is unresolved, never passed: the runs cannot tell a regression
// of that size from noise.
func compareSets(a, b resultSet, defs []metricDef) []agreement {
	collect := func(set resultSet) map[string]map[string]sample {
		m := map[string]map[string]sample{}
		for _, o := range set.Outcomes {
			if m[o.Workload] == nil {
				m[o.Workload] = map[string]sample{}
			}
			for _, mt := range o.Metrics {
				m[o.Workload][mt.Name] = append(m[o.Workload][mt.Name], mt.Value)
			}
		}
		return m
	}
	sa, sb := collect(a), collect(b)
	var out []agreement
	for _, w := range workloads {
		for _, def := range defs {
			va, vb := sa[w.Name][def.Name], sb[w.Name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ag := agreement{Workload: w.Name, Metric: def.Name, Bound: def.Bound,
				MedianA: median(va), MedianB: median(vb), SpreadA: spread(va), SpreadB: spread(vb),
				SamplesA: len(va), SamplesB: len(vb)}
			if ag.MedianA != 0 {
				ag.WorseBy = (ag.MedianB - ag.MedianA) / ag.MedianA
				if def.Better == "higher" {
					ag.WorseBy = -ag.WorseBy
				}
			}
			switch {
			case ag.SpreadA > def.Bound || ag.SpreadB > def.Bound:
				ag.Verdict = unresolved
			case ag.WorseBy > def.Bound:
				ag.Verdict = regressed
			default:
				ag.Verdict = agreed
			}
			out = append(out, ag)
		}
	}
	return out
}

func readSet(path string) (resultSet, error) {
	var set resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(b, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// agreeFiles prints the comparison and returns the process exit code: 0
// when every metric agreed, 1 on a regression, 3 when nothing regressed
// but some metric is unresolved.
func agreeFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if a.Host != b.Host {
		fmt.Fprintf(stdout, "# hosts differ (%+v vs %+v): medians from different hosts do not compare\n", a.Host, b.Host)
	}
	code := 0
	for _, ag := range compareSets(a, b, endToEnd) {
		fmt.Fprintf(stdout, "%-16s %-30s %12.4f -> %12.4f  worse by %+6.2f%% (bound %4.1f%%)  spread %5.2f%% / %5.2f%%  n=%d/%d  %s\n",
			ag.Workload, ag.Metric, ag.MedianA, ag.MedianB, 100*ag.WorseBy, 100*ag.Bound,
			100*ag.SpreadA, 100*ag.SpreadB, ag.SamplesA, ag.SamplesB, ag.Verdict)
		switch ag.Verdict {
		case regressed:
			code = 1
		case unresolved:
			if code == 0 {
				code = 3
			}
		}
	}
	return code
}
