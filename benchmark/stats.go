package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// processStart anchors the benchmark's one monotonic clock: every node of
// the live ring runs in this process, so timestamps taken on different
// nodes compare directly and spans stitch across hops.
var processStart = time.Now()

// nowNs returns nanoseconds since process start on the monotonic clock.
func nowNs() int64 { return int64(time.Since(processStart)) }

func msBetween(from, to int64) float64 { return float64(to-from) / 1e6 }

// sample is a set of observations of one quantity.
type sample []float64

func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-quantile (0 < p <= 1) of an ascending sample by
// the nearest-rank rule; 0 for an empty sample.
func percentile(sorted sample, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted))-1e-9)) - 1 // the epsilon absorbs p·n landing a hair above an integer
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailLadder lists the tail percentiles a report may quote, ascending, in
// per mille so that the ten-samples rule is integer arithmetic.
var tailLadder = []int{900, 950, 990, 999}

// supportedTail returns the highest percentile of tailLadder that leaves at
// least ten of n samples beyond it (the choosing-metrics rule for which
// tail a sample can support), or 0 when even p90 has fewer than ten.
func supportedTail(n int) float64 {
	best := 0.0
	for _, pm := range tailLadder {
		if n*(1000-pm) >= 10*1000 {
			best = float64(pm) / 1000
		}
	}
	return best
}

// median of an unsorted sample; 0 when empty.
func median(s sample) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := s.sorted()
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// quartiles returns the first and third quartile by the exclusive method
// Python's statistics.quantiles(values, n=4) uses, so spreads computed here
// are the spreads the driver computes. It needs at least two values.
func quartiles(s sample) (q1, q3 float64) {
	sorted := s.sorted()
	n := len(sorted)
	if n < 2 {
		if n == 1 {
			return sorted[0], sorted[0]
		}
		return 0, 0
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// noise figure every bound in BENCHMARK.json is compared against.
func spread(s sample) float64 {
	m := median(s)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(s)
	return math.Abs((q3 - q1) / m)
}

// rusage is the slice of getrusage(2) the benchmark reports.
type rusage struct {
	cpuSeconds float64 // user + system
	maxRSSMB   float64
}

func readRusage() rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rusage{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return rusage{
		cpuSeconds: tv(ru.Utime) + tv(ru.Stime),
		maxRSSMB:   float64(ru.Maxrss) / 1024, // Linux reports kilobytes
	}
}
