package main

import (
	"math"
	"runtime"
	"sync"

	"streamdex/internal/stream"
)

// The oracle recomputes, from the generated values alone, what the index
// must contain and what every query must be told. It shares no code with
// the system's summary pipeline: features come from a direct O(w·k) DFT of
// each window (not dsp.SlidingDFT's incremental recurrence), MBRs are
// rebuilt by folding beta consecutive features, and the candidate test is
// a local MINDIST.

// featureDims is the dimensionality every workload runs at (Fig. 3(b)).
const featureDims = 3

type feature [featureDims]float64

// box is an oracle MBR: the bounding rectangle of beta features.
type box struct{ lo, hi feature }

func (b *box) minDist(q feature) float64 {
	var sum float64
	for d := range q {
		switch {
		case q[d] < b.lo[d]:
			diff := b.lo[d] - q[d]
			sum += diff * diff
		case q[d] > b.hi[d]:
			diff := q[d] - b.hi[d]
			sum += diff * diff
		}
	}
	return math.Sqrt(sum)
}

// directDFT extracts z-normalized features by evaluating the DFT sums term
// by term over a window of fixed length.
type directDFT struct {
	window   int
	cos, sin [][]float64 // [h-1][i] = cos/sin(2π·h·i/window) for the bins in use
}

func newDirectDFT(window int) *directDFT {
	bins := (featureDims + 1) / 2 // feature dim d reads bin 1+d/2
	o := &directDFT{window: window, cos: make([][]float64, bins), sin: make([][]float64, bins)}
	for h := 1; h <= bins; h++ {
		o.cos[h-1] = make([]float64, window)
		o.sin[h-1] = make([]float64, window)
		for i := 0; i < window; i++ {
			s, c := math.Sincos(2 * math.Pi * float64(h) * float64(i) / float64(window))
			o.cos[h-1][i], o.sin[h-1][i] = c, s
		}
	}
	return o
}

// feature returns [Re Z1, Im Z1, Re Z2, …] of the z-normalized window x
// (oldest value first): Z_h = Σ (x_i − mean)·e^{−j2πhi/w} / (√w · ‖x − mean‖).
// A constant window has no direction and maps to the origin, as in the
// system.
func (o *directDFT) feature(x []float64) feature {
	var f feature
	var sum float64
	for _, v := range x {
		sum += v
	}
	mean := sum / float64(len(x))
	var energy float64
	for _, v := range x {
		d := v - mean
		energy += d * d
	}
	if energy == 0 {
		return f
	}
	scale := 1 / (math.Sqrt(float64(len(x))) * math.Sqrt(energy))
	for h := range o.cos {
		var re, im float64
		c, s := o.cos[h], o.sin[h]
		for i, v := range x {
			d := v - mean
			re += d * c[i]
			im -= d * s[i]
		}
		if 2*h < featureDims {
			f[2*h] = re * scale
		}
		if 2*h+1 < featureDims {
			f[2*h+1] = im * scale
		}
	}
	return f
}

// streamOracle holds one stream's regenerated values (window prefill
// first, then the live points) and rebuilds its MBRs on demand.
type streamOracle struct {
	dft    *directDFT
	beta   int
	values []float64

	// boxes memoizes rebuilt MBRs by seq; built marks the filled slots.
	boxes []box
	built []bool
}

// newStreamOracle replays n values (prefill included) from a generator
// identical to the one the system consumed.
func newStreamOracle(dft *directDFT, beta int, gen stream.Generator, n int64) *streamOracle {
	values := make([]float64, n)
	for i := range values {
		values[i] = gen.Next()
	}
	s := &streamOracle{dft: dft, beta: beta, values: values}
	s.boxes = make([]box, s.seqs())
	s.built = make([]bool, s.seqs())
	return s
}

// seqs returns how many complete MBRs the regenerated values contain.
func (s *streamOracle) seqs() uint64 {
	live := len(s.values) - s.dft.window
	if live < 0 {
		return 0
	}
	return uint64(live / s.beta)
}

// mbr rebuilds MBR seq: live point p (1-based) sees the window
// values[p : p+window], and seq q folds live points q·beta+1 … (q+1)·beta.
// Not safe for concurrent use on one stream.
func (s *streamOracle) mbr(seq uint64) box {
	if s.built[seq] {
		return s.boxes[seq]
	}
	var b box
	w := s.dft.window
	first := int(seq)*s.beta + 1
	for k := 0; k < s.beta; k++ {
		f := s.dft.feature(s.values[first+k : first+k+w])
		if k == 0 {
			b = box{lo: f, hi: f}
			continue
		}
		for d := range f {
			b.lo[d] = math.Min(b.lo[d], f[d])
			b.hi[d] = math.Max(b.hi[d], f[d])
		}
	}
	s.boxes[seq], s.built[seq] = b, true
	return b
}

// precompute rebuilds MBRs [from[i], to[i]) of every stream i, one stream
// per task on all CPUs; later mbr calls for those seqs are lookups.
func precompute(streams []*streamOracle, from, to []uint64) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				for q := from[i]; q < to[i]; q++ {
					streams[i].mbr(q)
				}
			}
		}()
	}
	for i := range streams {
		next <- i
	}
	close(next)
	wg.Wait()
}
