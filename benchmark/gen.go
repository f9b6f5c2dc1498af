package main

import (
	"fmt"
	"sync/atomic"

	"streamdex/internal/sim"
	"streamdex/internal/stream"
)

// genProbe wraps a stream's generator. It is the benchmark's view of the
// ingest path from outside: every data point the system consumes passes
// through Next, so the probe counts points, stamps the instant each
// MBR-closing point was emitted (the start of a detection's latency), and
// — on traced runs — records inter-arrival gaps.
//
// The data center calls Next under the stream's own lock, one call at a
// time per stream, so closeAt and gaps need no lock of their own; the
// harness reads them only after the ring is closed. calls is atomic
// because the harness reads it mid-run to delimit the measure window.
type genProbe struct {
	inner   stream.Generator
	prefill int64 // Next calls made by registration, before any live point
	beta    int64

	calls atomic.Int64

	// closeAt[q] is when the live point that closed MBR seq q was emitted:
	// the batcher numbers MBRs from 0 and, with a prefilled window, every
	// live point yields a feature, so seq q closes at live point (q+1)·beta.
	closeAt []int64

	// traceGaps enables per-call gap recording (traced runs, one stream per
	// node); lastCall is the previous call's timestamp.
	traceGaps bool
	lastCall  int64
	gaps      []int64
}

func (g *genProbe) Next() float64 {
	v := g.inner.Next()
	live := g.calls.Add(1) - g.prefill
	closes := live > 0 && live%g.beta == 0
	gap := g.traceGaps && live > 0
	if !closes && !gap {
		return v
	}
	t := nowNs()
	if gap {
		if g.lastCall != 0 {
			g.gaps = append(g.gaps, t-g.lastCall)
		}
		g.lastCall = t
	}
	if closes {
		g.closeAt = append(g.closeAt, t)
	}
	return v
}

// livePoints returns how many live (post-prefill) points the system has
// drawn so far.
func (g *genProbe) livePoints() int64 {
	if n := g.calls.Load() - g.prefill; n > 0 {
		return n
	}
	return 0
}

// streamName is the id of stream j sourced at node i.
func streamName(node, j int) string { return fmt.Sprintf("n%d-s%d", node, j) }

// newWalks builds the seeded random-walk generators of a live workload,
// walks[node][stream]. sim.Rand.Fork draws from its parent, so the forks
// must be made in this fixed order; calling newWalks again with the same
// arguments yields generators that replay the identical values, which is
// how the oracle sees every point without the probe storing any.
func newWalks(seed int64, nodes, perNode int) [][]*stream.RandomWalk {
	root := sim.NewRand(seed).Fork("bench-streams")
	out := make([][]*stream.RandomWalk, nodes)
	for i := range out {
		nodeRng := root.Fork(fmt.Sprintf("node-%d", i))
		out[i] = make([]*stream.RandomWalk, perNode)
		for j := range out[i] {
			out[i][j] = stream.DefaultRandomWalk(nodeRng.Fork(fmt.Sprintf("walk-%d", j)))
		}
	}
	return out
}
