// Package core implements the paper's primary contribution: the adaptive
// and scalable middleware for distributed data-stream indexing on top of a
// content-based routing substrate (§IV).
//
// Each node of the overlay runs a DataCenter (a sensor proxy / base
// station). The middleware offers the application view of the paper's
// Figure 5:
//
//   - post new stream data values (one-time update(summary, stream)),
//   - subscribe continuous similarity queries (one-time subscribe(pattern),
//     periodic push_similarity_info),
//   - subscribe continuous inner-product queries (one-time
//     subscribe(inner_product), periodic push_inner_product_info).
//
// Under the hood it computes incremental DFT summaries per stream, batches
// them into MBRs, routes the MBRs by content (mapping function h, Eq. 6),
// replicates them over their key range, disseminates similarity queries to
// the range [h(q1-r), h(q1+r)], matches queries against stored MBRs with
// the lower-bounding MINDIST test, funnels candidates along the ring to the
// range's middle node, and pushes aggregated responses to clients — plus
// the location-service path for inner-product queries (§IV-D).
package core

import (
	"fmt"

	"streamdex/internal/dht"
	"streamdex/internal/dsp"
	"streamdex/internal/sim"
)

// Config collects the middleware parameters. The defaults reproduce the
// evaluation configuration of §V (Table I).
type Config struct {
	// Space is the identifier universe shared with the routing substrate.
	Space dht.Space

	// WindowSize is the sliding-window length w of every stream.
	WindowSize int
	// Coeffs is how many leading DFT coefficients each stream summary
	// retains (including the DC term).
	Coeffs int
	// FeatureDims is the dimensionality of the unit feature space the
	// index works in (real/imaginary parts unpacked; Fig. 3(b) uses 3).
	FeatureDims int
	// Norm is the stream normalization: ZNorm for correlation-style
	// similarity (the default), UnitNorm for subsequence matching.
	Norm dsp.Mode

	// Beta is the MBR batching factor: every Beta consecutive feature
	// vectors form one MBR (§IV-G).
	Beta int

	// MBRLifespan (BSPAN) is how long stored MBRs live before removal.
	MBRLifespan sim.Time
	// PushPeriod (NPER) is the period of all periodic exchanges:
	// neighbor similarity notifications, response pushes to clients, and
	// inner-product result pushes.
	PushPeriod sim.Time

	// RangeMode selects sequential or bidirectional range multicast
	// (§IV-C).
	RangeMode dht.RangeMode

	// Seed drives all middleware-internal randomness (tick staggering).
	Seed int64

	// StoreShards is the number of independently mutated L₁-band shards the
	// per-node MBR store is split into, on every substrate (values < 1 mean
	// one). Live nodes set it to a multiple of the core count so workers
	// index and match in parallel; the simulator's single goroutine gains
	// nothing from more than one and leaves it 0.
	StoreShards int

	// Sketches enables the continuous-query engine's windowed aggregates:
	// every locally sourced stream maintains an ECM-style exponential-
	// histogram sketch of its raw values, published over the key range of
	// each finished MBR. Off by default — sketch traffic only flows for
	// deployments that opt in, so the paper's evaluation workloads are
	// unchanged. A sketch spans MBRLifespan (the same soft-state horizon
	// as the MBRs) and is parameterized by the sketch* constants below.
	Sketches bool

	// Replicas is the hot-range replication factor: every stored MBR is
	// additionally walked down Replicas-1 ring successors of each natural
	// coverer, point queries stride over the covering range and pick one
	// replica by power-of-two-choices over gossiped load reports, and
	// origins republish their live MBRs each push period so replica sets
	// re-home after churn. Values <= 1 disable the machinery entirely
	// (the default): no replica traffic, no load gossip, and the exact
	// historical message schedule — golden figure rows are bitwise
	// unchanged.
	Replicas int

	// AdmitRate and AdmitBurst parameterize per-node admission control on
	// data-plane ingest: a token bucket refilled at AdmitRate tokens/s
	// with capacity AdmitBurst, charged one token per MBR/replica store
	// operation. When the bucket is empty the store operation is shed
	// (counted in metrics.DataPlane.AdmitShed) while forwarding still
	// proceeds, so overload degrades to bounded staleness on the
	// overloaded node instead of unbounded queue growth. AdmitRate <= 0
	// disables admission control (the default).
	AdmitRate  float64
	AdmitBurst float64
}

// The per-stream sketch parameterization (Config.Sketches).
const (
	// sketchK is the exponential-histogram error parameter: at most K+1
	// buckets per size class, ~25% relative error.
	sketchK = 4
	// sketchBands is how many equal-width sub-ranges of
	// [sketchLo, sketchHi) the quantile bank tracks.
	sketchBands = 8
	// sketchLo and sketchHi delimit the raw-value range the quantile bank
	// buckets: the bounded random-walk range of the workload generator.
	// Out-of-range values clamp into the edge bands.
	sketchLo, sketchHi = 0, 1000
)

// DefaultConfig returns the Table I configuration: BSPAN 5 s, NPER 2 s, a
// 32-bit ring, 4096-point windows summarized by 3 complex coefficients
// unpacked into 3 feature dimensions, z-normalization, batching factor 25,
// and sequential range multicast.
//
// The window/batch combination reproduces the paper's regime: one MBR per
// stream per ~5 s (matching BSPAN) whose key range covers only a couple of
// nodes even at N = 500 ("our mechanism of MBR creation generated MBRs
// with relatively small ranges so that the contribution of component b)
// is negligible"). Consecutive features of a 4096-point sliding window
// drift slowly, which is exactly the Fourier locality the batching
// exploits; the incremental DFT keeps per-item cost O(k) regardless of the
// window length.
func DefaultConfig() Config {
	return Config{
		Space:       dht.NewSpace(32),
		WindowSize:  4096,
		Coeffs:      3,
		FeatureDims: 3,
		Norm:        dsp.ZNorm,
		Beta:        25,
		MBRLifespan: 5 * sim.Second,
		PushPeriod:  2 * sim.Second,
		RangeMode:   dht.RangeSequential,
		Seed:        1,
	}
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	if c.Space.M == 0 {
		return fmt.Errorf("core: config without identifier space")
	}
	if c.WindowSize <= 1 {
		return fmt.Errorf("core: window size %d", c.WindowSize)
	}
	if c.Coeffs < 1 || c.Coeffs > c.WindowSize/2 {
		return fmt.Errorf("core: %d coefficients for window %d", c.Coeffs, c.WindowSize)
	}
	usable := 2 * c.Coeffs
	if c.Norm == dsp.ZNorm {
		usable = 2 * (c.Coeffs - 1) // DC is dropped
	}
	if c.FeatureDims < 1 || c.FeatureDims > usable {
		return fmt.Errorf("core: %d feature dims from %d usable coordinates", c.FeatureDims, usable)
	}
	if c.Beta < 1 {
		return fmt.Errorf("core: batching factor %d", c.Beta)
	}
	if c.MBRLifespan <= 0 || c.PushPeriod <= 0 {
		return fmt.Errorf("core: non-positive lifespan/period")
	}
	if c.Replicas < 0 {
		return fmt.Errorf("core: negative replication factor %d", c.Replicas)
	}
	if c.AdmitRate > 0 && c.AdmitBurst <= 0 {
		return fmt.Errorf("core: admission rate %g with non-positive burst %g", c.AdmitRate, c.AdmitBurst)
	}
	return nil
}

// skipDC reports whether feature extraction drops the DC coefficient
// (z-normalized streams have X_0 = 0 identically).
func (c Config) skipDC() bool { return c.Norm == dsp.ZNorm }
