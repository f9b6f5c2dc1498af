package streamdex

import (
	"fmt"
	"time"

	"streamdex/internal/chord"
	"streamdex/internal/core"
	"streamdex/internal/dht"
	"streamdex/internal/dsp"
	"streamdex/internal/metrics"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/stream"
	"streamdex/internal/workload"
)

// NodeID identifies a data center on the identifier ring.
type NodeID = dht.Key

// QueryID identifies a posted continuous query.
type QueryID = query.ID

// Match is one reported similarity candidate.
type Match = query.Match

// IPValue is one periodic inner-product result.
type IPValue = query.IPValue

// Generator produces successive stream values (see GeneratorFunc for the
// functional form).
type Generator = stream.Generator

// GeneratorFunc adapts a plain function to a Generator.
type GeneratorFunc = stream.GeneratorFunc

// Normalization selects how stream windows are normalized before feature
// extraction.
type Normalization int

// Normalization modes.
const (
	// Correlation z-normalizes windows (zero mean, unit norm): similarity
	// then corresponds to linear correlation — the right mode for "find
	// streams that move together".
	Correlation Normalization = iota
	// Pattern scales windows to the unit hyper-sphere without centering —
	// the right mode for subsequence/pattern matching.
	Pattern
)

// ClusterOptions configures a cluster. The zero value of every field picks
// the paper's evaluation default.
type ClusterOptions struct {
	// Nodes is the number of data centers (default 16).
	Nodes int
	// WindowSize is the sliding window length (default 4096).
	WindowSize int
	// FeatureDims is the feature-space dimensionality (default 3).
	FeatureDims int
	// BatchFactor is the MBR batching factor beta (default 25).
	BatchFactor int
	// Normalization selects Correlation (default) or Pattern matching.
	Normalization Normalization
	// HopDelay is the simulated per-overlay-hop latency (default 50 ms).
	HopDelay time.Duration
	// SummaryLifespan is how long stored summaries stay queryable
	// (default 5 s).
	SummaryLifespan time.Duration
	// PushPeriod is the cadence of periodic pushes (default 2 s).
	PushPeriod time.Duration
	// Bidirectional enables middle-node bidirectional range multicast.
	Bidirectional bool
	// TreeMulticast enables tree range dissemination over each node's
	// routing entries — Chord fingers, Koorde de Bruijn pointers with
	// routed split legs, the Pastry routing table — for logarithmic
	// propagation delay. Mutually exclusive with Bidirectional.
	TreeMulticast bool
	// Seed drives all randomness (default 1).
	Seed int64
	// Churn enables the ring-maintenance protocol so nodes can be failed
	// and the overlay self-repairs (slightly more simulation work).
	Churn bool
	// Substrate selects the routing layer: "chord" (default) or "koorde",
	// ring machines with full membership dynamics, or "pastry" (static
	// prefix-routing overlay, no Churn). The middleware behaves
	// identically on all of them.
	Substrate string
}

// Cluster is a deployment of the distributed stream index over a simulated
// Chord overlay — the public face of the library. All methods must be
// called from one goroutine; time only advances inside Run.
type Cluster struct {
	eng *sim.Engine
	net dht.Substrate
	// chordNet is non-nil on a ring machine (Chord, Koorde), enabling
	// FailNode.
	chordNet *chord.Network
	mw       *core.Middleware
	ids      []dht.Key
}

// NewCluster builds a stable overlay of opts.Nodes data centers with the
// middleware attached.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	if opts.Nodes == 0 {
		opts.Nodes = 16
	}
	if opts.Nodes < 2 {
		return nil, fmt.Errorf("streamdex: need at least 2 nodes, got %d", opts.Nodes)
	}
	cfg := core.DefaultConfig()
	if opts.WindowSize > 0 {
		cfg.WindowSize = opts.WindowSize
	}
	if opts.FeatureDims > 0 {
		cfg.FeatureDims = opts.FeatureDims
	}
	if opts.BatchFactor > 0 {
		cfg.Beta = opts.BatchFactor
	}
	if opts.Normalization == Pattern {
		cfg.Norm = dsp.UnitNorm
	}
	if opts.SummaryLifespan > 0 {
		cfg.MBRLifespan = fromDuration(opts.SummaryLifespan)
	}
	if opts.PushPeriod > 0 {
		cfg.PushPeriod = fromDuration(opts.PushPeriod)
	}
	if opts.Bidirectional && opts.TreeMulticast {
		return nil, fmt.Errorf("streamdex: Bidirectional and TreeMulticast are mutually exclusive")
	}
	if opts.Bidirectional {
		cfg.RangeMode = dht.RangeBidirectional
	}
	if opts.TreeMulticast {
		cfg.RangeMode = dht.RangeTree
	}
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	hop := 50 * sim.Millisecond
	if opts.HopDelay > 0 {
		hop = fromDuration(opts.HopDelay)
	}
	eng := sim.NewEngine()
	ring := chord.Config{Space: cfg.Space, HopDelay: hop, SuccListLen: 8}
	if opts.Churn {
		ring.StabilizeEvery = 500 * sim.Millisecond
		ring.FixFingersEvery = 250 * sim.Millisecond
	}
	net, err := workload.NewSubstrate(eng, opts.Substrate, ring)
	if err != nil {
		return nil, err
	}
	ids := chord.SortKeys(chord.UniformIDs(cfg.Space, opts.Nodes))
	net.BuildStable(ids, nil)
	mw, err := core.New(net, cfg)
	if err != nil {
		return nil, err
	}
	chordNet, _ := net.(*chord.Network)
	return &Cluster{eng: eng, net: net, chordNet: chordNet, mw: mw, ids: ids}, nil
}

func fromDuration(d time.Duration) sim.Time {
	return sim.Time(d / time.Microsecond)
}

// Nodes returns the identifiers of all live data centers in ring order.
func (c *Cluster) Nodes() []NodeID { return c.net.NodeIDs() }

// Run advances virtual time by d, executing all stream, routing and query
// activity that falls within it.
func (c *Cluster) Run(d time.Duration) { c.eng.RunFor(fromDuration(d)) }

// Now returns the current virtual time since cluster creation.
func (c *Cluster) Now() time.Duration {
	return time.Duration(c.eng.Now()) * time.Microsecond
}

// AddStream registers a stream sourced at the given node: every period one
// value is drawn from gen, summarized incrementally, and indexed across
// the cluster. Prefill seeds the window with history so the stream is
// queryable immediately.
func (c *Cluster) AddStream(at NodeID, id string, gen Generator, period time.Duration) error {
	return c.addStream(at, id, gen, period, false)
}

// AddStreamPrefilled is AddStream with the window primed from gen at
// registration (the stream existed before the deployment).
func (c *Cluster) AddStreamPrefilled(at NodeID, id string, gen Generator, period time.Duration) error {
	return c.addStream(at, id, gen, period, true)
}

func (c *Cluster) addStream(at NodeID, id string, gen Generator, period time.Duration, prefill bool) error {
	dc := c.mw.DataCenter(at)
	if dc == nil {
		return fmt.Errorf("streamdex: unknown node %d", at)
	}
	return dc.RegisterStream(stream.Stream{
		ID:      id,
		Gen:     gen,
		Period:  fromDuration(period),
		Prefill: prefill,
	})
}

// SimilarityQuery poses a continuous similarity query at the origin node:
// pattern must hold exactly WindowSize values; every stream whose summary
// stays within radius of the pattern's is reported during the lifespan.
func (c *Cluster) SimilarityQuery(origin NodeID, pattern []float64, radius float64, lifespan time.Duration) (QueryID, error) {
	return c.mw.PostSimilaritySeries(origin, pattern, radius, fromDuration(lifespan))
}

// SimilarityQueryToStream poses a similarity query whose pattern is the
// current window of a locally registered stream — "find everything that
// currently looks like my stream".
func (c *Cluster) SimilarityQueryToStream(origin NodeID, streamID string, radius float64, lifespan time.Duration) (QueryID, error) {
	dc := c.mw.DataCenter(origin)
	if dc == nil {
		return 0, fmt.Errorf("streamdex: unknown node %d", origin)
	}
	f := dc.StreamFeature(streamID)
	if f == nil {
		return 0, fmt.Errorf("streamdex: stream %q not ready at node %d", streamID, origin)
	}
	return c.mw.PostSimilarity(origin, f, radius, fromDuration(lifespan))
}

// InnerProductQuery subscribes to the weighted inner product of a stream's
// window: index selects window positions (0 = oldest value), weights the
// coefficients. Values are pushed periodically during the lifespan.
func (c *Cluster) InnerProductQuery(origin NodeID, streamID string, index []int, weights []float64, lifespan time.Duration) (QueryID, error) {
	return c.mw.PostInnerProduct(origin, streamID, index, weights, fromDuration(lifespan))
}

// AverageQuery subscribes to the mean of the most recent n window values
// of a stream — the paper's "average closing price for the last month".
func (c *Cluster) AverageQuery(origin NodeID, streamID string, n int, lifespan time.Duration) (QueryID, error) {
	w := c.mw.Config().WindowSize
	q := query.Average(streamID, w, n, fromDuration(lifespan))
	return c.mw.PostInnerProduct(origin, streamID, q.Index, q.Weights, fromDuration(lifespan))
}

// Matches returns the deduplicated similarity candidates reported so far.
func (c *Cluster) Matches(id QueryID) []Match { return c.mw.SimilarityMatches(id) }

// MatchedStreams returns the distinct stream ids reported for a
// similarity query.
func (c *Cluster) MatchedStreams(id QueryID) []string { return c.mw.MatchedStreams(id) }

// Values returns the inner-product values received so far.
func (c *Cluster) Values(id QueryID) []IPValue { return c.mw.InnerProductValues(id) }

// OnSimilarity installs a callback invoked at every periodic response
// delivery with the newly reported matches.
func (c *Cluster) OnSimilarity(fn func(QueryID, []Match)) { c.mw.OnSimilarity = fn }

// OnInnerProduct installs a callback invoked at every periodic value push.
func (c *Cluster) OnInnerProduct(fn func(QueryID, IPValue)) { c.mw.OnInnerProduct = fn }

// FailNode crashes a data center abruptly. With ClusterOptions.Churn the
// overlay detects the failure and self-repairs; stored summaries are soft
// state and regenerate from live streams. It returns an error on the
// static pastry substrate, which models a fixed deployment.
func (c *Cluster) FailNode(id NodeID) error {
	if c.chordNet == nil {
		return fmt.Errorf("streamdex: node failure requires the chord substrate")
	}
	c.chordNet.Fail(id)
	return nil
}

// CorrelationQuery poses a similarity query expressed as a minimum
// correlation threshold — "find all streams whose windows correlate with
// the pattern at least minCorr" (§III-B.2). The threshold is converted to
// the equivalent feature radius; the cluster must use Correlation
// normalization.
func (c *Cluster) CorrelationQuery(origin NodeID, pattern []float64, minCorr float64, lifespan time.Duration) (QueryID, error) {
	if c.mw.Config().Norm != dsp.ZNorm {
		return 0, fmt.Errorf("streamdex: correlation queries require Correlation normalization")
	}
	if minCorr <= -1 || minCorr > 1 {
		return 0, fmt.Errorf("streamdex: correlation threshold %v outside (-1, 1]", minCorr)
	}
	return c.SimilarityQuery(origin, pattern, query.RadiusForCorrelation(minCorr), lifespan)
}

// Stats summarizes the cluster's traffic since creation (or the last
// ResetStats).
type Stats struct {
	// MessagesPerNodePerSecond is the mean network load per data center.
	MessagesPerNodePerSecond float64
	// Events counts input events: MBR summaries published, queries
	// posted, responses pushed.
	MBRs, Queries, Responses int64
	// DroppedMessages counts routing losses (non-zero only under churn).
	DroppedMessages int64
}

// Stats returns current traffic statistics.
func (c *Cluster) Stats() Stats {
	rep := c.mw.Collector().Snapshot(c.eng.Now(), c.net.NodeIDs())
	return Stats{
		MessagesPerNodePerSecond: rep.TotalLoad,
		MBRs:                     rep.Events[metrics.EventMBR],
		Queries:                  rep.Events[metrics.EventQuery],
		Responses:                rep.Events[metrics.EventResponse],
		DroppedMessages:          c.net.Dropped(),
	}
}

// ResetStats zeroes the traffic counters (e.g. after warm-up).
func (c *Cluster) ResetStats() { c.mw.Collector().Reset(c.eng.Now()) }

// WindowSize returns the configured sliding-window length, the required
// pattern length for SimilarityQuery.
func (c *Cluster) WindowSize() int { return c.mw.Config().WindowSize }
