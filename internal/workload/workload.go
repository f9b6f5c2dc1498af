// Package workload drives full-system simulations with the evaluation
// configuration of the paper (§V, Table I):
//
//	PMIN  150 ms   minimum stream period
//	PMAX  250 ms   maximum stream period
//	BSPAN 5000 ms  MBR lifespan
//	QRATE 2 q/s    Poisson query arrival rate
//	QMIN  20 s     minimum query lifespan
//	QMAX  100 s    maximum query lifespan
//	NPER  2 s      period of responses and neighbor exchanges
//
// Every node is the source of exactly one stream; every query is issued by
// a random node; query features are drawn uniformly; the default query
// radius is 0.1 (0.2 for the Fig. 7(b) variant).
package workload

import (
	"cmp"
	"fmt"
	"strings"

	"streamdex/internal/chord"
	"streamdex/internal/core"
	"streamdex/internal/dht"
	_ "streamdex/internal/koorde" // register the koorde routing machine
	"streamdex/internal/metrics"
	"streamdex/internal/overlay"
	_ "streamdex/internal/pastry" // register the pastry routing machine
	"streamdex/internal/sim"
	"streamdex/internal/stream"
	"streamdex/internal/summary"
)

// Config is the full workload and runtime configuration.
type Config struct {
	// Nodes is the system size; the paper sweeps 50..500.
	Nodes int

	// PMin/PMax bound the per-stream period (Table I: 150-250 ms).
	PMin, PMax sim.Time
	// QueryRate is the Poisson arrival rate of similarity queries
	// (Table I: 2 q/s), expressed as the mean gap = 1/rate.
	QueryGap sim.Time
	// QMin/QMax bound query lifespans (Table I: 20-100 s).
	QMin, QMax sim.Time
	// Radius is the similarity query radius (0.1 for most experiments).
	Radius float64

	// Warmup runs before counters reset; Measure is the accounted
	// interval.
	Warmup, Measure sim.Time

	// HopDelay is the simulated per-hop latency (50 ms).
	HopDelay sim.Time

	// Core carries the middleware parameters (window, coefficients,
	// batching, BSPAN, NPER, range-multicast mode).
	Core core.Config

	// Seed drives every random choice in the run.
	Seed int64

	// Placement selects node placement: false = consistent hashing
	// (default), true = idealized equidistant identifiers.
	Equidistant bool

	// Substrate names the routing machine registered with
	// internal/overlay — "chord" (default), "koorde" or "pastry" — that
	// the simulated network hosts. The middleware runs unmodified on all
	// of them (§II-B: the solution "can use virtually any P2P routing
	// protocol").
	Substrate string

	// FailAt, when positive, crashes FailCount random nodes at that
	// instant (after warm-up) — the resilience experiment. Maintenance is
	// enabled automatically, so a static machine is refused.
	FailAt    sim.Time
	FailCount int

	// Ops enables the continuous-query-engine workload riding alongside
	// the similarity queries: standing subscriptions, windowed
	// aggregates and top-k monitors arrive as one Poisson process (mean
	// gap OpsGap), round-robin across the three operator kinds.
	// Subscriptions use random feature boxes, aggregates and top-k
	// monitors random sub-ranges of the stream value / feature space.
	// Implies per-stream sketches.
	Ops    bool
	OpsGap sim.Time

	// VNodes is the number of ring positions each physical node owns
	// (virtual nodes). Every position is a full overlay node; streams and
	// query origins attach to one primary position per physical node, and
	// Run.PhysOf maps every ring id back to its physical owner so load
	// reports can be aggregated per machine. Values <= 1 reproduce the
	// historical one-id-per-node runs exactly.
	VNodes int

	// Skew, when positive, switches query targeting from uniform to a
	// Zipf(Skew) rank-frequency distribution over SkewRanks hot routing
	// coordinates — the skewed millions-of-users workload of the loadskew
	// experiment. Zero (the default) keeps the Table I uniform draws,
	// bitwise unchanged.
	Skew float64
	// SkewRanks is the number of distinct hot targets (default 1024).
	SkewRanks int
}

// DefaultConfig returns the Table I workload at the given system size.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:    nodes,
		PMin:     150 * sim.Millisecond,
		PMax:     250 * sim.Millisecond,
		QueryGap: 500 * sim.Millisecond, // 2 queries per second
		QMin:     20 * sim.Second,
		QMax:     100 * sim.Second,
		Radius:   0.1,
		Warmup:   40 * sim.Second,
		Measure:  100 * sim.Second,
		HopDelay: 50 * sim.Millisecond,
		Core:     core.DefaultConfig(),
		Seed:     1,
		OpsGap:   2 * sim.Second,
	}
}

// Validate reports a configuration error.
func (c Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("workload: %d nodes", c.Nodes)
	}
	if c.PMin <= 0 || c.PMax < c.PMin {
		return fmt.Errorf("workload: stream period bounds [%v,%v]", c.PMin, c.PMax)
	}
	if c.QueryGap <= 0 {
		return fmt.Errorf("workload: non-positive query gap")
	}
	if c.QMin <= 0 || c.QMax < c.QMin {
		return fmt.Errorf("workload: query lifespan bounds [%v,%v]", c.QMin, c.QMax)
	}
	if c.Radius < 0 || c.Radius > 1 {
		return fmt.Errorf("workload: radius %v", c.Radius)
	}
	if c.Warmup < 0 || c.Measure <= 0 {
		return fmt.Errorf("workload: warmup/measure intervals")
	}
	if c.FailAt > 0 && c.FailCount <= 0 {
		return fmt.Errorf("workload: FailAt set without FailCount")
	}
	if c.Ops && c.OpsGap <= 0 {
		return fmt.Errorf("workload: Ops set with non-positive OpsGap")
	}
	if c.VNodes < 0 {
		return fmt.Errorf("workload: negative virtual-node count %d", c.VNodes)
	}
	if c.Skew < 0 {
		return fmt.Errorf("workload: negative skew exponent %v", c.Skew)
	}
	if c.SkewRanks < 0 {
		return fmt.Errorf("workload: negative skew rank count %d", c.SkewRanks)
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	_, err := NewSubstrate(sim.NewEngine(), c.Substrate, c.ring())
	return err
}

// ring returns the overlay parameters of the run. Static experiments run
// without maintenance so every simulated event is accounted traffic;
// failure injection turns the self-repair protocol on.
func (c Config) ring() chord.Config {
	rc := chord.Config{Space: c.Core.Space, HopDelay: c.HopDelay, SuccListLen: 8}
	if c.FailAt > 0 {
		rc.StabilizeEvery = 250 * sim.Millisecond
		rc.FixFingersEvery = 125 * sim.Millisecond
	}
	return rc
}

// NewSubstrate builds the simulated network hosting the routing machine
// registered with internal/overlay under name ("chord" when empty). ring
// carries the identifier space, hop delay, successor-list length and
// maintenance periods; its Machine field is ignored. Maintenance
// (ring.StabilizeEvery > 0, what churn and failure injection need) is an
// error on a static machine, which has no membership dynamics.
func NewSubstrate(eng *sim.Engine, name string, ring chord.Config) (*chord.Network, error) {
	ring.Machine = cmp.Or(name, "chord")
	fac, ok := overlay.Lookup(ring.Machine)
	if !ok {
		return nil, fmt.Errorf("workload: unknown substrate %q (registered machines: %s)",
			name, strings.Join(overlay.Names(), ", "))
	}
	if fac.Static && ring.StabilizeEvery > 0 {
		return nil, fmt.Errorf("workload: failure injection requires a ring substrate with maintenance")
	}
	return chord.New(eng, ring), nil
}

// Run is a fully constructed simulation ready to execute.
type Run struct {
	Cfg Config
	Eng *sim.Engine
	Net *chord.Network
	MW  *core.Middleware
	IDs []dht.Key

	// Primaries holds one ring id per physical node (sorted): the
	// position its stream attaches to and queries originate from. Equal
	// to IDs when VNodes <= 1.
	Primaries []dht.Key
	// PhysOf maps every ring id to its physical node index [0, Nodes).
	PhysOf map[dht.Key]int

	// Failed lists the nodes crashed by the failure-injection schedule.
	Failed []dht.Key

	queries *sim.PoissonProc
	ops     *sim.PoissonProc
}

// Build constructs the overlay, middleware, streams and query process, but
// does not execute anything yet.
func Build(cfg Config) (*Run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Core.Seed = cfg.Seed
	if cfg.Ops {
		cfg.Core.Sketches = true // aggregates need the windowed sketches
	}
	eng := sim.NewEngine()
	vn := cfg.VNodes
	if vn < 1 {
		vn = 1
	}
	total := cfg.Nodes * vn
	// Physical ownership is assigned in generation order, round-robin, so
	// each physical node's vn ring positions interleave around the ring;
	// the first Nodes generated ids become the primaries (stream homes and
	// query origins). With vn == 1 every id is its own primary and the
	// construction reduces bitwise to the historical one.
	physOf := make(map[dht.Key]int, total)
	primaries := make([]dht.Key, cfg.Nodes)
	var ids []dht.Key
	if cfg.Equidistant {
		ids = chord.EquidistantIDs(cfg.Core.Space, total)
		for i, id := range ids {
			if i < cfg.Nodes {
				primaries[i] = id
			}
			physOf[id] = i % cfg.Nodes
		}
	} else {
		raw := chord.UniformIDs(cfg.Core.Space, total)
		for i, id := range raw {
			if i < cfg.Nodes {
				primaries[i] = id
			}
			physOf[id] = i % cfg.Nodes
		}
		ids = chord.SortKeys(raw)
	}
	chord.SortKeys(primaries)
	net, err := NewSubstrate(eng, cfg.Substrate, cfg.ring())
	if err != nil {
		return nil, err
	}
	net.BuildStable(ids, nil)
	mw, err := core.New(net, cfg.Core)
	if err != nil {
		return nil, err
	}

	root := sim.NewRand(cfg.Seed)
	streamRng := root.Fork("streams")
	periodRng := root.Fork("periods")
	// One stream per physical node (§V: "each node is a source of exactly
	// one stream"), attached to its primary ring position.
	for i, id := range primaries {
		gen := stream.DefaultRandomWalk(streamRng.Fork(fmt.Sprintf("walk-%d", i)))
		st := stream.Stream{
			ID:      fmt.Sprintf("stream-%d", i),
			Gen:     gen,
			Period:  periodRng.UniformTime(cfg.PMin, cfg.PMax),
			Prefill: true, // streams predate the deployment (§V warm-up)
		}
		if err := mw.DataCenter(id).RegisterStream(st); err != nil {
			return nil, err
		}
	}

	r := &Run{Cfg: cfg, Eng: eng, Net: net, MW: mw, IDs: ids, Primaries: primaries, PhysOf: physOf}

	// Failure injection: crash FailCount random nodes at warm-up +
	// FailAt; the ring repairs itself through stabilization while the
	// workload keeps running.
	if cfg.FailAt > 0 {
		failRng := root.Fork("failures")
		eng.ScheduleAt(cfg.Warmup+cfg.FailAt, func() {
			for i := 0; i < cfg.FailCount; i++ {
				victims := net.NodeIDs()
				if len(victims) <= 2 {
					break
				}
				v := victims[failRng.Intn(len(victims))]
				net.Fail(v)
				r.Failed = append(r.Failed, v)
			}
		})
	}

	// Query process: Poisson arrivals at random physical nodes with
	// uniform lifespans. The routing coordinate is uniform by default; a
	// positive Skew draws it from a Zipf rank-frequency distribution over
	// a fixed set of hot coordinates instead.
	var zipf *Zipf
	if cfg.Skew > 0 {
		ranks := cfg.SkewRanks
		if ranks <= 0 {
			ranks = DefaultSkewRanks
		}
		zipf = NewZipf(cfg.Skew, ranks)
	}
	queryRng := root.Fork("queries")
	r.queries = eng.Poisson(queryRng, cfg.QueryGap, func() {
		origin := primaries[queryRng.Intn(len(primaries))]
		f := make(summary.Feature, cfg.Core.FeatureDims)
		if zipf != nil {
			f[0] = zipf.Coord(zipf.Sample(queryRng))
		} else {
			f[0] = queryRng.Uniform(-1, 1)
		}
		for d := 1; d < len(f); d++ {
			f[d] = queryRng.Uniform(-0.3, 0.3)
		}
		life := queryRng.UniformTime(cfg.QMin, cfg.QMax)
		// Post errors cannot occur for well-formed generated queries.
		if _, err := mw.PostSimilarity(origin, f, cfg.Radius, life); err != nil {
			panic(fmt.Sprintf("workload: generated query rejected: %v", err))
		}
	})

	// Continuous-query operators: one Poisson process, round-robin over
	// subscription / aggregate / top-k so every operator kind sees
	// arrivals at a third of the rate.
	if cfg.Ops {
		opsRng := root.Fork("ops")
		dims := cfg.Core.FeatureDims
		kind := 0
		r.ops = eng.Poisson(opsRng, cfg.OpsGap, func() {
			origin := primaries[opsRng.Intn(len(primaries))]
			life := opsRng.UniformTime(cfg.QMin, cfg.QMax)
			var err error
			switch kind % 3 {
			case 0:
				// Random feature box: center anywhere in the normalized
				// coefficient range, half-width 0.05-0.3 per dimension.
				lo := make(summary.Feature, dims)
				hi := make(summary.Feature, dims)
				for d := range lo {
					c := opsRng.Uniform(-1, 1)
					w := opsRng.Uniform(0.05, 0.3)
					lo[d], hi[d] = c-w, c+w
				}
				_, err = mw.PostSubscription(origin, lo, hi, life)
			case 1:
				// Random routing-coordinate sub-range: sketches are
				// replicated over their MBR's coordinate range, so the
				// query range lives in the same normalized space.
				lo := opsRng.Uniform(-1, 0.7)
				_, err = mw.PostAggregate(origin, lo, lo+opsRng.Uniform(0.1, 0.3), life)
			case 2:
				// Random feature sub-range for the frequency monitor.
				lo := opsRng.Uniform(-1, 0.5)
				_, err = mw.PostTopK(origin, 1+opsRng.Intn(5), lo, lo+opsRng.Uniform(0.2, 0.5), life)
			}
			if err != nil {
				panic(fmt.Sprintf("workload: generated operator rejected: %v", err))
			}
			kind++
		})
	}
	return r, nil
}

// Execute runs warm-up, resets the collector, runs the measurement
// interval and returns the traffic report.
func (r *Run) Execute() *metrics.Report {
	r.Eng.RunFor(r.Cfg.Warmup)
	r.MW.Collector().Reset(r.Eng.Now())
	r.Eng.RunFor(r.Cfg.Measure)
	rep := r.MW.Collector().Snapshot(r.Eng.Now(), r.IDs)
	rep.EngineEvents = r.Eng.Executed()
	return rep
}

// Stop halts the query arrival process (used when a caller wants to keep
// simulating without new queries).
func (r *Run) Stop() {
	r.queries.Stop()
	if r.ops != nil {
		r.ops.Stop()
	}
}

// Queries returns the number of queries posted so far.
func (r *Run) Queries() uint64 { return r.queries.Fires() }

// CQEOps returns the number of continuous-query operators posted so far
// (zero when the Ops workload is disabled).
func (r *Run) CQEOps() uint64 {
	if r.ops == nil {
		return 0
	}
	return r.ops.Fires()
}

// RunOnce builds and executes a workload in one call.
func RunOnce(cfg Config) (*metrics.Report, error) {
	r, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	return r.Execute(), nil
}
