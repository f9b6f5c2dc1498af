// Package baseline implements the two strawman designs the paper rejects
// in §IV-A, as quantitative comparators for the distributed index:
//
//   - Centralized: a single dedicated data center receives every stream
//     summary and answers every query. "Such server and the network in its
//     vicinity would have to handle dozens of thousands of messages every
//     second ... the dedicated data center becomes a single point of
//     failure."
//   - Flooding: every summary stays at its source; every similarity query
//     is flooded to the entire network, because "answering such queries
//     requires communication with every data center in the system".
//
// Both run on the same Chord substrate, simulation engine, stream pipeline
// and workload as the real middleware, so message counts are directly
// comparable (ablation A2 in DESIGN.md).
package baseline

import (
	"fmt"

	"streamdex/internal/chord"
	"streamdex/internal/dht"
	"streamdex/internal/dsp"
	"streamdex/internal/metrics"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/stream"
	"streamdex/internal/summary"
)

// Mode selects the strawman.
type Mode int

// Baseline modes.
const (
	// Centralized stores every summary at one dedicated center.
	Centralized Mode = iota
	// Flooding broadcasts every query to all nodes.
	Flooding
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Centralized:
		return "centralized"
	case Flooding:
		return "flooding"
	default:
		return "unknown"
	}
}

// Message kinds (private protocol of the baselines).
const (
	kindSummary  dht.Kind = iota // summary update toward the center
	kindQuery                    // query (to the center, or flooded)
	kindResponse                 // periodic response to the client
)

// classifier maps baseline traffic onto the shared metric categories so
// reports can sit side by side with the middleware's.
type classifier struct{}

func (classifier) Classify(from dht.Key, msg *dht.Message) metrics.Category {
	origin := msg.Hops == 1 && from == msg.Src && msg.Dir == 0
	switch msg.Kind {
	case kindSummary:
		if origin {
			return metrics.MBRSource
		}
		return metrics.MBRTransit
	case kindQuery:
		switch {
		case msg.Dir != 0:
			return metrics.QueryRange
		case origin:
			return metrics.QueryInitial
		default:
			return metrics.QueryTransit
		}
	case kindResponse:
		if origin {
			return metrics.ResponseClient
		}
		return metrics.ResponseTransit
	default:
		return metrics.Other
	}
}

func (classifier) ClassifyHops(msg *dht.Message) metrics.HopClass {
	switch msg.Kind {
	case kindSummary:
		return metrics.HopMBR
	case kindQuery:
		if msg.Dir != 0 {
			return metrics.HopQueryInternal
		}
		return metrics.HopQuery
	case kindResponse:
		return metrics.HopResponse
	default:
		return metrics.HopOther
	}
}

// Config parameterizes a baseline run; it reuses the evaluation's workload
// constants.
type Config struct {
	Mode  Mode
	Nodes int

	WindowSize  int
	Coeffs      int
	FeatureDims int
	Beta        int

	PMin, PMax  sim.Time
	QueryGap    sim.Time
	QMin, QMax  sim.Time
	Radius      float64
	PushPeriod  sim.Time
	MBRLifespan sim.Time

	HopDelay        sim.Time
	Warmup, Measure sim.Time
	Seed            int64
}

// DefaultConfig mirrors workload.DefaultConfig for the baselines.
func DefaultConfig(mode Mode, nodes int) Config {
	return Config{
		Mode:        mode,
		Nodes:       nodes,
		WindowSize:  128,
		Coeffs:      3,
		FeatureDims: 3,
		Beta:        10,
		PMin:        150 * sim.Millisecond,
		PMax:        250 * sim.Millisecond,
		QueryGap:    500 * sim.Millisecond,
		QMin:        20 * sim.Second,
		QMax:        100 * sim.Second,
		Radius:      0.1,
		PushPeriod:  2 * sim.Second,
		MBRLifespan: 5 * sim.Second,
		HopDelay:    50 * sim.Millisecond,
		Warmup:      40 * sim.Second,
		Measure:     100 * sim.Second,
		Seed:        1,
	}
}

// node is one baseline data center.
type node struct {
	id  dht.Key
	sys *System

	sdft    *dsp.SlidingDFT
	batcher *summary.Batcher
	sid     string

	// Center state (centralized mode, only on the center node) and
	// local state (flooding mode, on every node).
	mbrs []*summary.MBR
	subs map[query.ID]*subState
}

type subState struct {
	q       *query.Similarity
	pending []query.Match
	seen    map[string]map[uint64]bool
}

// System is a running baseline deployment.
type System struct {
	cfg Config
	eng *sim.Engine
	net *chord.Network
	col *metrics.Collector
	ids []dht.Key

	nodes map[dht.Key]*node

	// centerKey routes all summaries and queries in centralized mode;
	// the center is its successor node.
	centerKey dht.Key

	nextID query.ID
}

// Build constructs a baseline system with one random-walk stream per node
// and the Poisson query process.
func Build(cfg Config) (*System, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("baseline: %d nodes", cfg.Nodes)
	}
	eng := sim.NewEngine()
	space := dht.NewSpace(32)
	net := chord.New(eng, chord.Config{Space: space, HopDelay: cfg.HopDelay, SuccListLen: 8})
	ids := chord.SortKeys(chord.UniformIDs(space, cfg.Nodes))
	net.BuildStable(ids, nil)

	s := &System{
		cfg:       cfg,
		eng:       eng,
		net:       net,
		col:       metrics.NewCollector(classifier{}),
		ids:       ids,
		nodes:     make(map[dht.Key]*node),
		centerKey: 0,
	}
	net.SetObserver(s.col)

	root := sim.NewRand(cfg.Seed)
	streamRng := root.Fork("streams")
	periodRng := root.Fork("periods")
	for i, id := range ids {
		n := &node{
			id:      id,
			sys:     s,
			sdft:    dsp.NewSlidingDFT(cfg.WindowSize, cfg.Coeffs),
			batcher: summary.NewBatcher(fmt.Sprintf("stream-%d", i), cfg.Beta),
			sid:     fmt.Sprintf("stream-%d", i),
			subs:    make(map[query.ID]*subState),
		}
		s.nodes[id] = n
		net.SetApp(id, n)
		gen := stream.DefaultRandomWalk(streamRng.Fork(fmt.Sprintf("walk-%d", i)))
		period := periodRng.UniformTime(cfg.PMin, cfg.PMax)
		eng.EveryAfter(periodRng.UniformTime(0, period), period, func() { n.streamTick(gen) })
		eng.EveryAfter(periodRng.UniformTime(0, cfg.PushPeriod), cfg.PushPeriod, n.periodTick)
	}

	queryRng := root.Fork("queries")
	eng.Poisson(queryRng, cfg.QueryGap, func() {
		origin := ids[queryRng.Intn(len(ids))]
		f := make(summary.Feature, cfg.FeatureDims)
		f[0] = queryRng.Uniform(-1, 1)
		for d := 1; d < len(f); d++ {
			f[d] = queryRng.Uniform(-0.3, 0.3)
		}
		s.postQuery(origin, f, queryRng.UniformTime(cfg.QMin, cfg.QMax))
	})
	return s, nil
}

// Execute runs warm-up and measurement, returning the traffic report.
func (s *System) Execute() *metrics.Report {
	s.eng.RunFor(s.cfg.Warmup)
	s.col.Reset(s.eng.Now())
	s.eng.RunFor(s.cfg.Measure)
	return s.col.Snapshot(s.eng.Now(), s.ids)
}

// streamTick advances the node's stream and emits summaries.
func (n *node) streamTick(gen stream.Generator) {
	n.sdft.Push(gen.Next())
	if !n.sdft.Full() {
		return
	}
	f := summary.FromCoeffs(n.sdft.NormalizedCoeffs(dsp.ZNorm), n.sys.cfg.FeatureDims, true)
	mbr := n.batcher.Add(f)
	if mbr == nil {
		return
	}
	now := n.sys.eng.Now()
	mbr.Created, mbr.Expiry = now, now+n.sys.cfg.MBRLifespan
	n.sys.col.CountEvent(metrics.EventMBR)
	switch n.sys.cfg.Mode {
	case Centralized:
		// Everything goes to the dedicated center.
		msg := &dht.Message{Kind: kindSummary, Payload: mbr}
		n.sys.net.Send(n.id, n.sys.centerKey, msg)
	case Flooding:
		// Summaries stay local.
		n.storeMBR(mbr)
	}
}

func (n *node) storeMBR(b *summary.MBR) {
	n.mbrs = append(n.mbrs, b)
	now := n.sys.eng.Now()
	for _, sub := range n.subs {
		if now >= sub.q.Expiry() {
			continue
		}
		if d := b.MinDist(sub.q.Feature); d <= sub.q.Radius {
			sub.add(query.Match{StreamID: b.StreamID, Seq: b.Seq, DistLB: d, FoundAt: now, Node: n.id})
		}
	}
}

func (st *subState) add(m query.Match) {
	seqs := st.seen[m.StreamID]
	if seqs == nil {
		seqs = make(map[uint64]bool)
		st.seen[m.StreamID] = seqs
	}
	if seqs[m.Seq] {
		return
	}
	seqs[m.Seq] = true
	st.pending = append(st.pending, m)
}

// postQuery launches a query per the mode.
func (s *System) postQuery(origin dht.Key, f summary.Feature, lifespan sim.Time) {
	s.nextID++
	q := &query.Similarity{
		ID: s.nextID, Origin: origin, Feature: f, Radius: s.cfg.Radius,
		Posted: s.eng.Now(), Lifespan: lifespan,
	}
	s.col.CountEvent(metrics.EventQuery)
	switch s.cfg.Mode {
	case Centralized:
		msg := &dht.Message{Kind: kindQuery, Payload: q}
		s.net.Send(origin, s.centerKey, msg)
	case Flooding:
		// Flood: a ring-wide range multicast starting at the origin's
		// own position — every node must learn the query.
		sp := s.net.Space()
		msg := &dht.Message{Kind: kindQuery, Payload: q}
		dht.SendRange(s.net, origin, sp.Add(origin, 1), origin, msg, dht.RangeSequential)
	}
}

// Deliver implements dht.App.
func (n *node) Deliver(self dht.Key, msg *dht.Message) {
	switch msg.Kind {
	case kindSummary:
		n.storeMBR(msg.Payload.(*summary.MBR))
	case kindQuery:
		q := msg.Payload.(*query.Similarity)
		now := n.sys.eng.Now()
		if now < q.Expiry() {
			if _, dup := n.subs[q.ID]; !dup {
				sub := &subState{q: q, seen: make(map[string]map[uint64]bool)}
				for _, b := range n.mbrs {
					if b.Expired(now) {
						continue
					}
					if d := b.MinDist(q.Feature); d <= q.Radius {
						sub.add(query.Match{StreamID: b.StreamID, Seq: b.Seq, DistLB: d, FoundAt: now, Node: n.id})
					}
				}
				n.subs[q.ID] = sub
			}
		}
		dht.ContinueRange(n.sys.net, self, msg, 1)
	case kindResponse:
		// Client side: nothing to account beyond delivery.
	}
}

// periodTick sweeps expired state and pushes responses.
func (n *node) periodTick() {
	now := n.sys.eng.Now()
	kept := n.mbrs[:0]
	for _, b := range n.mbrs {
		if !b.Expired(now) {
			kept = append(kept, b)
		}
	}
	n.mbrs = kept
	for id, sub := range n.subs {
		if now >= sub.q.Expiry() {
			delete(n.subs, id)
			continue
		}
		// Each node holding the subscription pushes periodically to the
		// client: the center in centralized mode, every node in
		// flooding mode (the flooding design has no aggregation point).
		n.sys.col.CountEvent(metrics.EventResponse)
		pending := sub.pending
		sub.pending = nil
		msg := &dht.Message{Kind: kindResponse, Payload: pending}
		if sub.q.Origin == n.id {
			continue // local client
		}
		n.sys.net.Send(n.id, sub.q.Origin, msg)
	}
}
