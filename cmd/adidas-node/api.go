package main

import (
	"fmt"
	"strconv"
	"strings"

	"streamdex/internal/core"
	"streamdex/internal/cqe"
	"streamdex/internal/dht"
	"streamdex/internal/metrics"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
	"streamdex/internal/transport"
)

// apiSession processes one client connection's command stream. The live
// server builds it around a transport node; unit tests build it around a
// simulator middleware with an inline do-func. That split is why every
// middleware access goes through do (the serialization domain of mw) and
// why the node-backed verbs (RING, RINGSTATS, STATS) check node for nil.
type apiSession struct {
	mw   *core.Middleware
	self dht.Key
	do   func(func())
	node *transport.Node
}

// handle executes one command line, writing replies via reply, and
// reports whether the connection should close. Malformed input of any
// shape answers a single "ERR <reason>" line and keeps the session
// alive — a client typo must never cost the connection.
func (s *apiSession) handle(reply func(format string, args ...any), fields []string) (quit bool) {
	switch strings.ToUpper(fields[0]) {
	case "QUERY":
		id, err := s.postQuery(fields[1:])
		if err != nil {
			reply("ERR %v", err)
			return false
		}
		reply("OK %d", id)
	case "MATCHES":
		id, err := oneID("MATCHES <query-id>", fields[1:])
		if err != nil {
			reply("ERR %v", err)
			return false
		}
		var matches []query.Match
		s.do(func() { matches = s.mw.SimilarityMatches(id) })
		for _, m := range matches {
			reply("MATCH %s %d %g", m.StreamID, m.Seq, m.DistLB)
		}
		reply("END %d", len(matches))
	case "SUB":
		id, err := s.postSub(fields[1:])
		if err != nil {
			reply("ERR %v", err)
			return false
		}
		reply("OK %d", id)
	case "UNSUB":
		id, err := oneID("UNSUB <sub-id>", fields[1:])
		if err != nil {
			reply("ERR %v", err)
			return false
		}
		var cerr error
		s.do(func() { cerr = s.mw.CancelSubscription(s.self, id) })
		if cerr != nil {
			reply("ERR %v", cerr)
			return false
		}
		reply("OK")
	case "SUBMATCHES":
		id, err := oneID("SUBMATCHES <sub-id>", fields[1:])
		if err != nil {
			reply("ERR %v", err)
			return false
		}
		var matches []query.Match
		s.do(func() { matches = s.mw.SubscriptionMatches(id) })
		for _, m := range matches {
			reply("MATCH %s %d", m.StreamID, m.Seq)
		}
		reply("END %d", len(matches))
	case "AGG":
		id, err := s.postAgg(fields[1:])
		if err != nil {
			reply("ERR %v", err)
			return false
		}
		reply("OK %d", id)
	case "AGGRESULT":
		id, err := oneID("AGGRESULT <agg-id>", fields[1:])
		if err != nil {
			reply("ERR %v", err)
			return false
		}
		var count uint64
		var streams []string
		var q50 float64
		var ok bool
		s.do(func() {
			count = s.mw.AggCount(id)
			streams = s.mw.AggStreams(id)
			q50, ok = s.mw.AggQuantile(id, 0.5)
		})
		reply("COUNT %d", count)
		if ok {
			reply("Q50 %g", q50)
		}
		for _, sid := range streams {
			reply("STREAM %s", sid)
		}
		reply("END %d", len(streams))
	case "TOPK":
		id, err := s.postTopK(fields[1:])
		if err != nil {
			reply("ERR %v", err)
			return false
		}
		reply("OK %d", id)
	case "TOPKRESULT":
		id, err := oneID("TOPKRESULT <topk-id>", fields[1:])
		if err != nil {
			reply("ERR %v", err)
			return false
		}
		var counts []cqe.StreamCount
		s.do(func() { counts = s.mw.TopK(id) })
		for i, c := range counts {
			reply("RANK %d %s %d", i+1, c.StreamID, c.Count)
		}
		reply("END %d", len(counts))
	case "RING":
		if s.node == nil {
			reply("ERR RING requires a live node")
			return false
		}
		info := s.node.Ring()
		reply("SELF %d %s", info.Self.ID, info.Self.Addr)
		if info.Pred != nil {
			reply("PRED %d %s", info.Pred.ID, info.Pred.Addr)
		}
		for _, su := range info.SuccList {
			reply("SUCC %d %s", su.ID, su.Addr)
		}
		reply("END")
	case "RINGSTATS":
		if s.node == nil {
			reply("ERR RINGSTATS requires a live node")
			return false
		}
		// Control-plane health: how hard maintenance is working and
		// what it has had to repair (stabilize rounds/misses, successor
		// rotations, predecessor drops, finger repairs, stale or
		// TTL-dropped lookups, join-time sends).
		rs := s.node.RingStats()
		reply("MACHINE %s", rs.Machine)
		reply("STABILIZE-ROUNDS %d", rs.StabilizeRounds)
		reply("STABILIZE-MISSES %d", rs.StabilizeMisses)
		reply("SUCC-ROTATIONS %d", rs.SuccRotations)
		reply("PRED-DROPS %d", rs.PredDrops)
		reply("FINGER-REPAIRS %d", rs.FingerRepairs)
		reply("STALE-FIND-RESPS %d", rs.StaleFindResps)
		reply("FIND-DROPS %d", rs.FindDrops)
		reply("JOIN-STEPS %d", rs.JoinSteps)
		reply("END")
	case "STATS":
		if s.node == nil {
			reply("ERR STATS requires a live node")
			return false
		}
		// Data-plane health: run-loop queue saturation, worker-pool
		// throughput/backpressure, and MBR store load.
		ls := s.node.LoopStats()
		reply("LOOP-POSTED %d", ls.Posted)
		reply("LOOP-DEPTH %d", ls.Depth)
		reply("LOOP-HIGH-WATER %d", ls.HighWater)
		reply("LOOP-BLOCKED-POSTS %d", ls.BlockedPosts)
		reply("LOOP-BLOCKED-NS %d", ls.BlockedNs)
		ps := s.node.PoolStats()
		reply("POOL-WORKERS %d", ps.Workers)
		reply("POOL-SUBMITTED %d", ps.Submitted)
		reply("POOL-INLINE %d", ps.Inline)
		reply("POOL-DEPTH %d", ps.Depth)
		reply("POOL-HIGH-WATER %d", ps.HighWater)
		reply("POOL-BLOCKED-SUBS %d", ps.BlockedSubs)
		reply("POOL-BLOCKED-NS %d", ps.BlockedNanos)
		dc := s.mw.DataCenter(s.self)
		puts, scanned := dc.Store().Stats()
		reply("STORE-LEN %d", dc.Store().Len())
		reply("STORE-GENERATIONS %d", dc.Store().Generations())
		reply("STORE-PUTS %d", puts)
		reply("STORE-SCANNED %d", scanned)
		// Lock-free read path: store publications, entries moved by
		// generation seals and the seals themselves, decode-arena hit
		// rate, and the UDP datagram plane.
		dp := gatherDataPlane(s.node, dc)
		reply("STORE-EPOCHS %d", dp.StoreEpochs)
		reply("STORE-COW-COPIED %d", dp.StoreCowCopied)
		reply("STORE-MERGES %d", dp.StoreMerges)
		reply("ARENA-CARVES %d", dp.ArenaCarves)
		reply("ARENA-REFILLS %d", dp.ArenaRefills)
		reply("ARENA-HIT-RATE %.4f", dp.ArenaHitRate())
		reply("ARENA-INTERN-HITS %d", dp.ArenaInternHits)
		reply("ARENA-INTERN-MISSES %d", dp.ArenaInternMisses)
		reply("UDP-SENT %d", dp.UDPSent)
		reply("UDP-RECV %d", dp.UDPRecv)
		reply("UDP-FALLBACK %d", dp.UDPFallback)
		reply("ADMIT-SHED %d", dp.AdmitShed)
		reply("SUBS %d", dc.SubCount())
		reply("STANDING-SUBS %d", dc.StandingSubCount())
		// Responses and match pushes that arrived for a query unknown here
		// or expired for over a push period (client state is loop-confined).
		var late int64
		s.do(func() { late = s.mw.LateDeliveries() })
		reply("LATE-DELIVERIES %d", late)
		reply("DROPPED %d", s.node.Dropped())
		reply("END")
	case "STREAMS":
		var sids []string
		s.do(func() { sids = s.mw.DataCenter(s.self).StreamIDs() })
		for _, sid := range sids {
			reply("STREAM %s", sid)
		}
		reply("END %d", len(sids))
	case "QUIT":
		reply("BYE")
		return true
	default:
		reply("ERR unknown command %q", fields[0])
	}
	return false
}

// postQuery parses "QUERY <radius> <lifespan-seconds> <v1,v2,...>" and
// posts the similarity query at this node.
func (s *apiSession) postQuery(args []string) (query.ID, error) {
	if len(args) != 3 {
		return 0, fmt.Errorf("usage: QUERY <radius> <lifespan-seconds> <v1,v2,...>")
	}
	radius, err := strconv.ParseFloat(args[0], 64)
	if err != nil {
		return 0, fmt.Errorf("bad radius %q", args[0])
	}
	life, err := parseLifespan(args[1])
	if err != nil {
		return 0, err
	}
	f, err := parseFeature(args[2], s.mw.Config().FeatureDims)
	if err != nil {
		return 0, err
	}
	var qid query.ID
	var qerr error
	s.do(func() { qid, qerr = s.mw.PostSimilarity(s.self, f, radius, life) })
	return qid, qerr
}

// postSub parses "SUB <lifespan-seconds> <lo1,...> <hi1,...>" and
// registers the standing predicate subscription at this node.
func (s *apiSession) postSub(args []string) (query.ID, error) {
	if len(args) != 3 {
		return 0, fmt.Errorf("usage: SUB <lifespan-seconds> <lo1,...> <hi1,...>")
	}
	life, err := parseLifespan(args[0])
	if err != nil {
		return 0, err
	}
	dims := s.mw.Config().FeatureDims
	lo, err := parseFeature(args[1], dims)
	if err != nil {
		return 0, err
	}
	hi, err := parseFeature(args[2], dims)
	if err != nil {
		return 0, err
	}
	var id query.ID
	var perr error
	s.do(func() { id, perr = s.mw.PostSubscription(s.self, lo, hi, life) })
	return id, perr
}

// postAgg parses "AGG <lo> <hi> <lifespan-seconds>" and posts the
// windowed-aggregate query over the value range [lo, hi].
func (s *apiSession) postAgg(args []string) (query.ID, error) {
	if len(args) != 3 {
		return 0, fmt.Errorf("usage: AGG <lo> <hi> <lifespan-seconds>")
	}
	lo, err := strconv.ParseFloat(args[0], 64)
	if err != nil {
		return 0, fmt.Errorf("bad range bound %q", args[0])
	}
	hi, err := strconv.ParseFloat(args[1], 64)
	if err != nil {
		return 0, fmt.Errorf("bad range bound %q", args[1])
	}
	life, err := parseLifespan(args[2])
	if err != nil {
		return 0, err
	}
	var id query.ID
	var perr error
	s.do(func() { id, perr = s.mw.PostAggregate(s.self, lo, hi, life) })
	return id, perr
}

// postTopK parses "TOPK <k> <lo> <hi> <lifespan-seconds>" and posts the
// distributed top-k frequency monitor over the value range [lo, hi].
func (s *apiSession) postTopK(args []string) (query.ID, error) {
	if len(args) != 4 {
		return 0, fmt.Errorf("usage: TOPK <k> <lo> <hi> <lifespan-seconds>")
	}
	k, err := strconv.Atoi(args[0])
	if err != nil || k < 1 {
		return 0, fmt.Errorf("bad k %q", args[0])
	}
	lo, err := strconv.ParseFloat(args[1], 64)
	if err != nil {
		return 0, fmt.Errorf("bad range bound %q", args[1])
	}
	hi, err := strconv.ParseFloat(args[2], 64)
	if err != nil {
		return 0, fmt.Errorf("bad range bound %q", args[2])
	}
	life, err := parseLifespan(args[3])
	if err != nil {
		return 0, err
	}
	var id query.ID
	var perr error
	s.do(func() { id, perr = s.mw.PostTopK(s.self, k, lo, hi, life) })
	return id, perr
}

// oneID parses the single <id> argument shared by the result-polling
// verbs.
func oneID(usage string, args []string) (query.ID, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("usage: %s", usage)
	}
	v, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad id %q", args[0])
	}
	return query.ID(v), nil
}

// parseLifespan converts a positive decimal second count to sim time.
func parseLifespan(arg string) (sim.Time, error) {
	secs, err := strconv.ParseFloat(arg, 64)
	if err != nil || secs <= 0 {
		return 0, fmt.Errorf("bad lifespan %q", arg)
	}
	return sim.Time(secs * float64(sim.Second)), nil
}

// parseFeature parses a comma-separated coordinate list into a feature
// of exactly dims dimensions.
func parseFeature(arg string, dims int) (summary.Feature, error) {
	parts := strings.Split(arg, ",")
	if len(parts) != dims {
		return nil, fmt.Errorf("feature has %d dims, middleware uses %d", len(parts), dims)
	}
	f := make(summary.Feature, dims)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad feature coordinate %q", p)
		}
		f[i] = v
	}
	return f, nil
}

// gatherDataPlane assembles the read-path counter snapshot from its three
// sources: the MBR store's generation lifecycle, the transport's decode
// arenas, and the UDP datagram plane.
func gatherDataPlane(node *transport.Node, dc *core.DataCenter) metrics.DataPlane {
	ss := dc.Store().SnapStats()
	as := node.ArenaStats()
	sent, recv, fb := node.UDPStats()
	return metrics.DataPlane{
		StoreEpochs:       ss.Epochs,
		StoreCowCopied:    ss.CowCopied,
		StoreMerges:       ss.Merges,
		ArenaCarves:       as.Carves,
		ArenaRefills:      as.Refills,
		ArenaInternHits:   as.InternHits,
		ArenaInternMisses: as.InternMisses,
		UDPSent:           sent,
		UDPRecv:           recv,
		UDPFallback:       fb,
		AdmitShed:         dc.AdmitShedCount(),
	}
}
