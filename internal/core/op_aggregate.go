package core

// aggOp is the DataCenter part serving ECM-style windowed aggregates:
// every locally sourced stream maintains an exponential-histogram sketch
// of its raw values (Config.Sketches), published over the key range of
// each finished MBR so the nodes holding a stream's summary also hold its
// sketch. A windowed aggregate query registers at the nodes covering a
// routing-coordinate range; each covering node pushes the matching
// sketches to the querying node every period, where per-stream
// deduplication (highest sequence wins) and sketch merging produce
// windowed counts and quantiles.

import (
	"sort"
	"sync"

	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

// sketchEntry is the latest sketch a node holds for one stream.
type sketchEntry struct {
	seq    uint64
	expiry sim.Time
	lo, hi float64
	sk     *summary.Sketch
}

type aggOp struct {
	dc *DataCenter

	// mu guards sketches: KindSketch is worker-absorbable on the live
	// transport while the loop sweeps and reports.
	mu       sync.Mutex
	sketches map[string]*sketchEntry

	// aggs are the standing aggregate queries covering this node;
	// loop-confined (KindAggQuery is not absorbed on workers).
	aggs map[query.ID]*query.Aggregate
	// mine are the aggregate queries this node originated. Loop-confined.
	mine map[query.ID]*query.Aggregate
}

func newAggOp(dc *DataCenter) *aggOp {
	return &aggOp{
		dc:       dc,
		sketches: make(map[string]*sketchEntry),
		aggs:     make(map[query.ID]*query.Aggregate),
		mine:     make(map[query.ID]*query.Aggregate),
	}
}

// onSketch absorbs a replicated sketch, keeping the latest publication per
// stream, and keeps the range multicast going. Worker-safe.
func (o *aggOp) onSketch(msg *dht.Message) {
	p := msg.Payload.(SketchUpdate)
	if p.Sketch != nil && o.dc.mw.clk.Now() < sim.Time(p.Expiry) {
		o.absorb(p)
	}
	dht.ContinueRange(o.dc.mw.net, o.dc.id, msg, 1)
}

// absorb installs the update unless a newer publication for the stream is
// already held. Sketches are immutable once published, so entries alias
// the payload safely.
func (o *aggOp) absorb(p SketchUpdate) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if e := o.sketches[p.StreamID]; e == nil || p.Seq >= e.seq {
		o.sketches[p.StreamID] = &sketchEntry{
			seq: p.Seq, expiry: sim.Time(p.Expiry), lo: p.Lo, hi: p.Hi, sk: p.Sketch,
		}
	}
}

// onAggQuery registers a standing aggregate query, replies immediately
// with the sketches already held, and keeps the range multicast going.
// Loop context.
func (o *aggOp) onAggQuery(msg *dht.Message) {
	p := msg.Payload.(AggQueryMsg)
	if q := p.Q; q != nil && o.dc.mw.clk.Now() < q.Expiry() {
		if _, known := o.aggs[q.ID]; !known {
			o.aggs[q.ID] = q
			o.report(q)
		}
	}
	dht.ContinueRange(o.dc.mw.net, o.dc.id, msg, 1)
}

// report pushes every held sketch overlapping the query's coordinate
// range to the querying node, sorted by stream id for determinism.
func (o *aggOp) report(q *query.Aggregate) {
	o.mu.Lock()
	items := make([]StreamSketch, 0, len(o.sketches))
	for sid, e := range o.sketches {
		if e.hi < q.Lo || e.lo > q.Hi {
			continue
		}
		items = append(items, StreamSketch{StreamID: sid, Seq: e.seq, Sketch: e.sk})
	}
	o.mu.Unlock()
	if len(items) == 0 {
		return
	}
	sort.Slice(items, func(i, j int) bool { return items[i].StreamID < items[j].StreamID })
	payload := AggReplyMsg{QueryID: q.ID, Items: items}
	if q.Origin == o.dc.id {
		o.dc.mw.deliverAggReply(payload)
		return
	}
	msg := sized(&dht.Message{Kind: KindAggReply, Payload: payload})
	o.dc.mw.net.Send(o.dc.id, q.Origin, msg)
}

// publishLocal publishes the sketch snapshot of a locally sourced stream
// alongside the MBR that just closed: stored locally (like the summary,
// §IV-A) and replicated over the MBR's key range. sk must be a snapshot
// the stream pipeline no longer mutates.
func (o *aggOp) publishLocal(sid string, b *summary.MBR, sk *summary.Sketch) {
	now := o.dc.mw.clk.Now()
	u := SketchUpdate{
		StreamID: sid,
		Seq:      b.Seq,
		Expiry:   int64(now + sk.Window),
		Lo:       b.Lo[0],
		Hi:       b.Hi[0],
		Sketch:   sk,
	}
	o.absorb(u)
	lo, hi := b.KeyRange(o.dc.mw.mapper)
	msg := sized(&dht.Message{Kind: KindSketch, Payload: u})
	dht.SendRange(o.dc.mw.net, o.dc.id, lo, hi, msg, o.dc.mw.cfg.RangeMode)
}

// tick is the periodic slice: sweep expired sketches and registrations,
// push the periodic sketch reports, and refresh this node's own standing
// queries.
func (o *aggOp) tick(now sim.Time) {
	o.mu.Lock()
	for sid, e := range o.sketches {
		if now >= e.expiry {
			delete(o.sketches, sid)
		}
	}
	o.mu.Unlock()
	for id, q := range o.aggs {
		if now >= q.Expiry() {
			delete(o.aggs, id)
			continue
		}
		o.report(q)
	}
	refresh(o.mine, now, true, o.multicast)
}

// multicast sends the query's registration over its coordinate range.
func (o *aggOp) multicast(q *query.Aggregate) {
	lo, hi := o.dc.mw.mapper.Range(q.Lo, q.Hi)
	msg := sized(&dht.Message{Kind: KindAggQuery, Payload: AggQueryMsg{Q: q}})
	dht.SendRange(o.dc.mw.net, o.dc.id, lo, hi, msg, o.dc.mw.cfg.RangeMode)
}

// register originates a standing aggregate query from this node.
func (o *aggOp) register(q *query.Aggregate) {
	o.mine[q.ID] = q
	o.multicast(q)
}
