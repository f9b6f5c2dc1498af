package core

import (
	"testing"

	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

// inlinePoster runs posted loop work at once, standing in for the live
// node's run loop when a test drives DeliverData directly.
type inlinePoster struct{}

func (inlinePoster) Post(fn func()) bool { fn(); return true }

// oneOfEachKind returns one well-formed message of every middleware kind,
// KindMBR … KindLoad, addressed to dc. Each is size-stamped, which panics
// on a payload the wire codec cannot encode.
func oneOfEachKind(dc *DataCenter, middle dht.Key) []*dht.Message {
	now := dc.mw.clk.Now()
	life := 30 * sim.Second
	f := summary.Feature{0.1, 0.2, 0.3}
	mbr := func(seq uint64) *summary.MBR { return mbrAt("s-dispatch", seq, f, f, now+life) }
	sk := summary.NewSketch(life, sketchK, sketchBands, sketchLo, sketchHi)
	sk.Add(now, 1)
	payloads := []any{
		KindMBR:        MBRUpdate{MBR: mbr(0)},
		KindQuery:      SimQuery{Q: &query.Similarity{ID: 1, Origin: dc.id, Feature: f, Radius: 0.1, Posted: now, Lifespan: life}, MiddleKey: middle},
		KindNotify:     NotifyBatch{},
		KindResponse:   ResponseMsg{QueryID: 1},
		KindLocPut:     LocPut{StreamID: "s-dispatch", Source: dc.id},
		KindLocGet:     LocGet{StreamID: "s-dispatch", Requester: dc.id},
		KindLocReply:   LocReply{StreamID: "s-unknown"},
		KindIPSub:      IPSub{Q: &query.InnerProduct{ID: 2, Origin: dc.id, StreamID: "s-unknown", Index: []int{0}, Weights: []float64{1}, Posted: now, Lifespan: life}},
		KindIPResp:     IPResp{QueryID: 2},
		KindSketch:     SketchUpdate{StreamID: "s-dispatch", Seq: 1, Expiry: int64(now + life), Lo: 0.1, Hi: 0.1, Sketch: sk},
		KindSub:        SubMsg{P: &query.Predicate{ID: 3, Origin: dc.id, Lo: f, Hi: f, Posted: now, Lifespan: life}},
		KindSubMatch:   SubMatchMsg{SubID: 3},
		KindAggQuery:   AggQueryMsg{Q: &query.Aggregate{ID: 4, Origin: dc.id, Lo: 0, Hi: 1, Posted: now, Lifespan: life}},
		KindAggReply:   AggReplyMsg{QueryID: 4},
		KindTopK:       TopKMsg{Q: &query.TopK{ID: 5, Origin: dc.id, K: 1, Lo: 0, Hi: 1, Posted: now, Lifespan: life}},
		KindTopKReport: TopKReportMsg{QueryID: 5, Node: dc.id},
		KindReplica:    ReplicaMsg{MBR: mbr(1), TTL: 1},
		KindLoad:       LoadMsg{Loads: []float64{1}},
	}
	msgs := make([]*dht.Message, len(payloads))
	for k, p := range payloads {
		msgs[k] = sized(&dht.Message{Kind: dht.Kind(k), Src: dc.id, Payload: p})
	}
	return msgs
}

// TestDispatchEveryKind pins how a data center routes the 18 middleware
// kinds: every one has a loop handler, a response batch reaches the client
// item by item, an unknown kind is counted, and the
// worker-safe subset is exactly the kinds whose handlers carry their own
// synchronization.
func TestDispatchEveryKind(t *testing.T) {
	cfg := testConfig()
	cfg.Replicas = 2 // replica and load kinds only travel with replication on
	_, _, mw, ids := testClusterBare(t, 8, cfg)
	middle := ids[len(ids)/2]

	loop := mw.DataCenter(ids[0])
	msgs := oneOfEachKind(loop, middle)
	if len(msgs) != int(KindLoad)+1 {
		t.Fatalf("%d kinds, want %d", len(msgs), KindLoad+1)
	}
	for _, msg := range msgs {
		loop.Deliver(loop.id, msg)
		if mw.unclassified != 0 {
			t.Fatalf("kind %d reached no handler", msg.Kind)
		}
	}
	// A push period's response batch takes the lone response's handler,
	// one delivery per item.
	batch := sized(&dht.Message{Kind: KindResponse, Src: middle, Payload: ResponseBatch{
		Items: []ResponseMsg{{QueryID: 101}, {QueryID: 102}},
	}})
	loop.Deliver(loop.id, batch)
	if mw.unclassified != 0 || mw.ResponseCount(101) != 1 || mw.ResponseCount(102) != 1 {
		t.Fatalf("batch delivered %d and %d responses (unclassified %d), want 1 each",
			mw.ResponseCount(101), mw.ResponseCount(102), mw.unclassified)
	}
	loop.Deliver(loop.id, &dht.Message{Kind: KindLoad + 1})
	if mw.unclassified != 1 {
		t.Fatalf("unknown kind counted %d times, want 1", mw.unclassified)
	}

	onWorkers := map[dht.Kind]bool{
		KindMBR: true, KindQuery: true, KindSub: true, KindSketch: true,
		KindTopK: true, KindReplica: true, KindLoad: true,
	}
	worker := mw.DataCenter(ids[1])
	worker.poster = inlinePoster{}
	for _, msg := range oneOfEachKind(worker, middle) {
		if got := worker.DeliverData(worker.id, msg); got != onWorkers[msg.Kind] {
			t.Errorf("DeliverData(kind %d) = %v, want %v", msg.Kind, got, onWorkers[msg.Kind])
		}
	}
	if worker.DeliverData(worker.id, batch) {
		t.Error("DeliverData accepted a response batch")
	}
	if worker.DeliverData(worker.id, &dht.Message{Kind: KindLoad + 1}) {
		t.Error("DeliverData accepted an unknown kind")
	}
	if mw.unclassified != 1 {
		t.Fatalf("DeliverData counted an unclassified kind: %d", mw.unclassified)
	}
}
