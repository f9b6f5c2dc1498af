package transport

import (
	"testing"

	"streamdex/internal/core"
	"streamdex/internal/cqe"
	"streamdex/internal/dht"
	"streamdex/internal/koorde"
	"streamdex/internal/overlay"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
	"streamdex/internal/wire"
)

// fuzzSeedMessages covers every packed data-plane payload kind — the
// original nine and the response batch, the seven continuous-query-engine
// codecs, and the two load-balancing codecs (replica tail, load gossip) —
// so the fuzzer starts from well-formed frames of each and mutates from
// there.
func fuzzSeedMessages() []*dht.Message {
	mbr := &summary.MBR{
		Lo: summary.Feature{0.1, -0.2, 0.3}, Hi: summary.Feature{0.2, -0.1, 0.4},
		StreamID: "fuzz-stream", Seq: 9, Count: 25, Created: 100, Expiry: 5_000_100,
	}
	match := query.Match{StreamID: "fuzz-stream", Seq: 3, DistLB: 0.5, FoundAt: 7, Node: 11}
	sk := summary.NewSketch(5_000_000, 2, 3, 0, 90)
	for i := 0; i < 30; i++ {
		sk.Add(sim.Time(i)*100_000, float64(i*3))
	}
	return []*dht.Message{
		{Kind: core.KindMBR, Key: 1, Src: 2, Payload: core.MBRUpdate{MBR: mbr}},
		{Kind: core.KindQuery, Key: 1, Src: 2, Payload: core.SimQuery{
			MiddleKey: 42,
			Q: &query.Similarity{ID: 5, Origin: 2, Feature: summary.Feature{0.5, 0.25},
				Radius: 0.1, Posted: 1, Lifespan: 1000},
		}},
		{Kind: core.KindNotify, Key: 1, Src: 2, Payload: core.NotifyBatch{
			Items: []core.NotifyItem{{QueryID: 5, MiddleKey: 42, ClientKey: 2,
				Expiry: 9999, Matches: []query.Match{match}}},
		}},
		{Kind: core.KindResponse, Key: 1, Src: 2, Payload: core.ResponseMsg{
			QueryID: 5, Matches: []query.Match{match},
		}},
		{Kind: core.KindResponse, Key: 1, Src: 2, Payload: core.ResponseBatch{
			Items: []core.ResponseMsg{{QueryID: 5, Matches: []query.Match{match}}, {QueryID: 6}},
		}},
		{Kind: core.KindLocPut, Key: 1, Src: 2, Payload: core.LocPut{StreamID: "fuzz-stream", Source: 2}},
		{Kind: core.KindLocGet, Key: 1, Src: 2, Payload: core.LocGet{StreamID: "fuzz-stream", Requester: 2}},
		{Kind: core.KindLocReply, Key: 1, Src: 2, Payload: core.LocReply{
			StreamID: "fuzz-stream", Source: 2, Found: true,
		}},
		{Kind: core.KindIPSub, Key: 1, Src: 2, Payload: core.IPSub{
			Q: &query.InnerProduct{ID: 6, Origin: 2, StreamID: "fuzz-stream",
				Index: []int{0, 2}, Weights: []float64{0.5, -0.5}, Posted: 1, Lifespan: 1000},
		}},
		{Kind: core.KindIPResp, Key: 1, Src: 2, Payload: core.IPResp{
			QueryID: 6, Value: query.IPValue{Value: 1.5, At: 9, Approx: true},
		}},
		{Kind: core.KindSketch, Key: 1, Src: 2, Payload: core.SketchUpdate{
			StreamID: "fuzz-stream", Seq: 9, Expiry: 9_000_000, Lo: 0.1, Hi: 0.2, Sketch: sk,
		}},
		{Kind: core.KindSub, Key: 1, Src: 2, Payload: core.SubMsg{
			P: &query.Predicate{ID: 7, Origin: 2, Lo: summary.Feature{-0.2, -0.1},
				Hi: summary.Feature{0.2, 0.1}, Posted: 1, Lifespan: 1000},
		}},
		{Kind: core.KindSubMatch, Key: 1, Src: 2, Payload: core.SubMatchMsg{
			SubID: 7, Matches: []query.Match{match},
		}},
		{Kind: core.KindAggQuery, Key: 1, Src: 2, Payload: core.AggQueryMsg{
			Q: &query.Aggregate{ID: 8, Origin: 2, Lo: -0.4, Hi: 0.4, Posted: 1, Lifespan: 1000},
		}},
		{Kind: core.KindAggReply, Key: 1, Src: 2, Payload: core.AggReplyMsg{
			QueryID: 8, Items: []core.StreamSketch{{StreamID: "fuzz-stream", Seq: 9, Sketch: sk}},
		}},
		{Kind: core.KindTopK, Key: 1, Src: 2, Payload: core.TopKMsg{
			Q: &query.TopK{ID: 9, Origin: 2, K: 3, Lo: -0.5, Hi: 0.5, Posted: 1, Lifespan: 1000},
		}},
		{Kind: core.KindTopKReport, Key: 1, Src: 2, Payload: core.TopKReportMsg{
			QueryID: 9, Node: 1, Counts: []cqe.StreamCount{{StreamID: "fuzz-stream", Count: 12}},
		}},
		{Kind: core.KindReplica, Key: 1, Src: 2, Payload: core.ReplicaMsg{MBR: mbr, TTL: 2}},
		{Kind: core.KindLoad, Key: 1, Src: 2, Payload: core.LoadMsg{Loads: []float64{7.5, 1.25}}},
		// Ring control payloads, Koorde's and the backbone's. Control
		// frames never travel UDP, but the datagram dispatcher must reject
		// (not trust) whatever arrives, so the corpus seeds every
		// registered codec, walk state included.
		{Kind: overlay.KindRing, Key: 1, Src: 2, Payload: koorde.KFindReq{
			From: kref(2), Token: 3, Target: 77, TTL: 64, ReplyTo: kref(2), Shift: koorde.ShiftNone,
		}},
		{Kind: overlay.KindRing, Key: 1, Src: 2, Payload: koorde.KFindReq{
			From: kref(2), Token: 3, Target: 77, TTL: 60, ReplyTo: kref(2), I: 4_123, Shift: 1,
		}},
		{Kind: overlay.KindRing, Key: 2, Src: 1, Payload: overlay.FindResp{
			From: kref(1), Token: 3, Succ: kref(80),
		}},
		{Kind: overlay.KindRing, Key: 1, Src: 2, Payload: koorde.KStabReq{From: kref(2)}},
		{Kind: overlay.KindRing, Key: 1, Src: 2, Payload: koorde.KStabReq{
			From: kref(2), Chain: true, Image: 32,
		}},
		{Kind: overlay.KindRing, Key: 2, Src: 1, Payload: koorde.KStabResp{
			From: kref(1), HasPred: true, Pred: kref(2), SuccList: []overlay.Ref{kref(2), kref(80)},
		}},
		{Kind: overlay.KindRing, Key: 2, Src: 1, Payload: koorde.KStabResp{
			From: kref(1), HasPred: true, Pred: kref(2), Chain: true, Image: 32,
			SuccList: []overlay.Ref{kref(2), kref(80)},
		}},
		// A split leg of a tree multicast: the Mode==3 envelope encoding
		// with the de Bruijn walk-state extension.
		{Kind: core.KindMBR, Key: 1, Src: 2, RangeStart: 1, RangeEnd: 200,
			HasRange: true, Mode: dht.RangeTree, Split: true, SplitImg: 48, SplitShift: 2,
			Payload: core.MBRUpdate{MBR: mbr}},
		{Kind: overlay.KindRing, Key: 1, Src: 2, Payload: overlay.Notify{From: kref(2)}},
		{Kind: overlay.KindRing, Key: 1, Src: 2, Payload: overlay.PingReq{From: kref(2)}},
		{Kind: overlay.KindRing, Key: 2, Src: 1, Payload: overlay.PingResp{From: kref(1)}},
		{Kind: overlay.KindRing, Key: 1, Src: 2, Payload: koorde.KDListReq{From: kref(2)}},
		{Kind: overlay.KindRing, Key: 2, Src: 1, Payload: koorde.KDListResp{
			From: kref(1), HasPred: true, Pred: kref(80), SuccList: []overlay.Ref{kref(2)},
		}},
	}
}

// kref builds an addressed overlay node reference for the ring seeds.
func kref(id dht.Key) overlay.Ref {
	return overlay.Ref{ID: id, Addr: "127.0.0.1:7002"}
}

// FuzzDatagramDecode drives the exact UDP receive path — frame-type
// dispatch, arena unmarshal, pool hand-off — on one live node with
// arbitrary datagram bytes. The invariant is simply "never panic, never
// corrupt": malformed datagrams must be rejected (return false) or decode
// into a well-formed message; either way the node stays up.
func FuzzDatagramDecode(f *testing.F) {
	cfg := DefaultConfig(1, "127.0.0.1:0")
	cfg.Space = dht.NewSpace(16)
	n, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(n.Close)

	for _, msg := range fuzzSeedMessages() {
		body, err := wire.Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{frameRouted}, body...))
		f.Add(append([]byte{frameDirect}, body...))
	}
	f.Add([]byte{frameControl, 1, 2, 3}) // control never travels UDP: rejected
	f.Add([]byte{0})
	f.Add([]byte{frameRouted})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return // a zero-size datagram never reaches dispatch
		}
		ar := wire.NewArena(nil)
		n.dispatchDatagram(data[0], data[1:], ar)
	})
}
