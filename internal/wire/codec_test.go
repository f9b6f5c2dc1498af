package wire_test

import (
	"reflect"
	"testing"

	"streamdex/internal/chord/protocol"
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

// ref builds a ring-control node reference with an address, as the live
// transport carries them.
func ref(id dht.Key) overlay.Ref {
	return overlay.Ref{ID: id, Addr: "127.0.0.1:7001"}
}

// mbr builds a non-trivial MBR with every field populated.
func mbr() *summary.MBR {
	b := summary.NewMBR("s-42", 7, summary.Feature{0.1, -0.2, 0.3, 0.05})
	b.Extend(summary.Feature{0.15, -0.1, 0.25, 0.0})
	b.Created = 1_000_000
	b.Expiry = 6_000_000
	return b
}

// sketch builds a windowed value sketch with every band populated, so the
// nested EH bucket encoding is exercised.
func sketch() *summary.Sketch {
	s := summary.NewSketch(5_000_000, 2, 3, 0, 90)
	for i := 0; i < 40; i++ {
		s.Add(sim.Time(i)*100_000, float64(i*2))
	}
	return s
}

func matches() []query.Match {
	return []query.Match{
		{StreamID: "s-1", Seq: 3, DistLB: 0.125, FoundAt: 2_500_000, Node: 17},
		{StreamID: "s-9", Seq: 11, DistLB: 0.0, FoundAt: 2_750_000, Node: 63},
	}
}

// roundTripCases covers every message payload kind of the middleware
// protocol, each with non-zero envelope metadata so the fixed header
// encoding is exercised too.
func roundTripCases() []*dht.Message {
	return []*dht.Message{
		{
			Kind: core.KindMBR, Key: 100, Src: 3, Hops: 4, SentAt: 1_234_567,
			RangeStart: 90, RangeEnd: 140, HasRange: true, Mode: dht.RangeTree, RangeTail: true,
			Payload: core.MBRUpdate{MBR: mbr()},
		},
		{
			Kind: core.KindQuery, Key: 200, Src: 5, Hops: 1, SentAt: 2_000_000,
			RangeStart: 180, RangeEnd: 260, HasRange: true, Mode: dht.RangeBidirectional, Dir: -1,
			Payload: core.SimQuery{
				Q: &query.Similarity{
					ID: 9, Origin: 5,
					Feature: summary.Feature{0.4, 0.1, -0.3, 0.2},
					Radius:  0.25, Posted: 1_900_000, Lifespan: 30_000_000,
				},
				MiddleKey: 220,
			},
		},
		{
			Kind: core.KindNotify, Key: 42, Src: 40, Hops: 2, SentAt: 3_100_000, Dir: 1,
			Payload: core.NotifyBatch{Items: []core.NotifyItem{
				{QueryID: 9, MiddleKey: 220, ClientKey: 5, Expiry: 31_900_000, Matches: matches()},
			}},
		},
		{
			Kind: core.KindResponse, Key: 5, Src: 220, Hops: 6, SentAt: 3_200_000,
			Payload: core.ResponseMsg{QueryID: 9, Matches: matches()},
		},
		// One push period's responses for one client, a zero-match item
		// among them.
		{
			Kind: core.KindResponse, Key: 5, Src: 220, Hops: 3, SentAt: 3_300_000,
			Payload: core.ResponseBatch{Items: []core.ResponseMsg{
				{QueryID: 9, Matches: matches()},
				{QueryID: 10},
				{QueryID: 12, Matches: matches()[:1]},
			}},
		},
		{
			Kind: core.KindLocPut, Key: 77, Src: 12, Hops: 3, SentAt: 400_000,
			Payload: core.LocPut{StreamID: "s-42", Source: 12},
		},
		{
			Kind: core.KindLocGet, Key: 77, Src: 30, Hops: 2, SentAt: 500_000,
			Payload: core.LocGet{StreamID: "s-42", Requester: 30},
		},
		{
			Kind: core.KindLocReply, Key: 30, Src: 77, Hops: 5, SentAt: 600_000,
			Payload: core.LocReply{StreamID: "s-42", Source: 12, Found: true},
		},
		{
			Kind: core.KindIPSub, Key: 12, Src: 30, Hops: 4, SentAt: 700_000,
			Payload: core.IPSub{Q: &query.InnerProduct{
				ID: 21, Origin: 30, StreamID: "s-42",
				Index: []int{0, 3, 5}, Weights: []float64{1.0, -0.5, 0.25},
				Posted: 650_000, Lifespan: 20_000_000,
			}},
		},
		{
			Kind: core.KindIPResp, Key: 30, Src: 12, Hops: 4, SentAt: 800_000,
			Payload: core.IPResp{QueryID: 21, Value: query.IPValue{Value: 3.5, At: 790_000, Approx: true}},
		},
		// Continuous-query-engine kinds (PR 7).
		{
			Kind: core.KindSketch, Key: 50, Src: 7, Hops: 2, SentAt: 4_000_000,
			RangeStart: 40, RangeEnd: 80, HasRange: true, Mode: dht.RangeSequential, Dir: 1,
			Payload: core.SketchUpdate{
				StreamID: "s-42", Seq: 7, Expiry: 9_000_000, Lo: 0.12, Hi: 0.2, Sketch: sketch(),
			},
		},
		// A sketch-less update: the nil sketch is elided on the wire.
		{
			Kind: core.KindSketch, Key: 50, Src: 7, Hops: 1, SentAt: 4_100_000,
			Payload: core.SketchUpdate{StreamID: "s-43", Seq: 8, Expiry: 9_100_000, Lo: -0.3, Hi: -0.25},
		},
		{
			Kind: core.KindSub, Key: 60, Src: 5, Hops: 1, SentAt: 4_200_000,
			RangeStart: 55, RangeEnd: 75, HasRange: true, Mode: dht.RangeBidirectional, Dir: -1,
			Payload: core.SubMsg{P: &query.Predicate{
				ID: 31, Origin: 5,
				Lo: summary.Feature{-0.2, -0.1, 0.0, 0.1}, Hi: summary.Feature{0.2, 0.3, 0.4, 0.5},
				Posted: 4_000_000, Lifespan: 60_000_000,
			}},
		},
		{
			Kind: core.KindSub, Key: 60, Src: 5, Hops: 1, SentAt: 4_250_000,
			Payload: core.SubMsg{P: &query.Predicate{
				ID: 31, Origin: 5,
				Lo: summary.Feature{-0.2}, Hi: summary.Feature{0.2},
				Posted: 4_000_000, Lifespan: 60_000_000,
			}, Cancel: true},
		},
		{
			Kind: core.KindSubMatch, Key: 5, Src: 60, Hops: 3, SentAt: 4_300_000,
			Payload: core.SubMatchMsg{SubID: 31, Matches: matches()},
		},
		{
			Kind: core.KindAggQuery, Key: 70, Src: 5, Hops: 2, SentAt: 4_400_000,
			RangeStart: 65, RangeEnd: 85, HasRange: true, Mode: dht.RangeSequential,
			Payload: core.AggQueryMsg{Q: &query.Aggregate{
				ID: 33, Origin: 5, Lo: -0.4, Hi: 0.4, Posted: 4_300_000, Lifespan: 45_000_000,
			}},
		},
		{
			Kind: core.KindAggReply, Key: 5, Src: 70, Hops: 4, SentAt: 4_500_000,
			Payload: core.AggReplyMsg{QueryID: 33, Items: []core.StreamSketch{
				{StreamID: "s-1", Seq: 4, Sketch: sketch()},
				{StreamID: "s-9", Seq: 2, Sketch: sketch()},
			}},
		},
		{
			Kind: core.KindTopK, Key: 80, Src: 5, Hops: 1, SentAt: 4_600_000,
			RangeStart: 75, RangeEnd: 95, HasRange: true, Mode: dht.RangeTree,
			Payload: core.TopKMsg{Q: &query.TopK{
				ID: 35, Origin: 5, K: 3, Lo: -0.5, Hi: 0.5, Posted: 4_500_000, Lifespan: 50_000_000,
			}},
		},
		{
			Kind: core.KindTopKReport, Key: 5, Src: 80, Hops: 2, SentAt: 4_700_000,
			Payload: core.TopKReportMsg{QueryID: 35, Node: 80, Counts: []cqe.StreamCount{
				{StreamID: "s-1", Count: 12}, {StreamID: "s-9", Count: 4},
			}},
		},
		// Load-balancing kinds (PR 8): the replica tail walk and the
		// per-node load gossip.
		{
			Kind: core.KindReplica, Key: 90, Src: 50, Hops: 1, SentAt: 4_800_000,
			Payload: core.ReplicaMsg{MBR: mbr(), TTL: 2},
		},
		// An MBR-less replica frame: the nil MBR is elided on the wire.
		{
			Kind: core.KindReplica, Key: 90, Src: 50, Hops: 2, SentAt: 4_850_000,
			Payload: core.ReplicaMsg{TTL: 1},
		},
		{
			Kind: core.KindLoad, Key: 40, Src: 50, Hops: 1, SentAt: 4_900_000,
			Payload: core.LoadMsg{Loads: []float64{12.5, 3.25, 0}},
		},
		// An empty load report must round-trip too.
		{
			Kind: core.KindLoad, Key: 40, Src: 50, Hops: 1, SentAt: 4_950_000,
			Payload: core.LoadMsg{},
		},
		// Envelope-only frame: the routing layer may carry payload-less
		// control messages.
		{Kind: core.KindResponse, Key: 1, Src: 2, Hops: 1, SentAt: 1},
		// Ring-control messages (the unified Chord control plane): the same
		// packed payloads travel the simulator's event engine and the TCP
		// transport's control frames.
		{
			Kind: overlay.KindRing, Key: 200, Src: 100, Hops: 1, SentAt: 900_000,
			Payload: protocol.FindReq{From: ref(100), Token: 7, Target: 450, TTL: 63, ReplyTo: ref(100)},
		},
		{
			Kind: overlay.KindRing, Key: 100, Src: 300, Hops: 1, SentAt: 910_000,
			Payload: overlay.FindResp{From: ref(300), Token: 7, Succ: ref(500)},
		},
		{
			Kind: overlay.KindRing, Key: 500, Src: 100, Hops: 1, SentAt: 920_000,
			Payload: overlay.StabReq{From: ref(100)},
		},
		{
			Kind: overlay.KindRing, Key: 100, Src: 500, Hops: 1, SentAt: 930_000,
			Payload: overlay.StabResp{
				From: ref(500), HasPred: true, Pred: ref(100),
				SuccList: []overlay.Ref{ref(700), ref(900), ref(100)},
			},
		},
		// A predecessor-less StabResp (fresh ring) must round-trip too: the
		// Pred field is elided on the wire.
		{
			Kind: overlay.KindRing, Key: 100, Src: 500, Hops: 1, SentAt: 940_000,
			Payload: overlay.StabResp{From: ref(500), SuccList: []overlay.Ref{ref(700)}},
		},
		{
			Kind: overlay.KindRing, Key: 500, Src: 100, Hops: 1, SentAt: 950_000,
			Payload: overlay.Notify{From: ref(100)},
		},
		{
			Kind: overlay.KindRing, Key: 300, Src: 100, Hops: 1, SentAt: 960_000,
			Payload: overlay.PingReq{From: ref(100)},
		},
		{
			Kind: overlay.KindRing, Key: 100, Src: 300, Hops: 1, SentAt: 970_000,
			Payload: overlay.PingResp{From: ref(300)},
		},
		// Koorde control plane: same KindRing envelope, disjoint payload
		// tags. A KFindReq carries the de Bruijn walk state (I, Shift), so
		// all three walk phases must round-trip: unanchored (ShiftNone),
		// mid-walk, and digit-exhausted.
		{
			Kind: overlay.KindRing, Key: 200, Src: 100, Hops: 1, SentAt: 980_000,
			Payload: koorde.KFindReq{From: ref(100), Token: 11, Target: 450, TTL: 64,
				ReplyTo: ref(100), Shift: koorde.ShiftNone},
		},
		{
			Kind: overlay.KindRing, Key: 300, Src: 200, Hops: 2, SentAt: 981_000,
			Payload: koorde.KFindReq{From: ref(200), Token: 11, Target: 450, TTL: 62,
				ReplyTo: ref(100), I: 7_200, Shift: 2},
		},
		{
			Kind: overlay.KindRing, Key: 440, Src: 300, Hops: 3, SentAt: 982_000,
			Payload: koorde.KFindReq{From: ref(300), Token: 11, Target: 450, TTL: 60,
				ReplyTo: ref(100), I: 450, Shift: 0},
		},
		{
			Kind: overlay.KindRing, Key: 500, Src: 100, Hops: 1, SentAt: 984_000,
			Payload: koorde.KStabReq{From: ref(100)},
		},
		// A chain probe: the stabilize request repurposed for piggybacked
		// pointer repair carries the Chain flag and the k·self image.
		{
			Kind: overlay.KindRing, Key: 500, Src: 100, Hops: 1, SentAt: 984_500,
			Payload: koorde.KStabReq{From: ref(100), Chain: true, Image: 1_600},
		},
		{
			Kind: overlay.KindRing, Key: 100, Src: 500, Hops: 1, SentAt: 985_000,
			Payload: koorde.KStabResp{
				From: ref(500), HasPred: true, Pred: ref(100),
				SuccList: []overlay.Ref{ref(700), ref(900), ref(100)},
			},
		},
		// The chain-probe reply echoes Chain and Image so the requester
		// can tell a reply for the image it chases from a stale one.
		{
			Kind: overlay.KindRing, Key: 100, Src: 500, Hops: 1, SentAt: 985_500,
			Payload: koorde.KStabResp{
				From: ref(500), HasPred: true, Pred: ref(100), Chain: true, Image: 1_600,
				SuccList: []overlay.Ref{ref(700), ref(900), ref(100)},
			},
		},
		// Predecessor-less KStabResp: the Pred field is elided on the wire.
		{
			Kind: overlay.KindRing, Key: 100, Src: 500, Hops: 1, SentAt: 986_000,
			Payload: koorde.KStabResp{From: ref(500), SuccList: []overlay.Ref{ref(700)}},
		},
		{
			Kind: overlay.KindRing, Key: 700, Src: 100, Hops: 1, SentAt: 990_000,
			Payload: koorde.KDListReq{From: ref(100)},
		},
		{
			Kind: overlay.KindRing, Key: 100, Src: 700, Hops: 1, SentAt: 991_000,
			Payload: koorde.KDListResp{
				From: ref(700), HasPred: true, Pred: ref(500),
				SuccList: []overlay.Ref{ref(900), ref(100), ref(300)},
			},
		},
		{
			Kind: overlay.KindRing, Key: 100, Src: 700, Hops: 1, SentAt: 992_000,
			Payload: koorde.KDListResp{From: ref(700), SuccList: []overlay.Ref{ref(900)}},
		},
		// Split legs of a de Bruijn-aware tree multicast: the reserved
		// Mode==3 envelope encoding with the 9-byte walk-state extension.
		// All three walk phases: unanchored (ShiftNone), mid-walk, and
		// digit-exhausted; with and without a payload; tail and interior.
		{
			Kind: core.KindMBR, Key: 320, Src: 3, Hops: 2, SentAt: 5_000_000,
			RangeStart: 320, RangeEnd: 470, HasRange: true, Mode: dht.RangeTree,
			Split: true, SplitImg: 0, SplitShift: dht.SplitShiftNone,
			Payload: core.MBRUpdate{MBR: mbr()},
		},
		{
			Kind: core.KindMBR, Key: 480, Src: 3, Hops: 4, SentAt: 5_001_000,
			RangeStart: 480, RangeEnd: 630, HasRange: true, Mode: dht.RangeTree,
			Split: true, SplitImg: 7_777, SplitShift: 2,
			Payload: core.MBRUpdate{MBR: mbr()},
		},
		{
			Kind: core.KindSketch, Key: 640, Src: 3, Hops: 6, SentAt: 5_002_000,
			RangeStart: 640, RangeEnd: 800, HasRange: true, Mode: dht.RangeTree, RangeTail: true,
			Split: true, SplitImg: 790, SplitShift: 0,
			Payload: core.SketchUpdate{StreamID: "s-44", Seq: 9, Expiry: 9_200_000, Lo: 0.1, Hi: 0.3},
		},
		// A payload-less split leg: envelope plus extension, nothing else.
		{
			Kind: 240, Key: 640, Src: 3, Hops: 1, SentAt: 5_003_000,
			RangeStart: 640, RangeEnd: 800, HasRange: true, Mode: dht.RangeTree,
			Split: true, SplitImg: 655, SplitShift: 1,
		},
	}
}

func TestMarshalRoundTripAllKinds(t *testing.T) {
	for _, want := range roundTripCases() {
		frame, err := wire.Marshal(want)
		if err != nil {
			t.Fatalf("Marshal(kind %d): %v", want.Kind, err)
		}
		got, err := wire.Unmarshal(frame)
		if err != nil {
			t.Fatalf("Unmarshal(kind %d): %v", want.Kind, err)
		}
		// Bytes is recomputed on decode as the frame length; align the
		// expectation before the deep comparison.
		want.Bytes = len(frame)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("kind %d round trip:\n got %#v\nwant %#v", want.Kind, got, want)
		}
	}
}

// TestResponseBatchRoundTrip covers the batch shapes a middle node sends —
// no items, items without matches, a period's worth of items — through
// Marshal/Unmarshal, with Sizeof charging exactly the frame length.
func TestResponseBatchRoundTrip(t *testing.T) {
	many := make([]core.ResponseMsg, 300)
	for i := range many {
		many[i].QueryID = query.ID(1000 + 7*i)
		if i%3 != 0 {
			many[i].Matches = matches()[:i%3]
		}
	}
	for name, items := range map[string][]core.ResponseMsg{
		"empty":       nil,
		"zero-match":  {{QueryID: 1}, {QueryID: 2}, {QueryID: 1 << 40}},
		"many items":  many,
		"single item": {{QueryID: 3, Matches: matches()}},
	} {
		want := &dht.Message{Kind: core.KindResponse, Key: 5, Src: 220, Hops: 2, SentAt: 9,
			Payload: core.ResponseBatch{Items: items}}
		frame, err := wire.Marshal(want)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", name, err)
		}
		if got := wire.Sizeof(want.Payload); got != len(frame) {
			t.Errorf("%s: Sizeof charges %d B, frame is %d B", name, got, len(frame))
		}
		got, err := wire.Unmarshal(frame)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", name, err)
		}
		want.Bytes = len(frame)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip:\n got %#v\nwant %#v", name, got, want)
		}
	}
}

// TestResponseBatchRejectsOversizedCount: an item count beyond the bytes
// left in the frame is corrupt and must fail before anything is allocated
// for it.
func TestResponseBatchRejectsOversizedCount(t *testing.T) {
	frame, err := wire.Marshal(&dht.Message{Kind: core.KindResponse, Key: 5, Src: 220,
		Payload: core.ResponseBatch{Items: []core.ResponseMsg{{QueryID: 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	count := wire.HeaderBytes + 1 // after the envelope and the codec tag
	for _, n := range []uint64{3, 200, 1 << 40} {
		bad := wire.AppendUvarint(append([]byte(nil), frame[:count]...), n)
		bad = append(bad, frame[count+1:]...)
		if _, err := wire.Unmarshal(bad); err == nil {
			t.Errorf("batch claiming %d items in %d bytes decoded", n, len(frame)-count-1)
		}
	}
}

// retiredTagFrames returns frames as a peer built before Koorde moved onto
// the shared ring messages would send them: KFindResp (tag 33), KNotify
// (36), KPingReq (37) and KPingResp (38), each with the layout of its
// surviving counterpart. The tags are retired, never reused, so no codec
// is registered for them.
func retiredTagFrames(t testing.TB) [][]byte {
	retag := func(p any, tag byte) []byte {
		frame, err := wire.Marshal(&dht.Message{Kind: overlay.KindRing, Key: 500, Src: 100, Hops: 1, Payload: p})
		if err != nil {
			t.Fatal(err)
		}
		frame[wire.HeaderBytes] = tag
		return frame
	}
	return [][]byte{
		retag(overlay.FindResp{From: ref(440), Token: 11, Succ: ref(500)}, 33),
		retag(overlay.Notify{From: ref(100)}, 36),
		retag(overlay.PingReq{From: ref(100)}, 37),
		retag(overlay.PingResp{From: ref(300)}, 38),
	}
}

func TestRetiredRingTagsRejected(t *testing.T) {
	for _, frame := range retiredTagFrames(t) {
		if _, err := wire.Unmarshal(frame); err == nil {
			t.Errorf("retired payload tag %d decoded", frame[wire.HeaderBytes])
		}
	}
}

func TestMarshalEnvelopeIsHeaderBytes(t *testing.T) {
	frame, err := wire.Marshal(&dht.Message{Kind: core.KindLocGet, Key: 1, Src: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != wire.HeaderBytes {
		t.Fatalf("payload-less frame is %d bytes, want HeaderBytes=%d", len(frame), wire.HeaderBytes)
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	if _, err := wire.Unmarshal(make([]byte, wire.HeaderBytes-1)); err == nil {
		t.Error("short frame: want error")
	}
	frame, err := wire.Marshal(&dht.Message{Kind: core.KindLocGet, Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Unmarshal(append(frame, 0xff)); err == nil {
		t.Error("trailing bytes on payload-less frame: want error")
	}
	bad := &dht.Message{Kind: core.KindMBR, Dir: 2}
	if _, err := wire.Marshal(bad); err == nil {
		t.Error("out-of-range Dir: want error")
	}
	if _, err := wire.Marshal(&dht.Message{Kind: core.KindMBR, Mode: 3}); err == nil {
		t.Error("reserved Mode 3: want error")
	}
}

// TestSplitLegWireValidation pins the split-extension error surface: a
// split leg is only encodable inside a tree-mode range multicast, and a
// Mode==3 frame must carry both the range flag and the full 9-byte
// extension to decode.
func TestSplitLegWireValidation(t *testing.T) {
	if _, err := wire.Marshal(&dht.Message{Kind: 240, Split: true}); err == nil {
		t.Error("split leg without a range: want Marshal error")
	}
	if _, err := wire.Marshal(&dht.Message{
		Kind: 240, Split: true, HasRange: true, RangeStart: 1, RangeEnd: 9, Mode: dht.RangeSequential,
	}); err == nil {
		t.Error("split leg in sequential mode: want Marshal error")
	}
	frame, err := wire.Marshal(&dht.Message{
		Kind: 240, Key: 5, Src: 2, RangeStart: 1, RangeEnd: 9,
		HasRange: true, Mode: dht.RangeTree, Split: true, SplitImg: 7, SplitShift: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != wire.HeaderBytes+9 {
		t.Fatalf("payload-less split leg is %d bytes, want HeaderBytes+9=%d", len(frame), wire.HeaderBytes+9)
	}
	// Truncating the extension must be rejected, not mis-decoded.
	for cut := wire.HeaderBytes; cut < len(frame); cut++ {
		if _, err := wire.Unmarshal(frame[:cut]); err == nil {
			t.Errorf("split leg truncated to %d bytes: want error", cut)
		}
	}
	// Clearing the range flag while leaving the Mode bits at 3 must be
	// rejected: a split leg without a range is not a message.
	mangled := append([]byte(nil), frame...)
	mangled[33] &^= 1 // flagHasRange
	if _, err := wire.Unmarshal(mangled); err == nil {
		t.Error("mode-3 frame without the range flag: want error")
	}
}

func TestMarshalPreservesDirections(t *testing.T) {
	for _, dir := range []int{-1, 0, 1} {
		m := &dht.Message{Kind: core.KindNotify, Key: 9, Src: 8, Dir: dir}
		frame, err := wire.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wire.Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dir != dir {
			t.Errorf("Dir %d round-tripped to %d", dir, got.Dir)
		}
	}
}
