package wire_test

import (
	"fmt"
	"testing"

	"streamdex/internal/wire"
)

// TestAppendMarshalZeroAllocs guards the live transport's encode hot path:
// with a reused destination buffer (the transport's sync.Pool-backed frame
// buffers), packing any registered payload kind must not allocate — no
// encoder state, no intermediate buffers, no boxing.
func TestAppendMarshalZeroAllocs(t *testing.T) {
	for _, msg := range roundTripCases() {
		dst := make([]byte, 0, 4096)
		// Warm once so the measurement never sees a capacity grow.
		var err error
		if dst, err = wire.AppendMarshal(dst[:0], msg); err != nil {
			t.Fatalf("AppendMarshal(kind %d): %v", msg.Kind, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			dst, err = wire.AppendMarshal(dst[:0], msg)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("AppendMarshal(kind %d, %T) allocated %.1f objects per run, want 0",
				msg.Kind, msg.Payload, allocs)
		}
	}
}

// TestSizeofZeroAllocsPacked guards the simulator's sizing hot path: every
// middleware send stamps wire.Sizeof, and for packed payload kinds the
// measurement must run entirely out of the pooled scratch buffer.
func TestSizeofZeroAllocsPacked(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool hits are randomized under -race; alloc count is nondeterministic")
	}
	for _, msg := range roundTripCases() {
		if msg.Payload == nil {
			continue
		}
		p := msg.Payload
		wire.Sizeof(p) // warm the scratch pool
		allocs := testing.AllocsPerRun(100, func() { wire.Sizeof(p) })
		if allocs != 0 {
			t.Errorf("Sizeof(%T) allocated %.1f objects per run, want 0", p, allocs)
		}
	}
}

// TestUnmarshalAllocBounds pins the decode side to its semantic floor: the
// message, the payload's own objects (structs, strings, slices) and
// nothing else — no decoder state, no reflection scratch, no intermediate
// copies. The bounds are the per-kind object counts of the roundTripCases
// fixtures. A regression that adds codec overhead trips the bound
// immediately.
func TestUnmarshalAllocBounds(t *testing.T) {
	// Max allocations per decoded frame, by payload type name. Counts are
	// for the specific fixture contents (e.g. the NotifyBatch fixture
	// carries one item with two matches).
	bounds := map[string]float64{
		"<nil>":            1, // the message itself
		"core.MBRUpdate":   5, // msg + MBR + streamID + lo + hi
		"core.SimQuery":    5, // msg + box + Similarity + feature (+1 slack)
		"core.NotifyBatch": 9, // msg + items + 2 matches' strings + matches + box (+2 slack)
		"core.ResponseMsg": 6, // msg + box + matches + 2 strings
		"core.LocPut":      3, // msg + box + string
		"core.LocGet":      3,
		"core.LocReply":    3,
		"core.IPSub":       5, // msg + InnerProduct + string + index + weights
		"core.IPResp":      2, // msg + box

		// A response batch: msg + box + items + 2 match slices + 3 strings
		// (the zero-match item allocates nothing).
		"core.ResponseBatch": 8,
		// Continuous-query-engine payloads. A decoded sketch costs the
		// Sketch struct, its band slice, and one EH plus one bucket slice
		// per band (the fixtures carry 3 populated bands).
		"core.SketchUpdate":  11, // msg + box + streamID + sketch objects (8)
		"core.SubMsg":        6,  // msg + box + Predicate + lo + hi (+1 slack)
		"core.SubMatchMsg":   7,  // msg + box + matches + 2 strings (+2 slack)
		"core.AggQueryMsg":   4,  // msg + box + Aggregate (+1 slack)
		"core.AggReplyMsg":   23, // msg + box + items + 2×(string + sketch objects)
		"core.TopKMsg":       4,  // msg + box + TopK (+1 slack)
		"core.TopKReportMsg": 6,  // msg + box + counts + 2 strings (+1 slack)
		// Load-balancing payloads: a replica frame decodes like an MBR
		// update plus its box; a load report is one float slice.
		"core.ReplicaMsg": 6, // msg + box + MBR + streamID + lo + hi
		"core.LoadMsg":    3, // msg + box + loads
		// Ring-control payloads: a Ref decodes to at most one string (its
		// address), everything else is inline.
		"protocol.FindReq": 4, // msg + box + 2 addr strings
		"overlay.FindResp": 4,
		"overlay.StabReq":  3, // msg + box + addr string
		"overlay.StabResp": 8, // msg + box + list + 5 addr strings (largest fixture)
		"overlay.Notify":   3,
		"overlay.PingReq":  3,
		"overlay.PingResp": 3,
		// Koorde's own ring-control payloads decode with the same cost
		// model: the walk state in KFindReq is two inline varints and
		// allocates nothing extra.
		"koorde.KFindReq":   4, // msg + box + 2 addr strings
		"koorde.KStabReq":   3,
		"koorde.KStabResp":  8, // msg + box + list + 5 addr strings (largest fixture)
		"koorde.KDListReq":  3,
		"koorde.KDListResp": 8,
	}
	for _, msg := range roundTripCases() {
		frame, err := wire.Marshal(msg)
		if err != nil {
			t.Fatalf("Marshal(kind %d): %v", msg.Kind, err)
		}
		name := "<nil>"
		if msg.Payload != nil {
			name = fmt.Sprintf("%T", msg.Payload)
		}
		bound, ok := bounds[name]
		if !ok {
			t.Fatalf("no alloc bound declared for payload %s", name)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := wire.Unmarshal(frame); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > bound {
			t.Errorf("Unmarshal(%s) allocated %.1f objects per run, bound %.0f", name, allocs, bound)
		}
	}
}
