package wire_test

import (
	"testing"

	"streamdex/internal/core"
	"streamdex/internal/summary"
	"streamdex/internal/wire"
)

// TestPackedSizeParity pins the invariant the bandwidth evaluation rests
// on: for every registered payload kind, the byte count the simulator is
// charged (wire.Sizeof, stamped on every middleware send) equals the byte
// count a live socket carries (len of the Marshal frame, which receivers
// recompute as Bytes). With the packed codecs this holds exactly, so
// live-vs-sim byte accounting can never silently drift.
func TestPackedSizeParity(t *testing.T) {
	for _, msg := range roundTripCases() {
		frame, err := wire.Marshal(msg)
		if err != nil {
			t.Fatalf("Marshal(kind %d): %v", msg.Kind, err)
		}
		got := wire.Sizeof(msg.Payload)
		if msg.Split {
			// Sizeof measures envelope + payload only; a split leg also
			// carries the walk-state extension, which receivers charge via
			// len(frame). Senders accounting from Sizeof must add it too.
			got += wire.SplitExtBytes
		}
		if want := len(frame); got != want {
			t.Errorf("kind %d payload %T: Sizeof charges %d B, live frame is %d B",
				msg.Kind, msg.Payload, got, want)
		}
	}
}

// TestAppendMarshalMatchesMarshal guards the two encode entry points
// against drifting apart: the pooled-buffer path the transport uses must
// produce byte-identical frames to the allocating one.
func TestAppendMarshalMatchesMarshal(t *testing.T) {
	for _, msg := range roundTripCases() {
		frame, err := wire.Marshal(msg)
		if err != nil {
			t.Fatalf("Marshal(kind %d): %v", msg.Kind, err)
		}
		appended, err := wire.AppendMarshal(make([]byte, 0, 16), msg)
		if err != nil {
			t.Fatalf("AppendMarshal(kind %d): %v", msg.Kind, err)
		}
		if string(frame) != string(appended) {
			t.Errorf("kind %d: Marshal and AppendMarshal frames differ", msg.Kind)
		}
	}
}

func TestSizeofMBRPayload(t *testing.T) {
	// An MBR's wire size must not depend on how many feature vectors it
	// aggregated — only two corner points travel. That is the §IV-G
	// saving.
	mk := func(count int) core.MBRUpdate {
		b := summary.NewMBR("stream-1", 7, summary.Feature{0.1, 0.2, 0.3})
		for i := 1; i < count; i++ {
			b.Extend(summary.Feature{0.1, 0.2, 0.3})
		}
		return core.MBRUpdate{MBR: b}
	}
	s1 := wire.Sizeof(mk(1))
	s50 := wire.Sizeof(mk(50))
	if s1 != s50 {
		t.Fatalf("MBR size depends on batch count: %d vs %d", s1, s50)
	}
	if s1 <= wire.HeaderBytes {
		t.Fatalf("MBR payload size %d suspiciously small", s1)
	}
}
