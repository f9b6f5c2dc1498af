package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
	"streamdex/internal/wire"
)

// renderPayload stringifies a payload through its pointees, so two decodes
// compare by content rather than by pointer identity.
func renderPayload(p any) string {
	switch v := p.(type) {
	case MBRUpdate:
		if v.MBR == nil {
			return "MBRUpdate{nil}"
		}
		return fmt.Sprintf("MBRUpdate{%+v}", *v.MBR)
	case SimQuery:
		if v.Q == nil {
			return fmt.Sprintf("SimQuery{middle=%d nil}", v.MiddleKey)
		}
		return fmt.Sprintf("SimQuery{middle=%d %+v}", v.MiddleKey, *v.Q)
	}
	return fmt.Sprintf("%+v", p)
}

// TestArenaDecodeMatchesPlainDecode: the arena path must be a pure
// placement optimization — for every data-plane payload kind, decoding a
// frame through UnmarshalArena yields a message semantically identical to
// the plain Unmarshal result, and the decoded objects never alias the
// frame buffer.
func TestArenaDecodeMatchesPlainDecode(t *testing.T) {
	payloads := []any{
		MBRUpdate{MBR: &summary.MBR{
			Lo: summary.Feature{0.1, -0.2, 0.3}, Hi: summary.Feature{0.2, -0.1, 0.4},
			StreamID: "stream-7", Seq: 42, Count: 25, Created: 100, Expiry: 5_000_100,
		}},
		MBRUpdate{},
		SimQuery{MiddleKey: 99, Q: &query.Similarity{
			ID: 3, Origin: 17, Feature: summary.Feature{0.5, 0.6}, Radius: 0.25,
			Posted: 7, Lifespan: 1000,
		}},
		SimQuery{MiddleKey: 12},
	}
	a := wire.NewArena(nil)
	for i, p := range payloads {
		msg := &dht.Message{Kind: KindMBR, Key: 5, Src: 6, Payload: p, SentAt: sim.Time(i)}
		frame, err := wire.Marshal(msg)
		if err != nil {
			t.Fatalf("payload %d: marshal: %v", i, err)
		}
		plain, err := wire.Unmarshal(frame)
		if err != nil {
			t.Fatalf("payload %d: plain unmarshal: %v", i, err)
		}
		arena, err := wire.UnmarshalArena(frame, a)
		if err != nil {
			t.Fatalf("payload %d: arena unmarshal: %v", i, err)
		}
		if got, want := renderPayload(arena.Payload), renderPayload(plain.Payload); got != want {
			t.Fatalf("payload %d diverged:\nplain %s\narena %s", i, want, got)
		}
		if plain.Kind != arena.Kind || plain.Key != arena.Key || plain.Src != arena.Src ||
			plain.Bytes != arena.Bytes || plain.SentAt != arena.SentAt {
			t.Fatalf("payload %d: envelopes diverged:\nplain %+v\narena %+v", i, plain, arena)
		}
		// Corrupt the frame: decoded objects must be unaffected (no alias).
		before := renderPayload(arena.Payload)
		for j := wire.HeaderBytes; j < len(frame); j++ {
			frame[j] = 0xFF
		}
		if after := renderPayload(arena.Payload); after != before {
			t.Fatalf("payload %d aliases the frame buffer:\nbefore %s\nafter  %s", i, before, after)
		}
	}
}

// TestArenaDecodeInternsStreamIDs: repeated stream ids must collapse to
// one shared string via the arena's intern table.
func TestArenaDecodeInternsStreamIDs(t *testing.T) {
	a := wire.NewArena(nil)
	var ids []string
	for i := 0; i < 3; i++ {
		b := &summary.MBR{Lo: summary.Feature{0.1}, Hi: summary.Feature{0.2},
			StreamID: "same-stream", Seq: uint64(i)}
		frame, err := wire.Marshal(&dht.Message{Kind: KindMBR, Payload: MBRUpdate{MBR: b}})
		if err != nil {
			t.Fatal(err)
		}
		msg, err := wire.UnmarshalArena(frame, a)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, msg.Payload.(MBRUpdate).MBR.StreamID)
	}
	st := a.Stats().Load()
	if st.InternHits < 2 {
		t.Fatalf("intern hits = %d, want >= 2 (stats %+v)", st.InternHits, st)
	}
	for _, id := range ids {
		if id != "same-stream" {
			t.Fatalf("interned id corrupted: %q", id)
		}
	}
}

// TestArenaDecodeZeroAllocAmortized is the decode-path alloc guard: with a
// warm arena, decoding an MBR frame must cost (amortized) well under one
// heap allocation — chunk refills happen once per hundreds of frames, and
// everything else is bump-pointer carving. The plain path costs ~5 objects
// per frame; the budget below fails if the arena path regresses toward it.
func TestArenaDecodeZeroAllocAmortized(t *testing.T) {
	b := &summary.MBR{
		Lo: summary.Feature{0.1, -0.2, 0.3}, Hi: summary.Feature{0.2, -0.1, 0.4},
		StreamID: "alloc-guard-stream", Seq: 1, Count: 25, Created: 0, Expiry: 5_000_000,
	}
	frame, err := wire.Marshal(&dht.Message{Kind: KindMBR, Payload: MBRUpdate{MBR: b}})
	if err != nil {
		t.Fatal(err)
	}
	a := wire.NewArena(nil)
	// Warm: populate the intern table and the first chunks.
	for i := 0; i < 10; i++ {
		if _, err := wire.UnmarshalArena(frame, a); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := wire.UnmarshalArena(frame, a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.25 {
		t.Fatalf("arena decode allocates %.3f objects per frame, want amortized < 0.25", allocs)
	}
}

// TestArenaSlabPinsNoHeapPayload: a frame whose payload decodes onto the
// heap (here a response batch) must not get a message from the arena's
// slab, which stays reachable until it is used up and would keep the
// delivered payload alive with it. Arena-carved payloads still share the
// slab with their message.
func TestArenaSlabPinsNoHeapPayload(t *testing.T) {
	a := wire.NewArena(nil)
	carves := func() int64 { return a.Stats().Carves.Load() }
	mbr, err := wire.Marshal(&dht.Message{Kind: KindMBR, Payload: MBRUpdate{MBR: mbrAt("s", 1, summary.Feature{0.1}, summary.Feature{0.2}, 9)}})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := wire.Marshal(&dht.Message{Kind: KindResponse, Payload: ResponseBatch{Items: []ResponseMsg{
		{QueryID: 1, Matches: []query.Match{{StreamID: "s", Seq: 1}}}, {QueryID: 2},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.UnmarshalArena(mbr, a); err != nil {
		t.Fatal(err)
	}
	before := carves()
	msg, err := wire.UnmarshalArena(batch, a)
	if err != nil {
		t.Fatal(err)
	}
	if carves() != before {
		t.Errorf("decoding a heap payload carved %d arena objects", carves()-before)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(&msg.Payload.(ResponseBatch).Items[0], func(*ResponseMsg) { close(collected) })
	msg = nil
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			if _, err := wire.UnmarshalArena(mbr, a); err != nil { // the slab is still in use
				t.Fatal(err)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a delivered response batch stayed reachable from the decode arena")
}
