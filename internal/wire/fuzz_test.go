package wire_test

import (
	"bytes"
	"testing"

	"streamdex/internal/dht"
	"streamdex/internal/wire"
)

// FuzzUnmarshal hammers the frame decoder — envelope parsing and the packed
// payload codecs behind every registered tag — with mutated frames. The
// corpus seeds cover every middleware payload, the response batch included,
// and the ring-control payloads of every routing machine — the seven Chord
// types and the nine Koorde types, including all three de Bruijn walk
// phases of a KFindReq and the chain-probe piggyback of KStabReq/Resp —
// (via roundTripCases) plus the Mode==3 split-leg extension in all three
// walk phases and malformed shapes, so the fuzzer starts from every
// codec's happy path and mutates from there.
//
// Properties checked on any input the decoder accepts:
//   - re-marshalling the decoded message succeeds (a decoded message is
//     always encodable; Hops saturation is the one lossy envelope field,
//     and decoded values are always within range),
//   - decode∘encode is idempotent at the byte level after the first
//     normalization: re-marshalling the re-decoded frame reproduces it
//     bit for bit (byte comparison rather than DeepEqual so NaN float
//     payloads — whose bit patterns the codec preserves exactly — don't
//     trip NaN != NaN),
//   - the reported Bytes equals the frame length.
//
// Anything else must return an error — never panic, never over-allocate
// (the Reader validates every wire length against the remaining bytes
// before allocating).
func FuzzUnmarshal(f *testing.F) {
	for _, msg := range roundTripCases() {
		frame, err := wire.Marshal(msg)
		if err != nil {
			f.Fatalf("seed Marshal(kind %d): %v", msg.Kind, err)
		}
		f.Add(frame)
	}
	for _, frame := range retiredTagFrames(f) {
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, wire.HeaderBytes+3))
	f.Add(make([]byte, wire.HeaderBytes-1))
	// A split leg with its extension truncated: the Mode==3 error path.
	splitFrame, err := wire.Marshal(&dht.Message{
		Kind: 240, Key: 5, Src: 2, RangeStart: 1, RangeEnd: 9,
		HasRange: true, Mode: dht.RangeTree, Split: true, SplitImg: 7, SplitShift: 3,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(splitFrame[:wire.HeaderBytes+4])

	f.Fuzz(func(t *testing.T, frame []byte) {
		msg, err := wire.Unmarshal(frame)
		if err != nil {
			return // rejected is fine; panics and runaway allocs are not
		}
		if msg.Bytes != len(frame) {
			t.Fatalf("decoded Bytes=%d from a %d-byte frame", msg.Bytes, len(frame))
		}
		again, err := wire.Marshal(msg)
		if err != nil {
			t.Fatalf("re-marshal of accepted frame failed: %v", err)
		}
		msg2, err := wire.Unmarshal(again)
		if err != nil {
			t.Fatalf("re-unmarshal of re-marshalled frame failed: %v", err)
		}
		// The re-marshalled frame can differ from the original (a codec
		// may accept a non-canonical encoding, such as an overlong varint,
		// and write it back canonically), but from the first re-marshal
		// on, the frame is a fixed point.
		final, err := wire.Marshal(msg2)
		if err != nil {
			t.Fatalf("marshal of re-decoded message failed: %v", err)
		}
		if !bytes.Equal(again, final) {
			t.Fatalf("decode∘encode not idempotent:\nfirst  %x\nsecond %x", again, final)
		}
	})
}
