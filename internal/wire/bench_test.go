// Codec micro-benchmarks over the round-trip fixtures. Run with:
//
//	go test -run '^$' -bench 'Marshal|Sizeof' -benchmem ./internal/wire
package wire_test

import (
	"testing"

	"streamdex/internal/dht"
	"streamdex/internal/wire"
)

// payloadCases returns the round-trip fixtures that actually carry a
// payload (the envelope-only frame would dilute a payload-codec
// comparison).
func payloadCases() []*dht.Message {
	var out []*dht.Message
	for _, m := range roundTripCases() {
		if m.Payload != nil {
			out = append(out, m)
		}
	}
	return out
}

// BenchmarkMarshalPacked measures the full live encode path — envelope +
// packed payload — into a reused buffer, i.e. the transport's steady
// state. Expect 0 allocs/op.
func BenchmarkMarshalPacked(b *testing.B) {
	cases := payloadCases()
	dst := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, msg := range cases {
			var err error
			dst, err = wire.AppendMarshal(dst[:0], msg)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkUnmarshalPacked measures the full live decode path over packed
// frames of every payload kind.
func BenchmarkUnmarshalPacked(b *testing.B) {
	var frames [][]byte
	for _, msg := range payloadCases() {
		frame, err := wire.Marshal(msg)
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, frame)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, frame := range frames {
			if _, err := wire.Unmarshal(frame); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSizeofPacked measures the simulator's per-send sizing cost for
// a packed payload (pooled scratch encode; 0 allocs/op).
func BenchmarkSizeofPacked(b *testing.B) {
	p := payloadCases()[0].Payload
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire.Sizeof(p)
	}
}
