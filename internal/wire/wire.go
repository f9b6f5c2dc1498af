// Package wire estimates on-the-wire message sizes so the evaluation can
// account *bandwidth*, not just message counts. The paper's §IV-G argues
// MBR batching "reduces the communication overhead"; messages alone
// understate the claim (an MBR is bigger than a single feature vector but
// replaces beta of them), so the bandwidth ablation (A8 in DESIGN.md)
// measures bytes.
//
// Sizes come from actually serializing the payload plus a fixed
// per-message header covering the routing envelope (kind, key, source, hop
// metadata). Every payload type has a registered packed codec (packed.go)
// and is charged its exact encoding — one tag byte plus the hand-packed
// bytes, byte-for-byte what Marshal puts on a socket, so live and
// simulated byte accounting can never drift.
//
// Sizeof sits on the simulator's message hot path (every middleware send
// stamps its wire size). It encodes into a pooled scratch buffer, so
// steady state is allocation-free.
package wire

import (
	"fmt"
	"sync"
)

// HeaderBytes models the routing envelope carried by every message:
// kind (1) + destination key (8) + source (8) + range bounds (16) +
// flags/hops (4) + virtual timestamp (8).
const HeaderBytes = 45

// scratchBuf is a pooled encode buffer for packed size measurement.
type scratchBuf struct {
	b []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratchBuf) }}

// Sizeof returns the wire size in bytes of a message carrying the given
// payload: HeaderBytes plus the tag byte and packed bytes, equal to
// len(Marshal(msg)). A nil payload costs only the header. A payload type
// without a registered codec, or one its codec cannot encode, is a
// programming mistake and panics naming the type.
func Sizeof(payload any) int {
	if payload == nil {
		return HeaderBytes
	}
	e, ok := packedFor(payload)
	if !ok {
		panic(fmt.Sprintf("wire: no packed codec registered for payload %T", payload))
	}
	sb := scratchPool.Get().(*scratchBuf)
	b, err := e.codec.Append(sb.b[:0], payload)
	if err != nil {
		panic(fmt.Sprintf("wire: unpackable payload %T: %v", payload, err))
	}
	n := len(b)
	sb.b = b
	scratchPool.Put(sb)
	return HeaderBytes + 1 + n // codec tag byte + packed payload
}
