package wire

// Wire codec v2: hand-packed payload encoding.
//
// Payloads travel through a registry of hand-packed binary codecs, one
// per payload type, in the style of the 45-byte envelope: varints for
// counts, ids and timestamps, fixed 8-byte big-endian words for floats,
// length-prefixed strings. It is the only payload encoding: a type without
// a registered codec cannot be marshalled or sized, and a frame whose tag
// names no codec is a decode error.
//
// Registration is expected to happen in init functions (package core
// registers the middleware payloads, the ring machines their control
// messages); lookups after init are lock-free reads of maps that are
// never mutated again.

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// PayloadCodec encodes and decodes one concrete payload type.
//
// Append appends the packed encoding of payload to dst and returns the
// extended slice; it must not retain dst. Decode parses a payload from
// data; it must consume data exactly — trailing bytes are an error — and
// must not alias data in the returned value (the transport reuses its
// read buffer across frames).
type PayloadCodec interface {
	Append(dst []byte, payload any) ([]byte, error)
	Decode(data []byte) (any, error)
}

type packedEntry struct {
	tag   uint8
	codec PayloadCodec
}

var (
	packedMu     sync.Mutex
	packedByType = map[reflect.Type]packedEntry{}
	packedByTag  = map[uint8]PayloadCodec{}
	// packedTagOwner remembers which concrete type claimed each tag, so a
	// duplicate registration can name both colliders — a tag collision is
	// a cross-package coordination bug, and "tag 23 registered twice" is
	// undebuggable without knowing who holds it.
	packedTagOwner = map[uint8]reflect.Type{}
)

// RegisterPackedPayload records a hand-packed codec for the concrete type
// of prototype under the given non-zero tag. The tag travels in the frame
// (one byte after the envelope) and must be identical on both ends of a
// connection. Call from an init function, before any message flows;
// duplicate tags or types panic.
func RegisterPackedPayload(tag uint8, prototype any, codec PayloadCodec) {
	if tag == 0 {
		panic("wire: packed payload tag 0 is reserved")
	}
	if prototype == nil || codec == nil {
		panic("wire: registering nil packed payload")
	}
	t := reflect.TypeOf(prototype)
	packedMu.Lock()
	defer packedMu.Unlock()
	if _, dup := packedByTag[tag]; dup {
		panic(fmt.Sprintf("wire: packed payload tag %d registered by both %v and %v", tag, packedTagOwner[tag], t))
	}
	if prev, dup := packedByType[t]; dup {
		panic(fmt.Sprintf("wire: packed payload type %v registered twice (tags %d and %d)", t, prev.tag, tag))
	}
	packedByTag[tag] = codec
	packedTagOwner[tag] = t
	packedByType[t] = packedEntry{tag: tag, codec: codec}
}

// packedFor returns the registry entry for payload's concrete type.
func packedFor(payload any) (packedEntry, bool) {
	e, ok := packedByType[reflect.TypeOf(payload)]
	return e, ok
}

// --- append-side primitives ---

// AppendUvarint appends v in unsigned varint encoding.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendVarint appends v in zig-zag signed varint encoding.
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// AppendFloat64 appends v as 8 fixed big-endian bytes (IEEE 754 bits).
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendBool appends one byte: 1 for true, 0 for false.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends a uvarint byte length followed by the bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendFloats appends a uvarint element count followed by each element as
// a fixed 8-byte word.
func AppendFloats(dst []byte, v []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, f := range v {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// AppendInts appends a uvarint element count followed by each element as a
// signed varint.
func AppendInts(dst []byte, v []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, i := range v {
		dst = binary.AppendVarint(dst, int64(i))
	}
	return dst
}

// --- decode-side primitives ---

// Reader walks a packed payload with a sticky error: after the first
// malformed field every further read returns the zero value, so codecs can
// decode straight through and check Done once at the end. Every length
// read off the wire is validated against the remaining bytes before any
// allocation, so a corrupt frame cannot make a decoder allocate
// unboundedly.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader over data. The returned value is intended to
// live on the caller's stack; take its address to call the read methods.
func NewReader(data []byte) Reader {
	return Reader{data: data}
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) - r.off }

// Failf poisons the reader with a formatted error (no-op if one is
// already recorded). Codecs use it to reject semantic violations the
// primitive reads cannot see, e.g. an element count exceeding the bytes
// that could possibly back it.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Done returns the recorded error, or an error if unread bytes remain — a
// packed payload must consume its region exactly.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if n := r.Len(); n != 0 {
		return fmt.Errorf("wire: %d trailing bytes after packed payload", n)
	}
	return nil
}

// Bool reads one AppendBool byte.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.Len() < 1 {
		r.Failf("wire: truncated bool")
		return false
	}
	b := r.data[r.off]
	r.off++
	if b > 1 {
		r.Failf("wire: bool byte %d", b)
		return false
	}
	return b == 1
}

// Uvarint reads one AppendUvarint value.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.Failf("wire: truncated or overlong uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads one AppendVarint value.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.Failf("wire: truncated or overlong varint")
		return 0
	}
	r.off += n
	return v
}

// Float64 reads one AppendFloat64 value.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.Len() < 8 {
		r.Failf("wire: truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

// String reads one AppendString value. The result is a copy, never an
// alias of the underlying buffer.
func (r *Reader) String() string { return r.StringArena(nil) }

// Floats reads one AppendFloats value, nil for an empty count.
func (r *Reader) Floats() []float64 { return r.FloatsArena(nil) }

// Ints reads one AppendInts value, nil for an empty count.
func (r *Reader) Ints() []int {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(r.Len()) {
		r.Failf("wire: %d ints with %d bytes remaining", n, r.Len())
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.Varint())
	}
	if r.err != nil {
		return nil
	}
	return out
}
