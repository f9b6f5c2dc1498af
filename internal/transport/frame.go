package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Stream framing: every frame on a connection is
//
//	uint32 big-endian body length | 1 byte frame type | body
//
// The type byte distinguishes the data plane from the control plane:
//
//   - frameRouted / frameDirect carry a wire.Marshal-encoded dht.Message.
//     A routed frame is addressed to a key and keeps hopping until it
//     reaches the covering node; a direct frame is for the receiving
//     neighbor itself (the SendToSuccessor/SendToPredecessor primitives).
//   - frameControl also carries a wire.Marshal-encoded dht.Message, whose
//     payload is one of the routing machine's ring-maintenance messages
//     (lookup/stabilize/notify/ping, plus Koorde's chain repair) under
//     overlay.KindRing, packed by the codec-v2 registry like any other
//     payload.
//
// The length prefix covers the type byte plus body, so a reader can skip
// frames of unknown type without understanding them.
const (
	frameRouted byte = iota + 1
	frameDirect
	frameControl
)

// frameOverhead is the per-frame cost of the stream framing itself: the
// 4-byte length prefix plus the type byte. Everything after it is the
// wire.Marshal body whose length the bandwidth observers charge.
const frameOverhead = 5

// maxFrameBytes bounds a single frame so a corrupt or hostile length
// prefix cannot make a reader allocate unboundedly.
const maxFrameBytes = 16 << 20

// maxPooledFrame caps the capacity a recycled frame buffer may pin in the
// pool; the rare oversized frame is allocated and released normally.
const maxPooledFrame = 64 << 10

// frameBuf is one encoded frame in a pooled buffer. The send path is
// allocation-free in steady state: transmitApp takes a frameBuf from the
// pool, appends the prefix and the wire body in place, and the peer writer
// recycles it once the bytes are on the socket (or dropped).
type frameBuf struct {
	b []byte
}

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// newFrame returns a pooled buffer primed with the 5-byte frame prefix
// (length placeholder + type). Append the body to f.b, then call finish.
func newFrame(typ byte) *frameBuf {
	f := framePool.Get().(*frameBuf)
	f.b = append(f.b[:0], 0, 0, 0, 0, typ)
	return f
}

// finish fills in the length prefix once the body is complete.
func (f *frameBuf) finish() {
	binary.BigEndian.PutUint32(f.b, uint32(len(f.b)-4))
}

// recycle returns the buffer to the pool for the next frame.
func (f *frameBuf) recycle() {
	if cap(f.b) > maxPooledFrame {
		f.b = nil
	}
	framePool.Put(f)
}

// frameReader decodes frames off one inbound connection, buffering reads
// (one syscall typically yields many coalesced frames, matching the writer
// side) and reusing a single body buffer across frames. The body returned
// by next is valid only until the following next call — decoders must copy
// anything they keep, which wire.Unmarshal and decodeControl both guarantee.
type frameReader struct {
	r   *bufio.Reader
	buf []byte
}

func newFrameReader(conn io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(conn, 32<<10)}
}

// next reads one frame, returning its type and body.
func (fr *frameReader) next() (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 {
		return 0, nil, fmt.Errorf("transport: empty frame")
	}
	if n > maxFrameBytes {
		return 0, nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	buf := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}
