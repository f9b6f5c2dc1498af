package wire

import (
	"encoding/binary"
	"fmt"

	"streamdex/internal/dht"
	"streamdex/internal/sim"
)

// Real framing for the live transport. A marshalled message is the fixed
// binary envelope (exactly HeaderBytes long, matching the size model the
// simulator has always charged) followed by the payload encoding: a
// one-byte codec tag plus the bytes of the payload type's registered
// packed codec (packed.go). The envelope is encoded by hand with
// encoding/binary so the header cost on real sockets is byte-for-byte the
// HeaderBytes constant the bandwidth evaluation assumes; payloads are
// likewise byte-for-byte what Sizeof charges.
//
// Envelope layout (big-endian):
//
//	off len field
//	  0   1 Kind
//	  1   8 Key
//	  9   8 Src
//	 17   8 RangeStart
//	 25   8 RangeEnd
//	 33   1 flags: bit0 HasRange, bit1 RangeTail, bit2 payload present
//	          (codec tag + packed bytes follow), bits 3-4 Mode,
//	          bits 5-6 Dir (0/1/2 for 0/+1/-1), bit7 reserved (must be 0)
//	 34   3 Hops (unsigned, saturating)
//	 37   8 SentAt
//
// Mode has three real values (0-2); the reserved encoding 3 marks a
// tree-mode (Mode == RangeTree) split leg: the envelope is followed by a
// 9-byte split extension — SplitImg (8) and SplitShift (1) — before the
// payload encoding. Non-split frames carry no extension, so the historic
// layout (and every byte the bandwidth evaluation has ever charged) is
// unchanged.
//
// Bytes is not transmitted: the receiver recomputes it as len(frame), which
// is also what the sender's observer should charge.

const (
	flagHasRange  = 1 << 0
	flagRangeTail = 1 << 1
	flagPayload   = 1 << 2
	modeShift     = 3
	dirShift      = 5
	flagReserved  = 1 << 7
	maxHops       = 1<<24 - 1
)

// SplitExtBytes is the split-leg extension following the envelope when
// the Mode bits read 3: SplitImg (8) + SplitShift (1). Exported so byte
// accounting on top of Sizeof — a payload-only measure — can add the
// extension for split legs; receivers always charge len(frame) directly.
const SplitExtBytes = 9

// Marshal encodes a message into a freshly allocated self-contained frame
// body. Steady-state senders should prefer AppendMarshal with a reused
// buffer; Marshal remains for one-shot callers and tests.
func Marshal(msg *dht.Message) ([]byte, error) {
	return AppendMarshal(make([]byte, 0, HeaderBytes+64), msg)
}

// AppendMarshal appends the frame body for msg to dst and returns the
// extended slice: the fixed envelope followed by the payload encoding (if
// any). With sufficient capacity in dst it performs no allocations, which
// is what lets the transport run its encode path entirely out of a
// sync.Pool. A payload whose type has no registered packed codec is an
// error.
func AppendMarshal(dst []byte, msg *dht.Message) ([]byte, error) {
	var entry packedEntry
	if msg.Payload != nil {
		var ok bool
		if entry, ok = packedFor(msg.Payload); !ok {
			return nil, fmt.Errorf("wire: no packed codec registered for payload %T", msg.Payload)
		}
	}

	var env [HeaderBytes]byte
	env[0] = byte(msg.Kind)
	binary.BigEndian.PutUint64(env[1:9], uint64(msg.Key))
	binary.BigEndian.PutUint64(env[9:17], uint64(msg.Src))
	binary.BigEndian.PutUint64(env[17:25], uint64(msg.RangeStart))
	binary.BigEndian.PutUint64(env[25:33], uint64(msg.RangeEnd))

	var flags byte
	if msg.HasRange {
		flags |= flagHasRange
	}
	if msg.RangeTail {
		flags |= flagRangeTail
	}
	if msg.Payload != nil {
		flags |= flagPayload
	}
	if msg.Mode < 0 || msg.Mode > 2 {
		// Mode 3 is the split-leg marker on the wire, never a real mode.
		return nil, fmt.Errorf("wire: range mode %d out of envelope bounds", msg.Mode)
	}
	flags |= byte(msg.Mode) << modeShift
	if msg.Split {
		if !msg.HasRange || msg.Mode != dht.RangeTree {
			return nil, fmt.Errorf("wire: split leg outside a tree-mode range multicast")
		}
		flags |= 3 << modeShift
	}
	switch msg.Dir {
	case 0:
	case 1:
		flags |= 1 << dirShift
	case -1:
		flags |= 2 << dirShift
	default:
		return nil, fmt.Errorf("wire: direction %d out of envelope bounds", msg.Dir)
	}
	env[33] = flags

	hops := msg.Hops
	if hops < 0 {
		return nil, fmt.Errorf("wire: negative hop count %d", hops)
	}
	if hops > maxHops {
		hops = maxHops
	}
	env[34] = byte(hops >> 16)
	env[35] = byte(hops >> 8)
	env[36] = byte(hops)
	binary.BigEndian.PutUint64(env[37:45], uint64(msg.SentAt))

	dst = append(dst, env[:]...)
	if msg.Split {
		var ext [SplitExtBytes]byte
		binary.BigEndian.PutUint64(ext[0:8], uint64(msg.SplitImg))
		ext[8] = msg.SplitShift
		dst = append(dst, ext[:]...)
	}
	if msg.Payload != nil {
		dst = append(dst, entry.tag)
		var err error
		dst, err = entry.codec.Append(dst, msg.Payload)
		if err != nil {
			return nil, fmt.Errorf("wire: packing %T payload: %w", msg.Payload, err)
		}
	}
	return dst, nil
}

// Unmarshal decodes a frame body produced by Marshal. The returned
// message's Bytes field is set to the frame length, so observers on the
// receiving side account exactly what crossed the socket. The frame slice
// is not retained: codecs copy what they keep, so callers may reuse the
// buffer for the next frame.
func Unmarshal(frame []byte) (*dht.Message, error) {
	return unmarshal(frame, nil)
}

// UnmarshalArena is Unmarshal carving the decoded payload objects of
// codecs implementing ArenaDecoder out of the given arena, together with
// the message that carries them. Any other payload gets a heap message: an
// arena message slot lives as long as its whole slab, and so would the
// heap payload it points to. Wire behavior is identical; only where the
// copies live changes. The frame slice is still never aliased.
func UnmarshalArena(frame []byte, a *Arena) (*dht.Message, error) {
	return unmarshal(frame, a)
}

func unmarshal(frame []byte, a *Arena) (*dht.Message, error) {
	if len(frame) < HeaderBytes {
		return nil, fmt.Errorf("wire: frame of %d bytes, envelope needs %d", len(frame), HeaderBytes)
	}
	flags := frame[33]
	if flags&flagReserved != 0 {
		return nil, fmt.Errorf("wire: reserved envelope flag bit 7 set")
	}
	msg := dht.Message{
		Kind:       dht.Kind(frame[0]),
		Key:        dht.Key(binary.BigEndian.Uint64(frame[1:9])),
		Src:        dht.Key(binary.BigEndian.Uint64(frame[9:17])),
		RangeStart: dht.Key(binary.BigEndian.Uint64(frame[17:25])),
		RangeEnd:   dht.Key(binary.BigEndian.Uint64(frame[25:33])),
		Bytes:      len(frame),
	}
	msg.HasRange = flags&flagHasRange != 0
	msg.RangeTail = flags&flagRangeTail != 0
	msg.Mode = dht.RangeMode(flags >> modeShift & 3)
	if msg.Mode == 3 {
		// Reserved mode encoding: a tree-mode split leg with a trailing
		// extension.
		msg.Mode = dht.RangeTree
		msg.Split = true
		if !msg.HasRange {
			return nil, fmt.Errorf("wire: split leg without a range")
		}
	}
	switch flags >> dirShift & 3 {
	case 0:
		msg.Dir = 0
	case 1:
		msg.Dir = 1
	case 2:
		msg.Dir = -1
	default:
		return nil, fmt.Errorf("wire: reserved direction bits set")
	}
	msg.Hops = int(frame[34])<<16 | int(frame[35])<<8 | int(frame[36])
	msg.SentAt = sim.Time(binary.BigEndian.Uint64(frame[37:45]))

	hasPayload := flags&flagPayload != 0
	body := frame[HeaderBytes:]
	if msg.Split {
		if len(body) < SplitExtBytes {
			return nil, fmt.Errorf("wire: split leg frame of %d bytes, extension needs %d", len(frame), HeaderBytes+SplitExtBytes)
		}
		msg.SplitImg = dht.Key(binary.BigEndian.Uint64(body[0:8]))
		msg.SplitShift = body[8]
		body = body[SplitExtBytes:]
	}
	if !hasPayload {
		if len(body) != 0 {
			return nil, fmt.Errorf("wire: %d trailing bytes on a payload-less frame", len(body))
		}
		return carve(a, msg), nil
	}
	if len(body) < 1 {
		return nil, fmt.Errorf("wire: payload without codec tag")
	}
	tag := body[0]
	codec := packedByTag[tag]
	if codec == nil {
		return nil, fmt.Errorf("wire: no codec registered for payload tag %d", tag)
	}
	var err error
	ad, arena := codec.(ArenaDecoder)
	if arena && a != nil {
		msg.Payload, err = ad.DecodeArena(body[1:], a)
	} else {
		msg.Payload, err = codec.Decode(body[1:])
	}
	if err != nil {
		return nil, fmt.Errorf("wire: decoding payload of kind %d: %w", msg.Kind, err)
	}
	if !arena {
		a = nil
	}
	return carve(a, msg), nil
}

// carve moves a decoded message into the arena's message slab, or onto
// the heap when a is nil.
func carve(a *Arena, msg dht.Message) *dht.Message {
	var m *dht.Message
	if a == nil {
		m = new(dht.Message)
	} else {
		m = a.Msg()
	}
	*m = msg
	return m
}
