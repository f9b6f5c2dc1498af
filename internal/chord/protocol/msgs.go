package protocol

// Chord's lookup request and its wire codec. Every other control message
// the machine sends or handles is a shared ring message of the backbone
// (overlay.FindResp, StabReq, StabResp, Notify, PingReq, PingResp, tags
// 17-22).

import (
	"streamdex/internal/dht"
	"streamdex/internal/overlay"
	"streamdex/internal/wire"
)

// Ref identifies a remote node: its ring identifier plus a substrate
// address. The state machine compares refs by ID only; the simulator
// leaves Addr empty and routes by ID, the TCP transport dials Addr.
type Ref = overlay.Ref

// FindReq asks the ring for the successor node of Target. It is routed
// greedily (TTL-bounded); whoever covers the target replies to ReplyTo
// with an overlay.FindResp carrying the same Token.
type FindReq struct {
	From    Ref // sending hop (identity + reply address)
	Token   uint64
	Target  dht.Key
	TTL     int
	ReplyTo Ref
}

// tagFindReq is FindReq's packed payload codec tag: protocol, not
// implementation detail — never renumber (see overlay's tag table).
const tagFindReq uint8 = 16

func init() {
	wire.RegisterPackedPayload(tagFindReq, FindReq{}, overlay.RingCodec(encFindReq, decFindReq))
}

// --- FindReq: from(ref) | token(uvar) | target(uvar) | ttl(var) | replyTo(ref) ---

func encFindReq(dst []byte, c FindReq) []byte {
	dst = overlay.AppendRef(dst, c.From)
	dst = wire.AppendUvarint(dst, c.Token)
	dst = wire.AppendUvarint(dst, uint64(c.Target))
	dst = wire.AppendVarint(dst, int64(c.TTL))
	return overlay.AppendRef(dst, c.ReplyTo)
}

func decFindReq(data []byte) (any, error) {
	r := wire.NewReader(data)
	var c FindReq
	c.From = overlay.ReadRef(&r)
	c.Token = r.Uvarint()
	c.Target = dht.Key(r.Uvarint())
	c.TTL = int(r.Varint())
	c.ReplyTo = overlay.ReadRef(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}
