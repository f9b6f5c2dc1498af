package koorde

// Control-plane messages of the Koorde machine and their wire codecs. The
// successor ring runs on the backbone's shared messages (overlay.FindResp,
// StabReq, StabResp, Notify, PingReq, PingResp); these are the Koorde-only
// ones:
//
//   - KFindReq: locate the successor node of a key, routed as a stateful
//     de Bruijn walk (with greedy fallback); the node covering the key
//     answers the requester with an overlay.FindResp. Used by join and
//     chain repair.
//   - KStabReq/KStabResp: the chain probe. The node believed to host
//     k·self reports its predecessor and successor list, from which the
//     requester patches its pointer chain.
//   - KDListReq/KDListResp: the full chain rebuild through the node found
//     to host k·self.
//
// Every binary registers both machines' codecs, so in a mixed Chord/Koorde
// cluster every frame decodes: a Chord node receiving a KFindReq, or a
// Koorde node receiving a FindReq, ignores it silently, and a joiner of
// the wrong machine family times out instead of being absorbed. Nothing
// rejects the foreign node loudly; a machine handshake at join is the
// open fix (ROADMAP item 1(iii)).

import (
	"streamdex/internal/dht"
	"streamdex/internal/overlay"
	"streamdex/internal/wire"
)

// Ref is the substrate-neutral node reference (compared by ID; the live
// transport dials Addr).
type Ref = overlay.Ref

// ShiftNone marks a KFindReq carrying no de Bruijn walk state yet: the
// first node to route it anchors the walk from its own arc.
const ShiftNone uint8 = 0xff

// KFindReq asks the ring for the successor node of Target. It is routed
// as a stateful de Bruijn walk (TTL-bounded): I is the imaginary de
// Bruijn node the walk is forwarding toward and Shift the number of
// Target digits still to inject into it. The node hosting I injects the
// next digit (I ← k·I + digit, Shift ← Shift−1); at Shift zero I has
// become Target itself and the walk finishes along successors. Any hop
// whose own arc offers a strictly shorter alignment re-anchors the walk,
// which both starts fresh lookups and heals stale state. Whoever covers
// the target replies to ReplyTo with an overlay.FindResp carrying the
// same Token.
type KFindReq struct {
	From    Ref // sending hop (identity + reply address)
	Token   uint64
	Target  dht.Key
	TTL     int
	ReplyTo Ref
	I       dht.Key // imaginary de Bruijn node the walk forwards toward
	Shift   uint8   // digits of Target still to inject; ShiftNone = unanchored
}

// KStabReq is the chain probe: the receiver is the sender's chain head
// (its believed pred(k·self) host) and Image carries k·self. The machine
// sends it only with Chain set and ignores one without; the flag stays on
// the wire so the layout is unchanged.
type KStabReq struct {
	From  Ref
	Chain bool
	Image dht.Key
}

// KStabResp answers a chain probe with the responder's predecessor (when
// known) and successor list; Chain and Image echo the request so the
// requester can check the reply still matches the image it chases.
type KStabResp struct {
	From     Ref
	HasPred  bool
	Pred     Ref
	SuccList []Ref
	Chain    bool
	Image    dht.Key
}

// KDListReq asks the receiver — the node found to host k·self — for its
// neighborhood, so the sender can rebuild its de Bruijn pointer chain.
type KDListReq struct {
	From Ref
}

// KDListResp answers a KDListReq: the responder's predecessor (the true
// first de Bruijn pointer, pred(k·self)) and its successor list (the
// chain covering the image arc).
type KDListResp struct {
	From     Ref
	HasPred  bool
	Pred     Ref
	SuccList []Ref
}

// Packed payload codec tags (see overlay's tag table): never renumber,
// never reuse. 33 and 36-38 are retired.
const (
	tagKFindReq   uint8 = 32
	tagKStabReq   uint8 = 34
	tagKStabResp  uint8 = 35
	tagKDListReq  uint8 = 39
	tagKDListResp uint8 = 40
)

func init() {
	wire.RegisterPackedPayload(tagKFindReq, KFindReq{}, overlay.RingCodec(encKFindReq, decKFindReq))
	wire.RegisterPackedPayload(tagKStabReq, KStabReq{}, overlay.RingCodec(encKStabReq, decKStabReq))
	wire.RegisterPackedPayload(tagKStabResp, KStabResp{}, overlay.RingCodec(encKStabResp, decKStabResp))
	wire.RegisterPackedPayload(tagKDListReq, KDListReq{}, overlay.RingCodec(encKDListReq, decKDListReq))
	wire.RegisterPackedPayload(tagKDListResp, KDListResp{}, overlay.RingCodec(encKDListResp, decKDListResp))
}

// --- KFindReq: from(ref) | token(uvar) | target(uvar) | ttl(var) |
//     replyTo(ref) | i(uvar) | shift(uvar) ---

func encKFindReq(dst []byte, c KFindReq) []byte {
	dst = overlay.AppendRef(dst, c.From)
	dst = wire.AppendUvarint(dst, c.Token)
	dst = wire.AppendUvarint(dst, uint64(c.Target))
	dst = wire.AppendVarint(dst, int64(c.TTL))
	dst = overlay.AppendRef(dst, c.ReplyTo)
	dst = wire.AppendUvarint(dst, uint64(c.I))
	return wire.AppendUvarint(dst, uint64(c.Shift))
}

func decKFindReq(data []byte) (any, error) {
	r := wire.NewReader(data)
	var c KFindReq
	c.From = overlay.ReadRef(&r)
	c.Token = r.Uvarint()
	c.Target = dht.Key(r.Uvarint())
	c.TTL = int(r.Varint())
	c.ReplyTo = overlay.ReadRef(&r)
	c.I = dht.Key(r.Uvarint())
	c.Shift = uint8(r.Uvarint())
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// --- KStabReq: from(ref) | chain(bool) | [image(uvar)] ---

func encKStabReq(dst []byte, c KStabReq) []byte {
	dst = overlay.AppendRef(dst, c.From)
	dst = wire.AppendBool(dst, c.Chain)
	if c.Chain {
		dst = wire.AppendUvarint(dst, uint64(c.Image))
	}
	return dst
}

func decKStabReq(data []byte) (any, error) {
	r := wire.NewReader(data)
	c := KStabReq{From: overlay.ReadRef(&r)}
	c.Chain = r.Bool()
	if c.Chain {
		c.Image = dht.Key(r.Uvarint())
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// --- KStabResp: from(ref) | neighborhood | chain(bool) | [image(uvar)] ---

func encKStabResp(dst []byte, c KStabResp) []byte {
	dst = overlay.AppendRef(dst, c.From)
	dst = overlay.AppendNeighborhood(dst, c.HasPred, c.Pred, c.SuccList)
	dst = wire.AppendBool(dst, c.Chain)
	if c.Chain {
		dst = wire.AppendUvarint(dst, uint64(c.Image))
	}
	return dst
}

func decKStabResp(data []byte) (any, error) {
	r := wire.NewReader(data)
	var c KStabResp
	c.From = overlay.ReadRef(&r)
	c.HasPred, c.Pred, c.SuccList = overlay.ReadNeighborhood(&r)
	c.Chain = r.Bool()
	if c.Chain {
		c.Image = dht.Key(r.Uvarint())
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// --- KDListReq: from(ref) ---

func encKDListReq(dst []byte, c KDListReq) []byte { return overlay.AppendRef(dst, c.From) }

func decKDListReq(data []byte) (any, error) {
	r := wire.NewReader(data)
	c := KDListReq{From: overlay.ReadRef(&r)}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// --- KDListResp: from(ref) | neighborhood ---

func encKDListResp(dst []byte, c KDListResp) []byte {
	dst = overlay.AppendRef(dst, c.From)
	return overlay.AppendNeighborhood(dst, c.HasPred, c.Pred, c.SuccList)
}

func decKDListResp(data []byte) (any, error) {
	r := wire.NewReader(data)
	var c KDListResp
	c.From = overlay.ReadRef(&r)
	c.HasPred, c.Pred, c.SuccList = overlay.ReadNeighborhood(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}
