package protocol

// Control-plane message kinds and their wire codecs.
//
// Every ring-maintenance exchange is one of seven message types. The same
// Go values are what the state machine consumes (Machine.Handle) and what
// travels on the wire: the simulator delivers them through the event
// engine after the per-hop delay, the TCP transport frames them with the
// packed codec v2 — no transport-private control record.
//
//   - FindReq/FindResp: locate the successor node of a key. The request is
//     greedily routed along the ring; the node covering the key answers the
//     requester directly. Used by join and finger repair.
//   - StabReq/StabResp: Chord's stabilize. The successor reports its
//     predecessor and successor list; the requester adopts a closer
//     successor when one appears and then notifies.
//   - Notify: "I might be your predecessor."
//   - PingReq/PingResp: predecessor liveness probe.

import (
	"fmt"

	"streamdex/internal/dht"
	"streamdex/internal/overlay"
	"streamdex/internal/wire"
)

// KindRing is the dht.Kind under which all ring-maintenance payloads
// travel — shared by every routing machine (see overlay.KindRing). The
// middleware's metrics classifier files it under the catch-all category,
// so maintenance traffic is observable and chargeable without perturbing
// the per-kind accounting of the paper's figures.
const KindRing = overlay.KindRing

// Ref identifies a remote node: its ring identifier plus a substrate
// address. The state machine compares refs by ID only; the simulator
// leaves Addr empty and routes by ID, the TCP transport dials Addr.
type Ref = overlay.Ref

// FindReq asks the ring for the successor node of Target. It is routed
// greedily (TTL-bounded); whoever covers the target replies to ReplyTo
// with a FindResp carrying the same Token.
type FindReq struct {
	From    Ref // sending hop (identity + reply address)
	Token   uint64
	Target  dht.Key
	TTL     int
	ReplyTo Ref
}

// FindResp answers a FindReq: Succ is the successor node of the requested
// target. Token matches the request; responses whose token is no longer
// pending (expired, superseded by a retry, or duplicated) are discarded.
type FindResp struct {
	From  Ref
	Token uint64
	Succ  Ref
}

// StabReq asks the receiver — the sender's believed successor — for its
// predecessor and successor list.
type StabReq struct {
	From Ref
}

// StabResp is the successor's view: its predecessor (when known) and its
// successor list, from which the requester refreshes its own.
type StabResp struct {
	From     Ref
	HasPred  bool
	Pred     Ref
	SuccList []Ref
}

// Notify tells the receiver the sender might be its predecessor.
type Notify struct {
	From Ref
}

// PingReq probes a neighbor for liveness.
type PingReq struct {
	From Ref
}

// PingResp answers a PingReq.
type PingResp struct {
	From Ref
}

// Packed payload codec tags. One byte on the wire after the envelope; both
// ends of a connection must agree, so these values are protocol, not
// implementation detail: never renumber, only append. Tags 1-9 belong to
// the middleware payloads (internal/core); the control plane starts at 16
// to leave the middleware headroom.
const (
	tagFindReq uint8 = iota + 16
	tagFindResp
	tagStabReq
	tagStabResp
	tagNotify
	tagPingReq
	tagPingResp
)

func init() {
	wire.RegisterPackedPayload(tagFindReq, FindReq{}, codecFuncs{encFindReq, decFindReq})
	wire.RegisterPackedPayload(tagFindResp, FindResp{}, codecFuncs{encFindResp, decFindResp})
	wire.RegisterPackedPayload(tagStabReq, StabReq{}, codecFuncs{encStabReq, decStabReq})
	wire.RegisterPackedPayload(tagStabResp, StabResp{}, codecFuncs{encStabResp, decStabResp})
	wire.RegisterPackedPayload(tagNotify, Notify{}, codecFuncs{encNotify, decNotify})
	wire.RegisterPackedPayload(tagPingReq, PingReq{}, codecFuncs{encPingReq, decPingReq})
	wire.RegisterPackedPayload(tagPingResp, PingResp{}, codecFuncs{encPingResp, decPingResp})
}

// codecFuncs adapts an encode/decode function pair to wire.PayloadCodec.
type codecFuncs struct {
	enc func(dst []byte, p any) ([]byte, error)
	dec func(data []byte) (any, error)
}

func (c codecFuncs) Append(dst []byte, p any) ([]byte, error) { return c.enc(dst, p) }
func (c codecFuncs) Decode(data []byte) (any, error)          { return c.dec(data) }

func errType(want string, got any) error {
	return fmt.Errorf("protocol: codec for %s got %T", want, got)
}

// --- Ref: id(uvar) | addr(string) ---

func appendRef(dst []byte, r Ref) []byte {
	dst = wire.AppendUvarint(dst, uint64(r.ID))
	return wire.AppendString(dst, r.Addr)
}

func readRef(r *wire.Reader) Ref {
	id := dht.Key(r.Uvarint())
	addr := r.String()
	return Ref{ID: id, Addr: addr}
}

// --- FindReq: from(ref) | token(uvar) | target(uvar) | ttl(var) | replyTo(ref) ---

func encFindReq(dst []byte, p any) ([]byte, error) {
	c, ok := p.(FindReq)
	if !ok {
		return nil, errType("FindReq", p)
	}
	dst = appendRef(dst, c.From)
	dst = wire.AppendUvarint(dst, c.Token)
	dst = wire.AppendUvarint(dst, uint64(c.Target))
	dst = wire.AppendVarint(dst, int64(c.TTL))
	dst = appendRef(dst, c.ReplyTo)
	return dst, nil
}

func decFindReq(data []byte) (any, error) {
	r := wire.NewReader(data)
	var c FindReq
	c.From = readRef(&r)
	c.Token = r.Uvarint()
	c.Target = dht.Key(r.Uvarint())
	c.TTL = int(r.Varint())
	c.ReplyTo = readRef(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// --- FindResp: from(ref) | token(uvar) | succ(ref) ---

func encFindResp(dst []byte, p any) ([]byte, error) {
	c, ok := p.(FindResp)
	if !ok {
		return nil, errType("FindResp", p)
	}
	dst = appendRef(dst, c.From)
	dst = wire.AppendUvarint(dst, c.Token)
	dst = appendRef(dst, c.Succ)
	return dst, nil
}

func decFindResp(data []byte) (any, error) {
	r := wire.NewReader(data)
	var c FindResp
	c.From = readRef(&r)
	c.Token = r.Uvarint()
	c.Succ = readRef(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// --- StabReq: from(ref) ---

func encStabReq(dst []byte, p any) ([]byte, error) {
	c, ok := p.(StabReq)
	if !ok {
		return nil, errType("StabReq", p)
	}
	return appendRef(dst, c.From), nil
}

func decStabReq(data []byte) (any, error) {
	r := wire.NewReader(data)
	c := StabReq{From: readRef(&r)}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// --- StabResp: from(ref) | hasPred(bool) | [pred(ref)] | count(uvar) | succ refs ---

func encStabResp(dst []byte, p any) ([]byte, error) {
	c, ok := p.(StabResp)
	if !ok {
		return nil, errType("StabResp", p)
	}
	dst = appendRef(dst, c.From)
	dst = wire.AppendBool(dst, c.HasPred)
	if c.HasPred {
		dst = appendRef(dst, c.Pred)
	}
	dst = wire.AppendUvarint(dst, uint64(len(c.SuccList)))
	for _, s := range c.SuccList {
		dst = appendRef(dst, s)
	}
	return dst, nil
}

func decStabResp(data []byte) (any, error) {
	r := wire.NewReader(data)
	var c StabResp
	c.From = readRef(&r)
	c.HasPred = r.Bool()
	if c.HasPred {
		c.Pred = readRef(&r)
	}
	n := r.Uvarint()
	// Each ref is at least two bytes (one-byte id varint, zero-length
	// addr), so a count exceeding half the remaining bytes is corrupt.
	if n > uint64(r.Len())/2 {
		r.Failf("protocol: %d successor refs with %d bytes remaining", n, r.Len())
	}
	if r.Err() == nil && n > 0 {
		c.SuccList = make([]Ref, n)
		for i := range c.SuccList {
			c.SuccList[i] = readRef(&r)
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// --- Notify / PingReq / PingResp: from(ref) ---

func encNotify(dst []byte, p any) ([]byte, error) {
	c, ok := p.(Notify)
	if !ok {
		return nil, errType("Notify", p)
	}
	return appendRef(dst, c.From), nil
}

func decNotify(data []byte) (any, error) {
	r := wire.NewReader(data)
	c := Notify{From: readRef(&r)}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

func encPingReq(dst []byte, p any) ([]byte, error) {
	c, ok := p.(PingReq)
	if !ok {
		return nil, errType("PingReq", p)
	}
	return appendRef(dst, c.From), nil
}

func decPingReq(data []byte) (any, error) {
	r := wire.NewReader(data)
	c := PingReq{From: readRef(&r)}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

func encPingResp(dst []byte, p any) ([]byte, error) {
	c, ok := p.(PingResp)
	if !ok {
		return nil, errType("PingResp", p)
	}
	return appendRef(dst, c.From), nil
}

func decPingResp(data []byte) (any, error) {
	r := wire.NewReader(data)
	c := PingResp{From: readRef(&r)}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}
