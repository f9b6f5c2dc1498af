package overlay

// The ring messages every machine's backbone speaks, and their wire codecs.
//
// The same Go values are what Ring.Handle consumes and what travels on the
// wire: the simulator delivers them through the event engine after the
// per-hop delay, the TCP transport frames them with the packed codec v2.
//
//   - FindResp: answers a machine's lookup request (Chord's FindReq,
//     Koorde's KFindReq); the lookup requests themselves belong to the
//     machines, since each routes them its own way.
//   - StabReq/StabResp: stabilize. The successor reports its predecessor
//     and successor list; the requester adopts a closer successor when one
//     appears and then notifies.
//   - Notify: "I might be your predecessor."
//   - PingReq/PingResp: predecessor liveness probe.

import (
	"fmt"

	"streamdex/internal/dht"
	"streamdex/internal/wire"
)

// FindResp answers a lookup request: Succ is the successor node of the
// requested target. Token matches the request; responses whose token is no
// longer pending (expired, superseded by a retry, or duplicated) are
// discarded.
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
// implementation detail: never renumber, never reuse. Tags 1-9 belong to
// the middleware payloads (internal/core), 16 to Chord's FindReq, 17-22 to
// the ring messages here, 23-29 to the continuous-query engine, 30-31 to
// load balancing, 32 and 34-35 and 39-40 to Koorde. Tags 33 and 36-38
// (Koorde's former copies of FindResp, Notify, PingReq and PingResp) are
// retired.
const (
	tagFindResp uint8 = iota + 17
	tagStabReq
	tagStabResp
	tagNotify
	tagPingReq
	tagPingResp
)

func init() {
	wire.RegisterPackedPayload(tagFindResp, FindResp{}, RingCodec(encFindResp, decFindResp))
	wire.RegisterPackedPayload(tagStabReq, StabReq{}, RingCodec(encStabReq, decStabReq))
	wire.RegisterPackedPayload(tagStabResp, StabResp{}, RingCodec(encStabResp, decStabResp))
	wire.RegisterPackedPayload(tagNotify, Notify{}, RingCodec(encNotify, decNotify))
	wire.RegisterPackedPayload(tagPingReq, PingReq{}, RingCodec(encPingReq, decPingReq))
	wire.RegisterPackedPayload(tagPingResp, PingResp{}, RingCodec(encPingResp, decPingResp))
}

// RingCodec adapts a typed encoder and a decoder for one ring-control
// payload type to wire.PayloadCodec.
func RingCodec[T any](enc func(dst []byte, c T) []byte, dec func(data []byte) (any, error)) wire.PayloadCodec {
	return ringCodec[T]{enc, dec}
}

type ringCodec[T any] struct {
	enc func(dst []byte, c T) []byte
	dec func(data []byte) (any, error)
}

func (c ringCodec[T]) Append(dst []byte, p any) ([]byte, error) {
	v, ok := p.(T)
	if !ok {
		return nil, fmt.Errorf("overlay: codec for %T got %T", v, p)
	}
	return c.enc(dst, v), nil
}

func (c ringCodec[T]) Decode(data []byte) (any, error) { return c.dec(data) }

// --- Ref: id(uvar) | addr(string) ---

// AppendRef packs a node reference.
func AppendRef(dst []byte, r Ref) []byte {
	dst = wire.AppendUvarint(dst, uint64(r.ID))
	return wire.AppendString(dst, r.Addr)
}

// ReadRef unpacks a node reference.
func ReadRef(r *wire.Reader) Ref {
	id := dht.Key(r.Uvarint())
	addr := r.String()
	return Ref{ID: id, Addr: addr}
}

// AppendNeighborhood packs the predecessor-and-successors shape StabResp
// shares with Koorde's chain replies: hasPred(bool) | [pred(ref)] |
// count(uvar) | succ refs.
func AppendNeighborhood(dst []byte, hasPred bool, pred Ref, succList []Ref) []byte {
	dst = wire.AppendBool(dst, hasPred)
	if hasPred {
		dst = AppendRef(dst, pred)
	}
	dst = wire.AppendUvarint(dst, uint64(len(succList)))
	for _, s := range succList {
		dst = AppendRef(dst, s)
	}
	return dst
}

// ReadNeighborhood unpacks what AppendNeighborhood packed.
func ReadNeighborhood(r *wire.Reader) (hasPred bool, pred Ref, succList []Ref) {
	hasPred = r.Bool()
	if hasPred {
		pred = ReadRef(r)
	}
	n := r.Uvarint()
	// Each ref is at least two bytes (one-byte id varint, zero-length
	// addr), so a count exceeding half the remaining bytes is corrupt.
	if n > uint64(r.Len())/2 {
		r.Failf("overlay: %d successor refs with %d bytes remaining", n, r.Len())
	}
	if r.Err() == nil && n > 0 {
		succList = make([]Ref, n)
		for i := range succList {
			succList[i] = ReadRef(r)
		}
	}
	return hasPred, pred, succList
}

// --- FindResp: from(ref) | token(uvar) | succ(ref) ---

func encFindResp(dst []byte, c FindResp) []byte {
	dst = AppendRef(dst, c.From)
	dst = wire.AppendUvarint(dst, c.Token)
	return AppendRef(dst, c.Succ)
}

func decFindResp(data []byte) (any, error) {
	r := wire.NewReader(data)
	var c FindResp
	c.From = ReadRef(&r)
	c.Token = r.Uvarint()
	c.Succ = ReadRef(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// --- StabReq / Notify / PingReq / PingResp: from(ref) ---

func encStabReq(dst []byte, c StabReq) []byte   { return AppendRef(dst, c.From) }
func encNotify(dst []byte, c Notify) []byte     { return AppendRef(dst, c.From) }
func encPingReq(dst []byte, c PingReq) []byte   { return AppendRef(dst, c.From) }
func encPingResp(dst []byte, c PingResp) []byte { return AppendRef(dst, c.From) }

func decStabReq(data []byte) (any, error) {
	r := wire.NewReader(data)
	c := StabReq{From: ReadRef(&r)}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

func decNotify(data []byte) (any, error) {
	r := wire.NewReader(data)
	c := Notify{From: ReadRef(&r)}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

func decPingReq(data []byte) (any, error) {
	r := wire.NewReader(data)
	c := PingReq{From: ReadRef(&r)}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

func decPingResp(data []byte) (any, error) {
	r := wire.NewReader(data)
	c := PingResp{From: ReadRef(&r)}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// --- StabResp: from(ref) | hasPred(bool) | [pred(ref)] | count(uvar) | succ refs ---

func encStabResp(dst []byte, c StabResp) []byte {
	dst = AppendRef(dst, c.From)
	return AppendNeighborhood(dst, c.HasPred, c.Pred, c.SuccList)
}

func decStabResp(data []byte) (any, error) {
	r := wire.NewReader(data)
	var c StabResp
	c.From = ReadRef(&r)
	c.HasPred, c.Pred, c.SuccList = ReadNeighborhood(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}
