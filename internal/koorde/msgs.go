package koorde

// Control-plane message kinds of the Koorde machine and their wire codecs.
//
// The maintenance exchanges mirror Chord's — the ring substrate (successor
// lists, stabilize/notify, liveness pings) is identical; only the
// long-distance links differ — but they are distinct types with distinct
// tags: a Koorde cluster and a Chord cluster speak related yet different
// protocols, and a mixed cluster must fail loudly at decode, not converge
// by accident.
//
//   - KFindReq/KFindResp: locate the successor node of a key. Routed with
//     the de Bruijn rule (with greedy fallback); the node covering the key
//     answers the requester directly. Used by join and pointer repair.
//   - KStabReq/KStabResp: stabilize. The successor reports its predecessor
//     and successor list; the requester adopts a closer successor when one
//     appears and then notifies.
//   - KNotify: "I might be your predecessor."
//   - KPingReq/KPingResp: predecessor liveness probe.
//   - KDListReq/KDListResp: de Bruijn pointer repair. The node hosting
//     k·self reports its predecessor and successor list, from which the
//     requester rebuilds its pointer chain.

import (
	"fmt"

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
// the target replies to ReplyTo with a KFindResp carrying the same Token.
type KFindReq struct {
	From    Ref // sending hop (identity + reply address)
	Token   uint64
	Target  dht.Key
	TTL     int
	ReplyTo Ref
	I       dht.Key // imaginary de Bruijn node the walk forwards toward
	Shift   uint8   // digits of Target still to inject; ShiftNone = unanchored
}

// KFindResp answers a KFindReq: Succ is the successor node of the
// requested target. Token matches the request; responses whose token is no
// longer pending are discarded as stale.
type KFindResp struct {
	From  Ref
	Token uint64
	Succ  Ref
}

// KStabReq asks the receiver — the sender's believed successor — for its
// predecessor and successor list. With Chain set it is instead the
// piggybacked de Bruijn repair probe: the receiver is the sender's chain
// head (its believed pred(k·self) host), Image carries k·self, and the
// receiver must answer with the same neighborhood shape but without
// treating the far-away requester as a predecessor candidate.
type KStabReq struct {
	From  Ref
	Chain bool
	Image dht.Key
}

// KStabResp is the successor's view: its predecessor (when known) and its
// successor list, from which the requester refreshes its own. Chain and
// Image echo the request so the requester can patch its pointer chain
// (Chain set) instead of its successor list.
type KStabResp struct {
	From     Ref
	HasPred  bool
	Pred     Ref
	SuccList []Ref
	Chain    bool
	Image    dht.Key
}

// KNotify tells the receiver the sender might be its predecessor.
type KNotify struct {
	From Ref
}

// KPingReq probes a neighbor for liveness.
type KPingReq struct {
	From Ref
}

// KPingResp answers a KPingReq.
type KPingResp struct {
	From Ref
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

// Packed payload codec tags. One byte on the wire after the envelope; both
// ends of a connection must agree, so these values are protocol, not
// implementation detail: never renumber, only append. Tags 1-9 belong to
// the middleware payloads, 16-22 to the Chord control plane, 23-29 to the
// continuous-query engine, 30-31 to load balancing; the Koorde control
// plane takes 32-40.
const (
	tagKFindReq uint8 = iota + 32
	tagKFindResp
	tagKStabReq
	tagKStabResp
	tagKNotify
	tagKPingReq
	tagKPingResp
	tagKDListReq
	tagKDListResp
)

func init() {
	wire.RegisterPackedPayload(tagKFindReq, KFindReq{}, codecFuncs{encKFindReq, decKFindReq})
	wire.RegisterPackedPayload(tagKFindResp, KFindResp{}, codecFuncs{encKFindResp, decKFindResp})
	wire.RegisterPackedPayload(tagKStabReq, KStabReq{}, codecFuncs{encKStabReq, decKStabReq})
	wire.RegisterPackedPayload(tagKStabResp, KStabResp{}, codecFuncs{encKStabResp, decKStabResp})
	wire.RegisterPackedPayload(tagKNotify, KNotify{}, codecFuncs{encKNotify, decKNotify})
	wire.RegisterPackedPayload(tagKPingReq, KPingReq{}, codecFuncs{encKPingReq, decKPingReq})
	wire.RegisterPackedPayload(tagKPingResp, KPingResp{}, codecFuncs{encKPingResp, decKPingResp})
	wire.RegisterPackedPayload(tagKDListReq, KDListReq{}, codecFuncs{encKDListReq, decKDListReq})
	wire.RegisterPackedPayload(tagKDListResp, KDListResp{}, codecFuncs{encKDListResp, decKDListResp})
}

// codecFuncs adapts an encode/decode function pair to wire.PayloadCodec.
type codecFuncs struct {
	enc func(dst []byte, p any) ([]byte, error)
	dec func(data []byte) (any, error)
}

func (c codecFuncs) Append(dst []byte, p any) ([]byte, error) { return c.enc(dst, p) }
func (c codecFuncs) Decode(data []byte) (any, error)          { return c.dec(data) }

func errType(want string, got any) error {
	return fmt.Errorf("koorde: codec for %s got %T", want, got)
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

// appendNeighborhood / readNeighborhood pack the shared shape of
// KStabResp and KDListResp: hasPred(bool) | [pred(ref)] | count(uvar) |
// succ refs.
func appendNeighborhood(dst []byte, hasPred bool, pred Ref, succList []Ref) []byte {
	dst = wire.AppendBool(dst, hasPred)
	if hasPred {
		dst = appendRef(dst, pred)
	}
	dst = wire.AppendUvarint(dst, uint64(len(succList)))
	for _, s := range succList {
		dst = appendRef(dst, s)
	}
	return dst
}

func readNeighborhood(r *wire.Reader) (hasPred bool, pred Ref, succList []Ref) {
	hasPred = r.Bool()
	if hasPred {
		pred = readRef(r)
	}
	n := r.Uvarint()
	// Each ref is at least two bytes (one-byte id varint, zero-length
	// addr), so a count exceeding half the remaining bytes is corrupt.
	if n > uint64(r.Len())/2 {
		r.Failf("koorde: %d successor refs with %d bytes remaining", n, r.Len())
	}
	if r.Err() == nil && n > 0 {
		succList = make([]Ref, n)
		for i := range succList {
			succList[i] = readRef(r)
		}
	}
	return hasPred, pred, succList
}

// --- KFindReq: from(ref) | token(uvar) | target(uvar) | ttl(var) |
//     replyTo(ref) | i(uvar) | shift(uvar) ---

func encKFindReq(dst []byte, p any) ([]byte, error) {
	c, ok := p.(KFindReq)
	if !ok {
		return nil, errType("KFindReq", p)
	}
	dst = appendRef(dst, c.From)
	dst = wire.AppendUvarint(dst, c.Token)
	dst = wire.AppendUvarint(dst, uint64(c.Target))
	dst = wire.AppendVarint(dst, int64(c.TTL))
	dst = appendRef(dst, c.ReplyTo)
	dst = wire.AppendUvarint(dst, uint64(c.I))
	dst = wire.AppendUvarint(dst, uint64(c.Shift))
	return dst, nil
}

func decKFindReq(data []byte) (any, error) {
	r := wire.NewReader(data)
	var c KFindReq
	c.From = readRef(&r)
	c.Token = r.Uvarint()
	c.Target = dht.Key(r.Uvarint())
	c.TTL = int(r.Varint())
	c.ReplyTo = readRef(&r)
	c.I = dht.Key(r.Uvarint())
	c.Shift = uint8(r.Uvarint())
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// --- KFindResp: from(ref) | token(uvar) | succ(ref) ---

func encKFindResp(dst []byte, p any) ([]byte, error) {
	c, ok := p.(KFindResp)
	if !ok {
		return nil, errType("KFindResp", p)
	}
	dst = appendRef(dst, c.From)
	dst = wire.AppendUvarint(dst, c.Token)
	dst = appendRef(dst, c.Succ)
	return dst, nil
}

func decKFindResp(data []byte) (any, error) {
	r := wire.NewReader(data)
	var c KFindResp
	c.From = readRef(&r)
	c.Token = r.Uvarint()
	c.Succ = readRef(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// --- KStabReq: from(ref) | chain(bool) | [image(uvar)] ---

func encKStabReq(dst []byte, p any) ([]byte, error) {
	c, ok := p.(KStabReq)
	if !ok {
		return nil, errType("KStabReq", p)
	}
	dst = appendRef(dst, c.From)
	dst = wire.AppendBool(dst, c.Chain)
	if c.Chain {
		dst = wire.AppendUvarint(dst, uint64(c.Image))
	}
	return dst, nil
}

func decKStabReq(data []byte) (any, error) {
	r := wire.NewReader(data)
	c := KStabReq{From: readRef(&r)}
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

func encKStabResp(dst []byte, p any) ([]byte, error) {
	c, ok := p.(KStabResp)
	if !ok {
		return nil, errType("KStabResp", p)
	}
	dst = appendRef(dst, c.From)
	dst = appendNeighborhood(dst, c.HasPred, c.Pred, c.SuccList)
	dst = wire.AppendBool(dst, c.Chain)
	if c.Chain {
		dst = wire.AppendUvarint(dst, uint64(c.Image))
	}
	return dst, nil
}

func decKStabResp(data []byte) (any, error) {
	r := wire.NewReader(data)
	var c KStabResp
	c.From = readRef(&r)
	c.HasPred, c.Pred, c.SuccList = readNeighborhood(&r)
	c.Chain = r.Bool()
	if c.Chain {
		c.Image = dht.Key(r.Uvarint())
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// --- KNotify / KPingReq / KPingResp / KDListReq: from(ref) ---

func encKNotify(dst []byte, p any) ([]byte, error) {
	c, ok := p.(KNotify)
	if !ok {
		return nil, errType("KNotify", p)
	}
	return appendRef(dst, c.From), nil
}

func decKNotify(data []byte) (any, error) {
	r := wire.NewReader(data)
	c := KNotify{From: readRef(&r)}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

func encKPingReq(dst []byte, p any) ([]byte, error) {
	c, ok := p.(KPingReq)
	if !ok {
		return nil, errType("KPingReq", p)
	}
	return appendRef(dst, c.From), nil
}

func decKPingReq(data []byte) (any, error) {
	r := wire.NewReader(data)
	c := KPingReq{From: readRef(&r)}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

func encKPingResp(dst []byte, p any) ([]byte, error) {
	c, ok := p.(KPingResp)
	if !ok {
		return nil, errType("KPingResp", p)
	}
	return appendRef(dst, c.From), nil
}

func decKPingResp(data []byte) (any, error) {
	r := wire.NewReader(data)
	c := KPingResp{From: readRef(&r)}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

func encKDListReq(dst []byte, p any) ([]byte, error) {
	c, ok := p.(KDListReq)
	if !ok {
		return nil, errType("KDListReq", p)
	}
	return appendRef(dst, c.From), nil
}

func decKDListReq(data []byte) (any, error) {
	r := wire.NewReader(data)
	c := KDListReq{From: readRef(&r)}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// --- KDListResp: from(ref) | neighborhood ---

func encKDListResp(dst []byte, p any) ([]byte, error) {
	c, ok := p.(KDListResp)
	if !ok {
		return nil, errType("KDListResp", p)
	}
	dst = appendRef(dst, c.From)
	return appendNeighborhood(dst, c.HasPred, c.Pred, c.SuccList), nil
}

func decKDListResp(data []byte) (any, error) {
	r := wire.NewReader(data)
	var c KDListResp
	c.From = readRef(&r)
	c.HasPred, c.Pred, c.SuccList = readNeighborhood(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}
