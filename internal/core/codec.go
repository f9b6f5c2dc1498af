package core

// Hand-packed wire codecs (wire codec v2) for the original nine middleware
// payload kinds and the response batch. Each codec writes the fields of its
// payload with the wire package's primitives — varints for ids, counts and
// timestamps, fixed 8-byte words for floats, length-prefixed strings — so
// a payload costs exactly its content, with no per-message type
// descriptors. The layouts are documented field-by-field in DESIGN.md
// ("Wire format v2"); changing one is a wire-protocol break and must bump
// the codec tag.
//
// Decoders validate every length against the remaining bytes (the wire
// Reader enforces this) and never alias the input buffer, so the transport
// can reuse its read buffer across frames.

import (
	"fmt"

	"streamdex/internal/dht"
	"streamdex/internal/dsp"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
	"streamdex/internal/wire"
)

// Packed payload codec tags. One byte on the wire after the envelope;
// both ends of a connection must agree, so these values are protocol, not
// implementation detail: never renumber, only append.
const (
	tagMBRUpdate uint8 = iota + 1
	tagSimQuery
	tagNotifyBatch
	tagResponseMsg
	tagLocPut
	tagLocGet
	tagLocReply
	tagIPSub
	tagIPResp
)

// tagResponseBatch is the codec tag of ResponseBatch, the first free tag
// after the load-balancing (30-31) and Koorde (32-40) blocks. Koorde's
// retired tags 33 and 36-38 stay unused.
const tagResponseBatch uint8 = 41

func init() {
	wire.RegisterPackedPayload(tagMBRUpdate, MBRUpdate{}, arenaCodec{enc: encMBRUpdate, dec: decMBRUpdate})
	wire.RegisterPackedPayload(tagSimQuery, SimQuery{}, arenaCodec{enc: encSimQuery, dec: decSimQuery})
	wire.RegisterPackedPayload(tagNotifyBatch, NotifyBatch{}, codecFuncs{enc: encNotifyBatch, dec: decNotifyBatch})
	wire.RegisterPackedPayload(tagResponseMsg, ResponseMsg{}, codecFuncs{enc: encResponseMsg, dec: decResponseMsg})
	wire.RegisterPackedPayload(tagResponseBatch, ResponseBatch{}, codecFuncs{enc: encResponseBatch, dec: decResponseBatch})
	wire.RegisterPackedPayload(tagLocPut, LocPut{}, codecFuncs{enc: encLocPut, dec: decLocPut})
	wire.RegisterPackedPayload(tagLocGet, LocGet{}, codecFuncs{enc: encLocGet, dec: decLocGet})
	wire.RegisterPackedPayload(tagLocReply, LocReply{}, codecFuncs{enc: encLocReply, dec: decLocReply})
	wire.RegisterPackedPayload(tagIPSub, IPSub{}, codecFuncs{enc: encIPSub, dec: decIPSub})
	wire.RegisterPackedPayload(tagIPResp, IPResp{}, codecFuncs{enc: encIPResp, dec: decIPResp})
}

// codecFuncs adapts an encode/decode function pair to wire.PayloadCodec.
type codecFuncs struct {
	enc func(dst []byte, p any) ([]byte, error)
	dec func(data []byte) (any, error)
}

func (c codecFuncs) Append(dst []byte, p any) ([]byte, error) { return c.enc(dst, p) }
func (c codecFuncs) Decode(data []byte) (any, error)          { return c.dec(data) }

// arenaCodec is codecFuncs for the data-plane kinds whose decode rate
// justifies it: one decoder that carves from a wire.Arena
// (wire.ArenaDecoder) and allocates on the heap when handed a nil one.
type arenaCodec struct {
	enc func(dst []byte, p any) ([]byte, error)
	dec func(data []byte, a *wire.Arena) (any, error)
}

func (c arenaCodec) Append(dst []byte, p any) ([]byte, error) { return c.enc(dst, p) }
func (c arenaCodec) Decode(data []byte) (any, error)          { return c.dec(data, nil) }

func (c arenaCodec) DecodeArena(data []byte, a *wire.Arena) (any, error) {
	return c.dec(data, a)
}

// coreSlabs is the core-owned extension slab hung off a decode arena
// (wire.Arena.Ext): bump-carved blocks of the fixed-size structs the
// data-plane kinds decode into. Like the arena's own chunks they are
// carved forward and never reused, so decoded objects may live as long as
// they like (MBRs sit in the store for BSPAN, queries for their lifespan).
type coreSlabs struct {
	mbrs []summary.MBR
	sims []query.Similarity
}

const coreSlabChunk = 256

func slabsOf(a *wire.Arena) *coreSlabs {
	s, _ := a.Ext.(*coreSlabs)
	if s == nil {
		s = &coreSlabs{}
		a.Ext = s
	}
	return s
}

// newMBR carves an MBR out of the arena, or allocates one when a is nil.
func newMBR(a *wire.Arena) *summary.MBR {
	if a == nil {
		return &summary.MBR{}
	}
	s := slabsOf(a)
	a.Stats().Carves.Add(1)
	if len(s.mbrs) == 0 {
		s.mbrs = make([]summary.MBR, coreSlabChunk)
		a.Stats().Refills.Add(1)
	}
	b := &s.mbrs[0]
	s.mbrs = s.mbrs[1:]
	return b
}

// newSimilarity carves a query out of the arena, or allocates one when a
// is nil.
func newSimilarity(a *wire.Arena) *query.Similarity {
	if a == nil {
		return &query.Similarity{}
	}
	s := slabsOf(a)
	a.Stats().Carves.Add(1)
	if len(s.sims) == 0 {
		s.sims = make([]query.Similarity, coreSlabChunk)
		a.Stats().Refills.Add(1)
	}
	q := &s.sims[0]
	s.sims = s.sims[1:]
	return q
}

// errType reports a payload handed to the wrong codec — only possible
// through a registration bug, but cheap to defend against.
func errType(want string, got any) error {
	return fmt.Errorf("core: codec for %s got %T", want, got)
}

// --- KindMBR: MBRUpdate ---
// present(bool) | streamID | seq(uvar) | count(var) | created(var) |
// expiry(var) | lo(floats) | hi(floats)

func encMBRUpdate(dst []byte, p any) ([]byte, error) {
	u, ok := p.(MBRUpdate)
	if !ok {
		return nil, errType("MBRUpdate", p)
	}
	if u.MBR == nil {
		return wire.AppendBool(dst, false), nil
	}
	b := u.MBR
	dst = wire.AppendBool(dst, true)
	dst = wire.AppendString(dst, b.StreamID)
	dst = wire.AppendUvarint(dst, b.Seq)
	dst = wire.AppendVarint(dst, int64(b.Count))
	dst = wire.AppendVarint(dst, int64(b.Created))
	dst = wire.AppendVarint(dst, int64(b.Expiry))
	dst = wire.AppendFloats(dst, b.Lo)
	dst = wire.AppendFloats(dst, b.Hi)
	return dst, nil
}

// decMBRUpdate carves the rectangle, its corner slices and (interned)
// stream id out of the arena — the hot ingest path.
func decMBRUpdate(data []byte, a *wire.Arena) (any, error) {
	r := wire.NewReader(data)
	if !r.Bool() {
		if err := r.Done(); err != nil {
			return nil, err
		}
		return MBRUpdate{}, nil
	}
	b := readMBR(&r, a)
	if err := r.Done(); err != nil {
		return nil, err
	}
	if len(b.Lo) != len(b.Hi) {
		return nil, errDimMismatch(len(b.Lo), len(b.Hi))
	}
	return MBRUpdate{MBR: b}, nil
}

// readMBR reads the rectangle both MBR-carrying payloads (KindMBR,
// KindReplica) share: streamID | seq(uvar) | count(var) | created(var) |
// expiry(var) | lo(floats) | hi(floats).
func readMBR(r *wire.Reader, a *wire.Arena) *summary.MBR {
	b := newMBR(a)
	b.StreamID = r.StringArena(a)
	b.Seq = r.Uvarint()
	b.Count = int(r.Varint())
	b.Created = sim.Time(r.Varint())
	b.Expiry = sim.Time(r.Varint())
	b.Lo = summary.Feature(r.FloatsArena(a))
	b.Hi = summary.Feature(r.FloatsArena(a))
	return b
}

func errDimMismatch(lo, hi int) error {
	return fmt.Errorf("core: MBR with %d-dim lo, %d-dim hi", lo, hi)
}

// --- KindQuery: SimQuery ---
// middleKey(uvar) | present(bool) | id(uvar) | origin(uvar) |
// feature(floats) | radius(f64) | norm(var) | posted(var) | lifespan(var)

func encSimQuery(dst []byte, p any) ([]byte, error) {
	u, ok := p.(SimQuery)
	if !ok {
		return nil, errType("SimQuery", p)
	}
	dst = wire.AppendUvarint(dst, uint64(u.MiddleKey))
	if u.Q == nil {
		return wire.AppendBool(dst, false), nil
	}
	q := u.Q
	dst = wire.AppendBool(dst, true)
	dst = wire.AppendUvarint(dst, uint64(q.ID))
	dst = wire.AppendUvarint(dst, uint64(q.Origin))
	dst = wire.AppendFloats(dst, q.Feature)
	dst = wire.AppendFloat64(dst, q.Radius)
	dst = wire.AppendVarint(dst, int64(q.Norm))
	dst = wire.AppendVarint(dst, int64(q.Posted))
	dst = wire.AppendVarint(dst, int64(q.Lifespan))
	return dst, nil
}

// decSimQuery carves the query and its feature vector out of the arena.
func decSimQuery(data []byte, a *wire.Arena) (any, error) {
	r := wire.NewReader(data)
	u := SimQuery{MiddleKey: dht.Key(r.Uvarint())}
	if !r.Bool() {
		if err := r.Done(); err != nil {
			return nil, err
		}
		return u, nil
	}
	q := newSimilarity(a)
	q.ID = query.ID(r.Uvarint())
	q.Origin = dht.Key(r.Uvarint())
	q.Feature = summary.Feature(r.FloatsArena(a))
	q.Radius = r.Float64()
	q.Norm = dsp.Mode(r.Varint())
	q.Posted = sim.Time(r.Varint())
	q.Lifespan = sim.Time(r.Varint())
	if err := r.Done(); err != nil {
		return nil, err
	}
	u.Q = q
	return u, nil
}

// --- matches, shared by KindNotify and KindResponse ---
// count(uvar), then per match:
// streamID | seq(uvar) | distLB(f64) | foundAt(var) | node(uvar)

func appendMatches(dst []byte, ms []query.Match) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(ms)))
	for i := range ms {
		m := &ms[i]
		dst = wire.AppendString(dst, m.StreamID)
		dst = wire.AppendUvarint(dst, m.Seq)
		dst = wire.AppendFloat64(dst, m.DistLB)
		dst = wire.AppendVarint(dst, int64(m.FoundAt))
		dst = wire.AppendUvarint(dst, uint64(m.Node))
	}
	return dst
}

func readMatches(r *wire.Reader) []query.Match {
	n := r.Uvarint()
	if r.Err() != nil || n == 0 {
		return nil
	}
	// Every match costs at least one byte per field on the wire, so a
	// count beyond the remaining bytes is corrupt — reject before
	// allocating.
	if n > uint64(r.Len()) {
		r.Failf("core: %d matches with %d bytes remaining", n, r.Len())
		return nil
	}
	out := make([]query.Match, n)
	for i := range out {
		m := &out[i]
		m.StreamID = r.String()
		m.Seq = r.Uvarint()
		m.DistLB = r.Float64()
		m.FoundAt = sim.Time(r.Varint())
		m.Node = dht.Key(r.Uvarint())
	}
	if r.Err() != nil {
		return nil
	}
	return out
}

// --- KindNotify: NotifyBatch ---
// count(uvar), then per item:
// queryID(uvar) | middleKey(uvar) | clientKey(uvar) | expiry(var) | matches

func encNotifyBatch(dst []byte, p any) ([]byte, error) {
	u, ok := p.(NotifyBatch)
	if !ok {
		return nil, errType("NotifyBatch", p)
	}
	dst = wire.AppendUvarint(dst, uint64(len(u.Items)))
	for i := range u.Items {
		it := &u.Items[i]
		dst = wire.AppendUvarint(dst, uint64(it.QueryID))
		dst = wire.AppendUvarint(dst, uint64(it.MiddleKey))
		dst = wire.AppendUvarint(dst, uint64(it.ClientKey))
		dst = wire.AppendVarint(dst, it.Expiry)
		dst = appendMatches(dst, it.Matches)
	}
	return dst, nil
}

func decNotifyBatch(data []byte) (any, error) {
	r := wire.NewReader(data)
	n := r.Uvarint()
	var items []NotifyItem
	if r.Err() == nil && n > 0 {
		if n > uint64(r.Len()) {
			r.Failf("core: %d notify items with %d bytes remaining", n, r.Len())
		} else {
			items = make([]NotifyItem, n)
			for i := range items {
				it := &items[i]
				it.QueryID = query.ID(r.Uvarint())
				it.MiddleKey = dht.Key(r.Uvarint())
				it.ClientKey = dht.Key(r.Uvarint())
				it.Expiry = r.Varint()
				it.Matches = readMatches(&r)
			}
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return NotifyBatch{Items: items}, nil
}

// --- KindResponse: ResponseMsg ---
// queryID(uvar) | matches

func encResponseMsg(dst []byte, p any) ([]byte, error) {
	u, ok := p.(ResponseMsg)
	if !ok {
		return nil, errType("ResponseMsg", p)
	}
	dst = wire.AppendUvarint(dst, uint64(u.QueryID))
	return appendMatches(dst, u.Matches), nil
}

func decResponseMsg(data []byte) (any, error) {
	r := wire.NewReader(data)
	u := ResponseMsg{QueryID: query.ID(r.Uvarint())}
	u.Matches = readMatches(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return u, nil
}

// --- KindResponse: ResponseBatch ---
// count(uvar), then per item: queryID(uvar) | matches

func encResponseBatch(dst []byte, p any) ([]byte, error) {
	u, ok := p.(ResponseBatch)
	if !ok {
		return nil, errType("ResponseBatch", p)
	}
	dst = wire.AppendUvarint(dst, uint64(len(u.Items)))
	for i := range u.Items {
		it := &u.Items[i]
		dst = wire.AppendUvarint(dst, uint64(it.QueryID))
		dst = appendMatches(dst, it.Matches)
	}
	return dst, nil
}

func decResponseBatch(data []byte) (any, error) {
	r := wire.NewReader(data)
	n := r.Uvarint()
	var items []ResponseMsg
	if r.Err() == nil && n > 0 {
		// An item is at least two bytes (query id, match count).
		if n > uint64(r.Len()) {
			r.Failf("core: %d response items with %d bytes remaining", n, r.Len())
		} else {
			items = make([]ResponseMsg, n)
			for i := range items {
				items[i].QueryID = query.ID(r.Uvarint())
				items[i].Matches = readMatches(&r)
			}
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return ResponseBatch{Items: items}, nil
}

// --- KindLocPut / KindLocGet / KindLocReply ---

func encLocPut(dst []byte, p any) ([]byte, error) {
	u, ok := p.(LocPut)
	if !ok {
		return nil, errType("LocPut", p)
	}
	dst = wire.AppendString(dst, u.StreamID)
	return wire.AppendUvarint(dst, uint64(u.Source)), nil
}

func decLocPut(data []byte) (any, error) {
	r := wire.NewReader(data)
	u := LocPut{StreamID: r.String(), Source: dht.Key(r.Uvarint())}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return u, nil
}

func encLocGet(dst []byte, p any) ([]byte, error) {
	u, ok := p.(LocGet)
	if !ok {
		return nil, errType("LocGet", p)
	}
	dst = wire.AppendString(dst, u.StreamID)
	return wire.AppendUvarint(dst, uint64(u.Requester)), nil
}

func decLocGet(data []byte) (any, error) {
	r := wire.NewReader(data)
	u := LocGet{StreamID: r.String(), Requester: dht.Key(r.Uvarint())}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return u, nil
}

func encLocReply(dst []byte, p any) ([]byte, error) {
	u, ok := p.(LocReply)
	if !ok {
		return nil, errType("LocReply", p)
	}
	dst = wire.AppendString(dst, u.StreamID)
	dst = wire.AppendUvarint(dst, uint64(u.Source))
	return wire.AppendBool(dst, u.Found), nil
}

func decLocReply(data []byte) (any, error) {
	r := wire.NewReader(data)
	u := LocReply{StreamID: r.String(), Source: dht.Key(r.Uvarint()), Found: r.Bool()}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return u, nil
}

// --- KindIPSub: IPSub ---
// present(bool) | id(uvar) | origin(uvar) | streamID | index(ints) |
// weights(floats) | posted(var) | lifespan(var)

func encIPSub(dst []byte, p any) ([]byte, error) {
	u, ok := p.(IPSub)
	if !ok {
		return nil, errType("IPSub", p)
	}
	if u.Q == nil {
		return wire.AppendBool(dst, false), nil
	}
	q := u.Q
	dst = wire.AppendBool(dst, true)
	dst = wire.AppendUvarint(dst, uint64(q.ID))
	dst = wire.AppendUvarint(dst, uint64(q.Origin))
	dst = wire.AppendString(dst, q.StreamID)
	dst = wire.AppendInts(dst, q.Index)
	dst = wire.AppendFloats(dst, q.Weights)
	dst = wire.AppendVarint(dst, int64(q.Posted))
	dst = wire.AppendVarint(dst, int64(q.Lifespan))
	return dst, nil
}

func decIPSub(data []byte) (any, error) {
	r := wire.NewReader(data)
	if !r.Bool() {
		if err := r.Done(); err != nil {
			return nil, err
		}
		return IPSub{}, nil
	}
	q := &query.InnerProduct{}
	q.ID = query.ID(r.Uvarint())
	q.Origin = dht.Key(r.Uvarint())
	q.StreamID = r.String()
	q.Index = r.Ints()
	q.Weights = r.Floats()
	q.Posted = sim.Time(r.Varint())
	q.Lifespan = sim.Time(r.Varint())
	if err := r.Done(); err != nil {
		return nil, err
	}
	return IPSub{Q: q}, nil
}

// --- KindIPResp: IPResp ---
// queryID(uvar) | value(f64) | at(var) | approx(bool)

func encIPResp(dst []byte, p any) ([]byte, error) {
	u, ok := p.(IPResp)
	if !ok {
		return nil, errType("IPResp", p)
	}
	dst = wire.AppendUvarint(dst, uint64(u.QueryID))
	dst = wire.AppendFloat64(dst, u.Value.Value)
	dst = wire.AppendVarint(dst, int64(u.Value.At))
	return wire.AppendBool(dst, u.Value.Approx), nil
}

func decIPResp(data []byte) (any, error) {
	r := wire.NewReader(data)
	u := IPResp{QueryID: query.ID(r.Uvarint())}
	u.Value.Value = r.Float64()
	u.Value.At = sim.Time(r.Varint())
	u.Value.Approx = r.Bool()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return u, nil
}
