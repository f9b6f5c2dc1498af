package core

// Packed codecs for the load-balancing payload kinds (PR 8): the replica
// walk riding the covering range's successor tail and the per-node load
// reports feeding the power-of-two-choices read balancer. Tags continue
// after the continuous-query-engine block (23-29).

import "streamdex/internal/wire"

const (
	tagReplicaMsg uint8 = iota + 30
	tagLoadMsg
)

func init() {
	wire.RegisterPackedPayload(tagReplicaMsg, ReplicaMsg{}, arenaCodec{enc: encReplicaMsg, dec: decReplicaMsg})
	wire.RegisterPackedPayload(tagLoadMsg, LoadMsg{}, codecFuncs{enc: encLoadMsg, dec: decLoadMsg})
}

// --- KindReplica: ReplicaMsg ---
// present(bool) | streamID | seq(uvar) | count(var) | created(var) |
// expiry(var) | lo(floats) | hi(floats) | ttl(var)

func encReplicaMsg(dst []byte, p any) ([]byte, error) {
	u, ok := p.(ReplicaMsg)
	if !ok {
		return nil, errType("ReplicaMsg", p)
	}
	if u.MBR == nil {
		dst = wire.AppendBool(dst, false)
		return wire.AppendVarint(dst, int64(u.TTL)), nil
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
	return wire.AppendVarint(dst, int64(u.TTL)), nil
}

// decReplicaMsg carves the rectangle out of the arena — replica copies sit
// in the store as long as primaries do.
func decReplicaMsg(data []byte, a *wire.Arena) (any, error) {
	r := wire.NewReader(data)
	if !r.Bool() {
		u := ReplicaMsg{TTL: int(r.Varint())}
		if err := r.Done(); err != nil {
			return nil, err
		}
		return u, nil
	}
	b := readMBR(&r, a)
	u := ReplicaMsg{MBR: b, TTL: int(r.Varint())}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if len(b.Lo) != len(b.Hi) {
		return nil, errDimMismatch(len(b.Lo), len(b.Hi))
	}
	return u, nil
}

// --- KindLoad: LoadMsg ---
// loads(floats)

func encLoadMsg(dst []byte, p any) ([]byte, error) {
	u, ok := p.(LoadMsg)
	if !ok {
		return nil, errType("LoadMsg", p)
	}
	return wire.AppendFloats(dst, u.Loads), nil
}

func decLoadMsg(data []byte) (any, error) {
	r := wire.NewReader(data)
	u := LoadMsg{Loads: r.Floats()}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return u, nil
}
