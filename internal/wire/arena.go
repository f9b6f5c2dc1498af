package wire

// Zero-copy-oriented decode arenas.
//
// A plain Decode allocates every decoded object individually: a frame
// carrying an MBR costs a message, a rectangle, two corner slices and a
// stream-id string — five heap objects for ~100 bytes of payload,
// scattered across the heap exactly where the candidate walk wants
// locality. An Arena lets a decode loop (one per transport reader
// goroutine, i.e. keyed to the worker that owns the connection) carve
// those objects out of large chunks instead: a handful of bump-pointer
// increments per frame, one real allocation per chunk.
//
// Arenas are deliberately *not* recycled. Decoded payloads outlive their
// frame by design — MBRs sit in the store for a lifespan, queries for
// theirs — so a resettable arena would be a use-after-free factory. A
// chunk is carved strictly forward and abandoned to the garbage collector
// when full; the win is allocation amortization and locality (consecutive
// frames' floats land adjacent), not manual reclamation, so there is no
// lifetime hazard whatsoever: everything remains ordinary GC-managed
// memory.
//
// Stream identifiers repeat endlessly (every MBR of a stream carries the
// same id), so the arena also interns strings: the alloc-free
// map[string(bytes)] lookup makes the steady state for a known stream id
// zero-allocation and collapses millions of duplicate strings into one.

import (
	"encoding/binary"
	"math"
	"sync/atomic"

	"streamdex/internal/dht"
)

// arenaFloatChunk is the float64 chunk size (32 KiB). Large enough that a
// typical MBR frame (two k-dim corners) refills once per several hundred
// frames, small enough not to strand memory on idle connections.
const arenaFloatChunk = 4096

// arenaMsgChunk is the dht.Message slab size.
const arenaMsgChunk = 256

// arenaInternMax bounds the intern table; beyond it new strings are
// returned uninterned (still correct, just unamortized) so a hostile
// sender cannot grow the map without bound.
const arenaInternMax = 4096

// ArenaStats aggregates decode-arena activity across all arenas sharing
// it (a transport node passes one instance to every reader's arena). The
// hit rate — carves served from an existing chunk versus chunk refills,
// and intern hits versus misses — is the "are allocations amortized"
// health signal surfaced by the node's STATS output.
type ArenaStats struct {
	Carves       atomic.Int64 // allocations served by bump-pointer carving
	Refills      atomic.Int64 // fresh chunks handed to the GC to back carves
	InternHits   atomic.Int64 // stream-id lookups answered from the table
	InternMisses atomic.Int64 // stream-id lookups that had to copy
}

// ArenaStatsSnapshot is a plain-value copy of ArenaStats.
type ArenaStatsSnapshot struct {
	Carves, Refills, InternHits, InternMisses int64
}

// Load captures the current counter values.
func (s *ArenaStats) Load() ArenaStatsSnapshot {
	return ArenaStatsSnapshot{
		Carves:       s.Carves.Load(),
		Refills:      s.Refills.Load(),
		InternHits:   s.InternHits.Load(),
		InternMisses: s.InternMisses.Load(),
	}
}

// HitRate returns the fraction of carve requests served without a chunk
// allocation, 1.0 when nothing happened yet.
func (s ArenaStatsSnapshot) HitRate() float64 {
	if s.Carves == 0 {
		return 1
	}
	return 1 - float64(s.Refills)/float64(s.Carves)
}

// Arena is one decode arena. Not safe for concurrent use: each reader
// goroutine owns its own (stats may be shared; they are atomic).
type Arena struct {
	floats []float64
	msgs   []dht.Message
	intern map[string]string
	stats  *ArenaStats

	// Ext hangs a decoder-package-owned slab off the arena without wire
	// depending on it (package core keeps its MBR/query slabs here).
	Ext any
}

// NewArena returns an empty arena reporting into stats (which may be
// shared across arenas; nil means counters are kept privately).
func NewArena(stats *ArenaStats) *Arena {
	if stats == nil {
		stats = &ArenaStats{}
	}
	return &Arena{stats: stats, intern: make(map[string]string)}
}

// Stats returns the arena's stats sink (shared, atomic).
func (a *Arena) Stats() *ArenaStats { return a.stats }

// Float64s carves an n-element float64 slice. The slice is zeroed, exactly
// len n, and never reused or reclaimed by the arena. A nil arena allocates
// it on the heap.
func (a *Arena) Float64s(n int) []float64 {
	if n == 0 {
		return nil
	}
	if a == nil {
		return make([]float64, n)
	}
	a.stats.Carves.Add(1)
	if n > len(a.floats) {
		if n > arenaFloatChunk {
			// Oversized request: dedicated allocation, chunk untouched.
			a.stats.Refills.Add(1)
			return make([]float64, n)
		}
		a.floats = make([]float64, arenaFloatChunk)
		a.stats.Refills.Add(1)
	}
	out := a.floats[:n:n]
	a.floats = a.floats[n:]
	return out
}

// Msg carves one zeroed dht.Message.
func (a *Arena) Msg() *dht.Message {
	a.stats.Carves.Add(1)
	if len(a.msgs) == 0 {
		a.msgs = make([]dht.Message, arenaMsgChunk)
		a.stats.Refills.Add(1)
	}
	m := &a.msgs[0]
	a.msgs = a.msgs[1:]
	return m
}

// InternBytes returns b as a string, deduplicated through the arena's
// intern table: a repeated identifier costs zero allocations (the
// map[string(b)] lookup does not materialize the key). The returned
// string never aliases b. A nil arena copies b without interning.
func (a *Arena) InternBytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if a == nil {
		return string(b)
	}
	if s, ok := a.intern[string(b)]; ok {
		a.stats.InternHits.Add(1)
		return s
	}
	a.stats.InternMisses.Add(1)
	s := string(b)
	if len(a.intern) < arenaInternMax {
		a.intern[s] = s
	}
	return s
}

// ArenaDecoder is the optional arena-aware side of a PayloadCodec: decode
// data carving result objects out of a. Implementations must uphold the
// same contract as Decode (consume exactly, never alias data) — the arena
// only changes where the copies live.
type ArenaDecoder interface {
	DecodeArena(data []byte, a *Arena) (any, error)
}

// --- arena-aware Reader primitives (Floats and String are these with a
// nil arena) ---

// FloatsArena reads one AppendFloats value into arena-carved storage, nil
// for an empty count.
func (r *Reader) FloatsArena(a *Arena) []float64 {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(r.Len())/8 {
		r.Failf("wire: %d floats with %d bytes remaining", n, r.Len())
		return nil
	}
	out := a.Float64s(int(n))
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(r.data[r.off:]))
		r.off += 8
	}
	return out
}

// StringArena reads one AppendString value through the arena's intern
// table. The result never aliases the input.
func (r *Reader) StringArena(a *Arena) string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.Len()) {
		r.Failf("wire: string of %d bytes with %d remaining", n, r.Len())
		return ""
	}
	s := a.InternBytes(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}
