// Package cqe holds the origin-side folds of the continuous-query
// operators: the state a querying node keeps while covering nodes push
// partial results (per-stream sketches, per-node frequency tables) every
// push period, folded into the client-facing answer. Both folds are
// idempotent under the at-least-once delivery the range replication
// produces — duplicate reports replace, never double-count. The operators
// that produce the reports are parts of the middleware's DataCenter
// (internal/core).
package cqe

import (
	"sort"

	"streamdex/internal/dht"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

// SketchFold merges per-stream sketch reports for one aggregate query. The
// MBR range replication stores every stream's sketch on several covering
// nodes, so the same stream arrives from multiple reporters; the fold keeps
// only the highest-sequence report per stream and merges across streams on
// demand, in sorted stream order so estimates are deterministic.
type SketchFold struct {
	streams map[string]*foldEntry
}

type foldEntry struct {
	seq    uint64
	sketch *summary.Sketch
}

// NewSketchFold returns an empty fold.
func NewSketchFold() *SketchFold {
	return &SketchFold{streams: make(map[string]*foldEntry)}
}

// Absorb folds one per-stream report in, keeping the latest sequence per
// stream. It reports whether the fold changed.
func (f *SketchFold) Absorb(stream string, seq uint64, sk *summary.Sketch) bool {
	if sk == nil || sk.Validate() != nil {
		return false
	}
	cur := f.streams[stream]
	if cur != nil && cur.seq >= seq {
		return false
	}
	f.streams[stream] = &foldEntry{seq: seq, sketch: sk}
	return true
}

// Streams lists the reported streams in sorted order.
func (f *SketchFold) Streams() []string {
	out := make([]string, 0, len(f.streams))
	for sid := range f.streams {
		out = append(out, sid)
	}
	sort.Strings(out)
	return out
}

// Count estimates the total number of in-window items across all reported
// streams at time now.
func (f *SketchFold) Count(now sim.Time) uint64 {
	var total uint64
	for _, sid := range f.Streams() {
		total += f.streams[sid].sketch.Count(now)
	}
	return total
}

// Merged returns the merge of all reported sketches (nil when empty or
// when reports are not shape-congruent). Merge order is sorted stream
// order, so the approximate result is deterministic.
func (f *SketchFold) Merged() *summary.Sketch {
	var acc *summary.Sketch
	for _, sid := range f.Streams() {
		sk := f.streams[sid].sketch
		if acc == nil {
			acc = sk.Clone()
			continue
		}
		if err := acc.Merge(sk); err != nil {
			return nil
		}
	}
	return acc
}

// Quantile estimates the phi-quantile of the merged in-window value
// distribution at time now (ok=false when nothing merged).
func (f *SketchFold) Quantile(now sim.Time, phi float64) (float64, bool) {
	m := f.Merged()
	if m == nil {
		return 0, false
	}
	return m.Quantile(now, phi), true
}

// StreamCount is one entry of a frequency table: how often a stream
// published into the monitored range.
type StreamCount struct {
	StreamID string
	Count    uint64
}

// TopKTable folds per-node frequency reports for one top-k monitor. Every
// reporting node periodically replaces its own table (counts are cumulative
// at the reporter), and the global ranking sums the latest table of each
// node — counting is arranged so exactly one covering node counts each
// publication, making the sum duplicate-free.
type TopKTable struct {
	nodes map[dht.Key]map[string]uint64
}

// NewTopKTable returns an empty table.
func NewTopKTable() *TopKTable {
	return &TopKTable{nodes: make(map[dht.Key]map[string]uint64)}
}

// Absorb replaces the reporting node's frequency table.
func (t *TopKTable) Absorb(node dht.Key, counts []StreamCount) {
	m := make(map[string]uint64, len(counts))
	for _, c := range counts {
		m[c.StreamID] = c.Count
	}
	t.nodes[node] = m
}

// Reporters returns how many nodes have reported.
func (t *TopKTable) Reporters() int { return len(t.nodes) }

// Top returns the k highest-frequency streams, counts summed across the
// latest report of every node, ordered by descending count with ties broken
// by ascending stream id (deterministic under map iteration).
func (t *TopKTable) Top(k int) []StreamCount {
	sum := make(map[string]uint64)
	for _, m := range t.nodes {
		for sid, c := range m {
			sum[sid] += c
		}
	}
	out := make([]StreamCount, 0, len(sum))
	for sid, c := range sum {
		out = append(out, StreamCount{StreamID: sid, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].StreamID < out[j].StreamID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
