package core

import (
	"testing"

	"streamdex/internal/query"
	"streamdex/internal/summary"
)

// TestAppendCandidatesZeroAllocs guards the query hot path: with a reused
// destination slice, a candidate walk over a single-shard store — interval
// pre-test, expiry filtering, exact MinDist — must not allocate. DataCenters
// keep a per-node scratch slice for exactly this reason.
func TestAppendCandidatesZeroAllocs(t *testing.T) {
	s := NewShardedStore(1)
	for i := 0; i < 256; i++ {
		l1 := float64(i)/256 - 0.5
		s.Put(mbrAt("s", uint64(i), summary.Feature{l1, 0}, summary.Feature{l1 + 0.01, 0.1}, 0))
	}
	q := summary.Feature{0.1, 0.05}
	dst := make([]query.Match, 0, 64)
	dst = s.AppendCandidates(dst, q, 0.05, 0, 1)
	if len(dst) == 0 {
		t.Fatal("query should match some entries")
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst = s.AppendCandidates(dst[:0], q, 0.05, 0, 1)
	})
	if allocs != 0 {
		t.Fatalf("AppendCandidates allocated %.1f objects per run, want 0", allocs)
	}
}
