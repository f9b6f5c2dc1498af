package core

import (
	"testing"

	"streamdex/internal/sim"
)

// TestTopKCountsPublicationOnce: with Replicas > 1 every source re-multicasts
// its live MBRs each push period, so a frequency monitor's coverer sees the
// same (stream, seq) again and again. A stream's frequency must still be the
// number of MBRs it published.
func TestTopKCountsPublicationOnce(t *testing.T) {
	cfg := testConfig()
	cfg.Replicas = 2
	eng, _, mw, ids := testCluster(t, 8, cfg, false)

	// Posted before any window has filled (32 points at >= 100 ms), so the
	// monitor is registered everywhere ahead of the first publication.
	qid, err := mw.PostTopK(ids[0], len(ids), -10, 10, 60*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(8 * sim.Second)
	for _, id := range ids {
		for _, ls := range mw.DataCenter(id).streams {
			ls.ticker.Stop()
		}
	}
	// Several republish cycles and report pushes with no new publication;
	// the last MBRs (lifespan 5 s) stay live throughout.
	eng.RunFor(3 * sim.Second)

	published := map[string]uint64{}
	for _, id := range ids {
		rep := mw.DataCenter(id).opRep
		for sid, b := range rep.mine {
			published[sid] = b.Seq + 1
		}
	}
	if len(published) != len(ids) {
		t.Fatalf("%d of %d streams published", len(published), len(ids))
	}
	top := mw.TopK(qid)
	if len(top) != len(ids) {
		t.Fatalf("top-k lists %d streams, want %d: %v", len(top), len(ids), top)
	}
	for _, c := range top {
		if c.Count != published[c.StreamID] {
			t.Errorf("stream %s: frequency %d, published %d MBRs", c.StreamID, c.Count, published[c.StreamID])
		}
	}
}
