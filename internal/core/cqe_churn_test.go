package core

import (
	"testing"

	"streamdex/internal/dht"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

// TestSubscriptionSurvivesCoveringNodeCrash scripts the churn scenario the
// pub/sub operator's soft-state design targets: a standing predicate is
// registered at the nodes covering its key range, every one of them (other
// than the origin) is crashed at once, and the ring heals through
// stabilization. The origin's periodic re-multicast must re-home the
// predicate on the nodes inheriting the vacated arc, and detections must
// keep flowing — provably from a node that held no registration before the
// crash.
func TestSubscriptionSurvivesCoveringNodeCrash(t *testing.T) {
	cfg := testConfig()
	eng, net, mw, ids := testCluster(t, 16, cfg, true)
	eng.RunFor(5 * sim.Second)

	// Narrow routing range (dim 0), permissive elsewhere: registered at a
	// small set of covering nodes but matched by plenty of summaries.
	origin := ids[0]
	lo := summary.Feature{-0.1, -1000, -1000}
	hi := summary.Feature{0.1, 1000, 1000}
	subID, err := mw.PostSubscription(origin, lo, hi, 600*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(3 * sim.Second)
	if len(mw.SubscriptionMatches(subID)) == 0 {
		t.Fatal("no detections before the crash; the workload should hit the predicate")
	}

	registered := func() map[dht.Key]bool {
		out := make(map[dht.Key]bool)
		for _, id := range ids {
			o := mw.DataCenter(id).opSub
			o.mu.Lock()
			_, ok := o.subs[subID]
			o.mu.Unlock()
			if ok {
				out[id] = true
			}
		}
		return out
	}
	pre := registered()
	var victims []dht.Key
	for id := range pre {
		if id != origin {
			victims = append(victims, id)
		}
	}
	if len(victims) == 0 {
		t.Fatal("predicate registered only at its origin; widen the test range")
	}
	if len(victims) > 3 {
		t.Fatalf("predicate covers %d non-origin nodes; narrow the test range so the ring (succ-list 4) can absorb the crash", len(victims))
	}
	for _, v := range victims {
		net.Fail(v)
	}
	crashAt := eng.Now()
	eng.RunFor(12 * sim.Second)

	var fresh, reHomed int
	for _, m := range mw.SubscriptionMatches(subID) {
		if m.FoundAt <= crashAt {
			continue
		}
		fresh++
		if !pre[m.Node] {
			reHomed++
		}
	}
	if fresh == 0 {
		t.Fatal("no detections after the covering nodes crashed")
	}
	if reHomed == 0 {
		t.Fatalf("%d post-crash detections, all from pre-crash holders: the predicate never re-homed", fresh)
	}

	// The re-homed registration must live on a node that was not covering
	// the range before the crash.
	post := registered()
	newHolder := false
	for id := range post {
		if !pre[id] {
			newHolder = true
		}
	}
	if !newHolder {
		t.Fatalf("registrations after heal %v all predate the crash (pre %v)", keys(post), keys(pre))
	}
}

func keys(m map[dht.Key]bool) []dht.Key {
	out := make([]dht.Key, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
