package transport_test

import (
	"sync"
	"testing"
	"time"

	"streamdex/internal/core"
	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
	"streamdex/internal/transport"
)

// registerClusterStreams puts stream i of the test workload on node
// i%nNodes.
func registerClusterStreams(t *testing.T, nodes []*transport.Node, mws []*core.Middleware, ids []dht.Key) {
	t.Helper()
	for i, st := range clusterStreams() {
		idx := i % nNodes
		var err error
		nodes[idx].Do(func() { err = mws[idx].DataCenter(ids[idx]).RegisterStream(st) })
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestLiveFirstAnswerInRouteTime: on the socket ring the registration walk
// runs on a data-plane worker and hands its candidates to the run loop; the
// client must see them in loopback route time, not after the coverer's and
// the middle node's push timers (2 s each here). Queries are posted at four
// phases of the period so no alignment of timers can pass by luck.
func TestLiveFirstAnswerInRouteTime(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock integration test")
	}
	cfg := clusterConfig()
	cfg.PushPeriod = 2 * sim.Second
	nodes, mws := liveCluster(t, cfg)
	ids := nodeIDs(cfg.Space)
	registerClusterStreams(t, nodes, mws, ids)
	// Windows fill in 320 ms; the out-of-band streams' MBRs are in store.
	time.Sleep(time.Second)

	const limit = 500 * time.Millisecond
	var mu sync.Mutex
	first := map[query.ID]time.Time{}
	answered := make(chan query.ID, 16) // one send per query, four queries
	nodes[0].Do(func() {
		mws[0].OnSimilarity = func(id query.ID, fresh []query.Match) {
			if len(fresh) == 0 {
				return
			}
			mu.Lock()
			_, seen := first[id]
			if !seen {
				first[id] = time.Now()
			}
			mu.Unlock()
			if !seen {
				answered <- id
			}
		}
	})
	zero := make(summary.Feature, cfg.FeatureDims)
	for phase := 0; phase < 4; phase++ {
		var qid query.ID
		var err error
		var posted time.Time
		nodes[0].Do(func() {
			posted = time.Now()
			qid, err = mws[0].PostSimilarity(ids[0], zero, 0.3, 60*sim.Second)
		})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case id := <-answered:
			if id != qid {
				t.Fatalf("first answer of query %d while waiting for query %d", id, qid)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("query %d: no match within 3 s", qid)
		}
		mu.Lock()
		took := first[qid].Sub(posted)
		mu.Unlock()
		if took >= limit {
			t.Errorf("query %d: first match after %v, want under %v with a %v push period",
				qid, took, limit, time.Duration(cfg.PushPeriod)*time.Microsecond)
		}
		time.Sleep(time.Duration(cfg.PushPeriod) * time.Microsecond / 4)
	}
}

// TestShutdownRacesFirstAnswer closes the ring while registration walks
// are still handing their candidates to the run loops. A refused post or a
// send to a closed peer may cost the answer, nothing else: no panic, no
// race, and every Close returns.
func TestShutdownRacesFirstAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock integration test")
	}
	cfg := clusterConfig()
	cfg.PushPeriod = 2 * sim.Second
	nodes, mws := liveCluster(t, cfg)
	ids := nodeIDs(cfg.Space)
	registerClusterStreams(t, nodes, mws, ids)
	time.Sleep(time.Second)

	zero := make(summary.Feature, cfg.FeatureDims)
	for i := range nodes {
		nodes[i].Do(func() {
			for k := 0; k < 50; k++ {
				if _, err := mws[i].PostSimilarity(ids[i], zero, 0.3, 60*sim.Second); err != nil {
					t.Error(err)
				}
			}
		})
	}
	// 250 multicasts are now on the wire, in worker queues and in posted
	// steps; close every node at once underneath them.
	var closes sync.WaitGroup
	for _, n := range nodes {
		closes.Add(1)
		go func() { defer closes.Done(); n.Close() }()
	}
	done := make(chan struct{})
	go func() { closes.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("shutdown hung while first answers were in flight")
	}
}
