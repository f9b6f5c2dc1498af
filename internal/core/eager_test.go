package core

import (
	"fmt"
	"testing"

	"streamdex/internal/chord"
	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

// coverer returns the node covering key.
func coverer(t *testing.T, net *chord.Network, key dht.Key) dht.Key {
	t.Helper()
	id, ok := net.OracleSuccessor(key)
	if !ok {
		t.Fatalf("no node covers key %d", key)
	}
	return id
}

// TestFirstAnswerInRouteTime: a candidate already stored when the query
// registers reaches the client in a few 50 ms hops, wherever the coverer
// and the client sit relative to the middle node and whatever the phase of
// the nodes' push timers against the post.
func TestFirstAnswerInRouteTime(t *testing.T) {
	cfg := testConfig()
	cfg.PushPeriod = 4 * sim.Second
	q := summary.Feature{0.05, 0, 0}
	const radius = 0.2

	placements := []struct {
		name                           string
		holderIsMiddle, clientIsMiddle bool
	}{
		{"coverer is the middle node", true, false},
		{"coverer is not the middle node", false, false},
		{"client is the middle node", false, true},
	}
	for _, pl := range placements {
		for phase := sim.Time(0); phase < 4; phase++ {
			t.Run(fmt.Sprintf("%s/phase %d", pl.name, phase), func(t *testing.T) {
				eng, net, mw, ids := testClusterBare(t, 20, cfg)
				eng.RunFor(cfg.PushPeriod + phase*cfg.PushPeriod/4)

				lo, hi := mw.Mapper().QueryRange(q.Routing(), radius)
				middle := coverer(t, net, cfg.Space.Midpoint(lo, hi))
				holder := coverer(t, net, lo)
				if holder == middle {
					t.Fatal("query range too narrow: its first coverer is the middle node")
				}
				if pl.holderIsMiddle {
					holder = middle
				}
				client := ids[0]
				if pl.clientIsMiddle {
					client = middle
				}
				if !pl.clientIsMiddle && (client == middle || client == holder) {
					t.Fatalf("client %d is not a bystander (middle %d, holder %d)", client, middle, holder)
				}
				mw.DataCenter(holder).store.Put(mbrAt("planted", 0, q, q, eng.Now()+60*sim.Minute))

				first := sim.Time(-1)
				mw.OnSimilarity = func(id query.ID, fresh []query.Match) {
					if len(fresh) > 0 && first < 0 {
						first = eng.Now()
					}
				}
				posted := eng.Now()
				if _, err := mw.PostSimilarity(client, q, radius, 10*cfg.PushPeriod); err != nil {
					t.Fatal(err)
				}
				eng.RunFor(cfg.PushPeriod)
				if first < 0 {
					t.Fatal("no match delivered within a push period of the post")
				}
				if took := first - posted; took >= cfg.PushPeriod/4 {
					t.Errorf("first match after %v, want under a quarter of the %v push period", took, cfg.PushPeriod)
				}
			})
		}
	}
}

// retick restarts a node's push timer so that it fires at `at`, and every
// push period around it.
func retick(mw *Middleware, id dht.Key, at sim.Time) {
	dc := mw.DataCenter(id)
	dc.ticker.Stop()
	period := mw.cfg.PushPeriod
	first := (at - mw.clk.Now()) % period
	dc.ticker = mw.clk.EveryAfter(first, period, dc.periodTick)
}

// TestLastPeriodMatchIsDelivered: what the funnel holds when a query
// expires used to be deleted with the subscription or the aggregator, and
// what arrived after expiry was dropped. Each scenario pins the push timers
// of the MBR's coverer and of the middle node against the expiry E, so the
// detection sits exactly where the comment says when the query ends. The
// MBR is keyed so that only the named coverer ever sees it.
func TestLastPeriodMatchIsDelivered(t *testing.T) {
	cfg := testConfig()
	period := cfg.PushPeriod
	q := summary.Feature{0.05, 0, 0}
	const radius = 0.3
	scenarios := []struct {
		name string
		// offset places the MBR's routing coordinate relative to the
		// query's; hops is how many ring hops from the middle node its
		// coverer must be (2 means at least 2).
		offset float64
		hops   int
		// The MBR is published matchAt before E; the coverer's timer
		// fires at E+coverTick, the middle node's at E+middleTick.
		matchAt, coverTick, middleTick sim.Time
	}{
		// The coverer's timer finds the query expired and drains the
		// subscription straight to the middle node.
		{"held by a far coverer at expiry", -radius + 0.01, 2, period / 2, period / 4, period / 2},
		// Same, with the subscription on the middle node itself.
		{"held by the middle node's subscription at expiry", 0, 0, period / 2, period / 4, period / 4},
		// Funneled in time; the aggregator's next timer comes after E.
		{"pending in the aggregator at expiry", -0.1, 1, period / 2, -period / 4, period / 10},
		// Sent a ring hop just before E, absorbed just after.
		{"in flight at expiry", -0.1, 1, period / 2, -period / 50, period / 2},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			eng, net, mw, ids := testClusterBare(t, 20, cfg)
			eng.RunFor(period)

			mbr := summary.Feature{q[0] + sc.offset, q[1], q[2]}
			lo, hi := mw.Mapper().QueryRange(q.Routing(), radius)
			middle := coverer(t, net, cfg.Space.Midpoint(lo, hi))
			holder := coverer(t, net, mw.Mapper().Key(mbr))
			hops := 0
			for i, id := range ids {
				if id == holder {
					for ids[(i+hops)%len(ids)] != middle {
						hops++
					}
				}
			}
			if hops < sc.hops || (sc.hops < 2 && hops != sc.hops) {
				t.Fatalf("the MBR's coverer is %d ring hops from the middle node, want %d", hops, sc.hops)
			}

			// The query's first answer is long delivered by then: an MBR in
			// the middle node's store when the query registers.
			mw.DataCenter(middle).store.Put(mbrAt("early", 0, q, q, eng.Now()+60*sim.Minute))
			lifespan := 6 * period
			expiry := eng.Now() + lifespan
			qid, err := mw.PostSimilarity(ids[0], q, radius, lifespan)
			if err != nil {
				t.Fatal(err)
			}
			retick(mw, middle, expiry+sc.middleTick)
			retick(mw, holder, expiry+sc.coverTick)
			// Published at the coverer itself: stored and matched on the
			// spot.
			eng.RunFor(lifespan - sc.matchAt)
			if mw.DataCenter(holder).SubCount() != 1 {
				t.Fatal("query not registered at the MBR's coverer")
			}
			mw.DataCenter(holder).publishMBR(summary.NewMBR("late", 0, mbr))
			eng.RunFor(3 * period)

			got := mw.MatchedStreams(qid)
			if len(got) != 2 || got[0] != "early" || got[1] != "late" {
				t.Fatalf("matched streams = %v, want the MBR in store at registration and the one matched %v before expiry", got, sc.matchAt)
			}
			if late := mw.LateDeliveries(); late != 0 {
				t.Errorf("%d deliveries arrived after the client retired the query", late)
			}
		})
	}
}

type pair struct {
	stream string
	seq    uint64
}

func pairSet(t *testing.T, what string, ms []query.Match) map[pair]bool {
	t.Helper()
	set := map[pair]bool{}
	for _, m := range ms {
		p := pair{m.StreamID, m.Seq}
		if set[p] {
			t.Errorf("%s: %s/%d reported twice", what, m.StreamID, m.Seq)
		}
		set[p] = true
	}
	return set
}

// TestCandidateSetMatchesBruteForce is the funnel's contract over generated
// stores and queries: MBRs published before a query (found by the
// registration walk, sent at once) and after it (matched on arrival,
// funneled a hop per period) together give the client exactly the
// brute-force candidate set, each (stream, seq) once — on the wire, not
// only after the client's dedup — with and without replication.
func TestCandidateSetMatchesBruteForce(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("replicas %d/seed %d", replicas, seed), func(t *testing.T) {
				cfg := testConfig()
				cfg.Replicas = replicas
				cfg.MBRLifespan = 60 * sim.Minute
				cfg.Seed = seed
				eng, net, mw, ids := testClusterBare(t, 16, cfg)
				tap := &frameTap{Observer: mw.Collector()}
				net.SetObserver(tap)
				rng := sim.NewRand(seed).Fork("generated")

				var mbrs []*summary.MBR
				publish := func(n int) {
					for i := 0; i < n; i++ {
						lo, hi := make(summary.Feature, 3), make(summary.Feature, 3)
						for d := range lo {
							c, w := rng.Uniform(-0.9, 0.9), rng.Uniform(0, 0.05)
							lo[d], hi[d] = c-w, c+w
						}
						b := summary.NewMBR(fmt.Sprintf("g%d", len(mbrs)%7), uint64(len(mbrs)/7), lo)
						b.Extend(hi)
						mbrs = append(mbrs, b)
						mw.DataCenter(ids[rng.Intn(len(ids))]).publishMBR(b)
						eng.RunFor(rng.UniformTime(0, 200*sim.Millisecond))
					}
				}
				type posted struct {
					id     query.ID
					client dht.Key
					f      summary.Feature
					r      float64
					at     sim.Time
				}
				var queries []posted
				post := func(n int) {
					for i := 0; i < n; i++ {
						f := summary.Feature{rng.Uniform(-0.8, 0.8), rng.Uniform(-0.8, 0.8), rng.Uniform(-0.8, 0.8)}
						q := posted{client: ids[rng.Intn(len(ids))], f: f, r: rng.Uniform(0.2, 0.6), at: eng.Now()}
						var err error
						if q.id, err = mw.PostSimilarity(q.client, f, q.r, 60*sim.Minute); err != nil {
							t.Fatal(err)
						}
						queries = append(queries, q)
						eng.RunFor(rng.UniformTime(0, 500*sim.Millisecond))
					}
				}

				publish(40)
				eng.RunFor(2 * sim.Second)
				post(4)
				publish(40)
				post(4)
				// Up to half the ring a hop per period, and the response.
				eng.RunFor(12 * cfg.PushPeriod)

				raw := map[query.ID][]query.Match{}
				for _, f := range tap.frames {
					for _, r := range f.items {
						raw[r.QueryID] = append(raw[r.QueryID], r.Matches...)
					}
				}
				early, late := 0, 0
				for _, q := range queries {
					what := fmt.Sprintf("query %d (r=%.2f)", q.id, q.r)
					want := map[pair]bool{}
					for _, b := range mbrs {
						if _, ok := MatchMBR(b, q.f, q.r); ok {
							want[pair{b.StreamID, b.Seq}] = true
						}
					}
					got := mw.SimilarityMatches(q.id)
					have := pairSet(t, what+" at the client", got)
					pairSet(t, what+" on the wire", raw[q.id])
					for p := range want {
						if !have[p] {
							t.Errorf("%s: %s/%d inside the radius never reported", what, p.stream, p.seq)
						}
					}
					for p := range have {
						if !want[p] {
							t.Errorf("%s: %s/%d reported from outside the radius", what, p.stream, p.seq)
						}
					}
					for _, m := range got {
						if m.FoundAt < q.at+cfg.PushPeriod/4 {
							early++
						} else {
							late++
						}
					}
				}
				if early == 0 || late == 0 {
					t.Fatalf("%d candidates found at registration, %d afterwards: both paths must be exercised", early, late)
				}
			})
		}
	}
}
