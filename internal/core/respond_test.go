package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

// frameTap records every KindResponse frame the network delivers, before
// the client's own dedup sees its responses.
type frameTap struct {
	dht.Observer
	frames []tappedFrame
}

type tappedFrame struct {
	from, to dht.Key
	sentAt   sim.Time
	bytes    int
	items    []ResponseMsg
}

func (o *frameTap) OnDeliver(at dht.Key, msg *dht.Message) {
	if msg.Kind == KindResponse {
		o.frames = append(o.frames, tappedFrame{
			from: msg.Src, to: at, sentAt: msg.SentAt, bytes: msg.Bytes, items: responseItems(msg),
		})
	}
	o.Observer.OnDeliver(at, msg)
}

// responseItems returns the responses a KindResponse frame carries.
func responseItems(msg *dht.Message) []ResponseMsg {
	switch p := msg.Payload.(type) {
	case ResponseMsg:
		return []ResponseMsg{p}
	case ResponseBatch:
		return p.Items
	}
	return nil
}

// similarityCall is one OnSimilarity callback.
type similarityCall struct {
	at      sim.Time
	id      query.ID
	matches []pair
}

// runCoalesceScenario posts 24 queries from one origin on a 16-node ring
// whose push timers all fire at the same phase, publishes generated MBRs
// before and after, and checks the per-period frame and response counts
// and the candidate sets against brute force. It returns the OnSimilarity
// calls it saw.
func runCoalesceScenario(t *testing.T, seed int64) []similarityCall {
	t.Helper()
	cfg := testConfig()
	cfg.MBRLifespan = 60 * sim.Minute
	cfg.Seed = seed
	eng, net, mw, ids := testClusterBare(t, 16, cfg)
	tap := &frameTap{Observer: mw.Collector()}
	net.SetObserver(tap)
	rng := sim.NewRand(seed).Fork("coalesce")
	period := cfg.PushPeriod
	origin := ids[0]

	// Every push timer fires at phase+k·period, so a response sent at such
	// an instant is a periodic one and any other is a query's eager first
	// answer. Just before each push the probe notes which aggregators
	// exist: each of them owes its client one response at that push.
	phase := eng.Now() + period/2
	for _, id := range ids {
		retick(mw, id, phase)
	}
	owed := map[query.ID]int{}
	mw.clk.EveryAfter(period/2-1, period, func() {
		for _, id := range ids {
			for qid := range mw.DataCenter(id).aggs {
				owed[qid]++
			}
		}
	})
	periodic := func(at sim.Time) bool { return (at-phase)%period == 0 }

	var calls []similarityCall
	mw.OnSimilarity = func(id query.ID, fresh []query.Match) {
		c := similarityCall{at: eng.Now(), id: id}
		for _, m := range fresh {
			c.matches = append(c.matches, pair{m.StreamID, m.Seq})
		}
		calls = append(calls, c)
	}

	var mbrs []*summary.MBR
	publish := func(n int) {
		for i := 0; i < n; i++ {
			lo, hi := make(summary.Feature, 3), make(summary.Feature, 3)
			for d := range lo {
				c, w := rng.Uniform(-0.9, 0.9), rng.Uniform(0, 0.05)
				lo[d], hi[d] = c-w, c+w
			}
			b := summary.NewMBR(fmt.Sprintf("c%d", len(mbrs)%7), uint64(len(mbrs)/7), lo)
			b.Extend(hi)
			mbrs = append(mbrs, b)
			mw.DataCenter(ids[rng.Intn(len(ids))]).publishMBR(b)
			eng.RunFor(rng.UniformTime(0, 100*sim.Millisecond))
		}
	}
	type posted struct {
		id query.ID
		f  summary.Feature
		r  float64
	}
	var queries []posted
	post := func(n int) {
		for i := 0; i < n; i++ {
			f := summary.Feature{rng.Uniform(-0.8, 0.8), rng.Uniform(-0.8, 0.8), rng.Uniform(-0.8, 0.8)}
			q := posted{f: f, r: rng.Uniform(0.2, 0.6)}
			var err error
			if q.id, err = mw.PostSimilarity(origin, f, q.r, 60*sim.Minute); err != nil {
				t.Fatal(err)
			}
			queries = append(queries, q)
			eng.RunFor(rng.UniformTime(0, 150*sim.Millisecond))
		}
	}

	publish(30)
	post(12)
	publish(30)
	post(12)
	publish(20)
	// The funnel moves a hop per period: run well past half the ring,
	// then stop between pushes so every frame sent has arrived.
	eng.RunUntil(phase + 14*period + period/2)

	// At most one periodic frame per (middle node, client) per push, and
	// coalescing happened somewhere.
	type push struct {
		from, to dht.Key
		at       sim.Time
	}
	frames := map[push]int{}
	batched := 0
	sends := map[query.ID][]sim.Time{} // send instant of each response
	for _, f := range tap.frames {
		if f.to != origin {
			t.Errorf("response frame delivered at %d, not at the client %d", f.to, origin)
		}
		if periodic(f.sentAt) {
			frames[push{f.from, f.to, f.sentAt}]++
		}
		if len(f.items) > 1 {
			batched++
		}
		for _, r := range f.items {
			sends[r.QueryID] = append(sends[r.QueryID], f.sentAt)
		}
	}
	for p, n := range frames {
		if n > 1 {
			t.Errorf("middle node %d sent %d response frames to %d at %v", p.from, n, p.to, p.at)
		}
	}
	if batched == 0 {
		t.Fatal("no frame carried more than one response: nothing was coalesced")
	}
	// A middle node co-located with the client delivers without a frame,
	// on the spot.
	local := map[query.ID]bool{}
	for _, q := range queries {
		local[q.id] = mw.DataCenter(origin).HasAggregator(q.id)
	}
	for _, c := range calls {
		if local[c.id] {
			sends[c.id] = append(sends[c.id], c.at)
		}
	}

	for _, q := range queries {
		what := fmt.Sprintf("query %d", q.id)
		eager := 0
		for _, at := range sends[q.id] {
			if !periodic(at) {
				eager++
			}
		}
		if eager > 1 {
			t.Errorf("%s: %d responses outside the push schedule, want at most the first answer", what, eager)
		}
		if owed[q.id] == 0 {
			t.Errorf("%s: no aggregator at any push", what)
		}
		if got, want := mw.ResponseCount(q.id), owed[q.id]+eager; got != want || len(sends[q.id]) != got {
			t.Errorf("%s: %d responses counted, %d sent; want one per period alive (%d) plus %d eager",
				what, got, len(sends[q.id]), owed[q.id], eager)
		}

		want := map[pair]bool{}
		for _, b := range mbrs {
			if _, ok := MatchMBR(b, q.f, q.r); ok {
				want[pair{b.StreamID, b.Seq}] = true
			}
		}
		have := pairSet(t, what, mw.SimilarityMatches(q.id))
		if !reflect.DeepEqual(have, want) {
			t.Errorf("%s: client has %d candidates, brute force %d", what, len(have), len(want))
		}
	}
	return calls
}

// TestResponsesCoalescePerClient: a middle node sends one KindResponse
// frame per client per push period, the client still sees one response
// per query per period with the brute-force candidate set, and the
// callback sequence does not depend on map iteration order.
func TestResponsesCoalescePerClient(t *testing.T) {
	first := runCoalesceScenario(t, 3)
	second := runCoalesceScenario(t, 3)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two runs of one seed made different OnSimilarity call sequences (%d vs %d calls)",
			len(first), len(second))
	}
}

// TestResponseFrameBudget: one period's responses for a client that
// encode past the pooled-frame budget travel as several frames, none over
// the budget, each response in exactly one of them; a single response
// larger than the budget travels alone.
func TestResponseFrameBudget(t *testing.T) {
	cfg := testConfig()
	eng, net, mw, ids := testClusterBare(t, 8, cfg)
	tap := &frameTap{Observer: mw.Collector()}
	net.SetObserver(tap)
	middle, client := mw.DataCenter(ids[3]), ids[6]

	sent := map[query.ID][]query.Match{}
	add := func(id query.ID, n int) {
		ms := make([]query.Match, n)
		for i := range ms {
			ms[i] = query.Match{StreamID: fmt.Sprintf("stream-%s-%d", strings.Repeat("x", 8), i),
				Seq: uint64(i), DistLB: 0.25, FoundAt: eng.Now(), Node: middle.id}
		}
		middle.installAggregator(id, client, eng.Now()+sim.Minute)
		middle.aggs[id].pending = ms
		sent[id] = ms
	}
	for id := query.ID(1); id <= 200; id++ {
		add(id, 12) // ≈ 0.4 KiB each, ≈ 80 KiB together
	}
	add(500, 3000) // ≈ 110 KiB alone
	middle.pushResponses(eng.Now())
	eng.RunFor(sim.Second)

	got := map[query.ID][]query.Match{}
	for _, f := range tap.frames {
		if f.from != middle.id || f.to != client {
			t.Fatalf("frame %d→%d, want %d→%d", f.from, f.to, middle.id, client)
		}
		if want := responseFrame(f.items).Bytes; f.bytes != want {
			t.Errorf("frame charged %d B, encodes to %d B", f.bytes, want)
		}
		if f.bytes > maxResponseFrame && len(f.items) > 1 {
			t.Errorf("%d-item frame of %d B exceeds the %d B budget", len(f.items), f.bytes, maxResponseFrame)
		}
		for _, r := range f.items {
			if _, dup := got[r.QueryID]; dup {
				t.Errorf("query %d answered twice", r.QueryID)
			}
			got[r.QueryID] = r.Matches
		}
	}
	if len(tap.frames) < 3 {
		t.Errorf("%d frames, want the small responses split and the large one alone", len(tap.frames))
	}
	if !reflect.DeepEqual(got, sent) {
		t.Errorf("%d responses delivered, %d sent, or their matches differ", len(got), len(sent))
	}
	for id := range sent {
		if n := mw.ResponseCount(id); n != 1 {
			t.Errorf("query %d: %d responses, want 1", id, n)
		}
	}
}
