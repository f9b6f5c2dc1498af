package transport_test

import (
	"sort"
	"testing"
	"time"

	"streamdex/internal/chord/protocol"
	"streamdex/internal/dht"
	"streamdex/internal/koorde"
	"streamdex/internal/transport"
)

// TestLiveJoinsConvergeInRoundTrips boots eight loopback nodes that join
// back to back through node 0 and requires every node's predecessor and
// successor to name its true ring neighbour within one second of the last
// Join returning. Joins converge by message exchange (the joiner probes
// its successor at once, a displaced predecessor is told about the
// newcomer, a lone node adopts its first notifier), so the bound holds
// with the default 500 ms stabilize period and with stabilization pushed
// out to an hour, where no periodic round can help, on both ring machines.
func TestLiveJoinsConvergeInRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock loopback ring")
	}
	for _, c := range []struct {
		name   string
		period int64 // microseconds; zero keeps the transport defaults
	}{
		{"default-stabilize", 0},
		{"stabilize-1h", int64(time.Hour / time.Microsecond)},
	} {
		for _, machine := range []string{protocol.MachineName, koorde.MachineName} {
			t.Run(c.name+"/"+machine, func(t *testing.T) { checkJoinsConverge(t, machine, c.period) })
		}
	}
}

func checkJoinsConverge(t *testing.T, machine string, period int64) {
	space := dht.NewSpace(32)
	// Joins arrive out of ring order, so they land between members, at
	// the ring's ends and next to the bootstrap.
	order := []int{0, 4, 2, 6, 1, 7, 3, 5}
	arc := space.Size() / uint64(len(order))
	nodes := make([]*transport.Node, len(order))
	ids := make([]dht.Key, len(order))
	for i, slot := range order {
		ids[i] = space.Wrap(dht.Key(uint64(slot)*arc + 977))
		tc := transport.DefaultConfig(ids[i], "127.0.0.1:0")
		tc.Space = space
		tc.Machine = machine
		if period > 0 {
			tc.StabilizeEvery, tc.FixFingersEvery = period, period
		}
		n, err := transport.New(tc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		nodes[i] = n
	}
	nodes[0].Create()
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Addr(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	joined := time.Now()

	sorted := append([]dht.Key(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	converged := func() bool {
		for _, n := range nodes {
			info := n.Ring()
			i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= info.Self.ID })
			wantSucc := sorted[(i+1)%len(sorted)]
			wantPred := sorted[(i+len(sorted)-1)%len(sorted)]
			if len(info.SuccList) == 0 || info.SuccList[0].ID != wantSucc ||
				info.Pred == nil || info.Pred.ID != wantPred {
				return false
			}
		}
		return true
	}
	const bound = time.Second
	for !converged() {
		if time.Since(joined) > bound {
			for _, n := range nodes {
				t.Logf("ring state: %+v", n.Ring())
			}
			t.Fatalf("ring pointers not converged %v after the last join", bound)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("converged %v after the last join", time.Since(joined).Round(time.Millisecond))
}
