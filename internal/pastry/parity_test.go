package pastry

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"streamdex/internal/chord"
	"streamdex/internal/dht"
	"streamdex/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/parity.golden")

// TestRoutingParity pins pastry routing message by message: for two seeded
// rings it records where each of ~500 seeded sends is delivered, after how
// many hops, and how many messages were dropped so far, then the (node,
// hops) delivery sequence of one sequential, one bidirectional and one tree
// range multicast. The aggregate tables cannot see a changed next-hop
// choice that happens to cost the same; this golden file can.
func TestRoutingParity(t *testing.T) {
	var out bytes.Buffer
	for _, rc := range []struct {
		m       uint
		n, leaf int
		seed    int64
	}{
		{m: 16, n: 64, leaf: 8, seed: 61},
		{m: 32, n: 300, leaf: 16, seed: 62},
	} {
		fmt.Fprintf(&out, "ring m=%d n=%d leaf=%d\n", rc.m, rc.n, rc.leaf)
		recordRing(&out, rc.m, rc.n, rc.leaf, rc.seed)
	}
	path := filepath.Join("testdata", "parity.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range got {
			if i >= len(wantLines) || !bytes.Equal(got[i], wantLines[i]) {
				var w []byte
				if i < len(wantLines) {
					w = wantLines[i]
				}
				t.Fatalf("parity diverges at line %d:\n got  %s\n want %s", i+1, got[i], w)
			}
		}
		t.Fatalf("parity output is a prefix of the golden file (%d of %d lines)", len(got), len(wantLines))
	}
}

func recordRing(out *bytes.Buffer, m uint, n, leaf int, seed int64) {
	space := dht.NewSpace(m)
	ids := chord.SortKeys(chord.UniformIDs(space, n))
	eng := sim.NewEngine()
	net := stableRing(eng, space, leaf, ids)
	rng := sim.NewRand(seed)

	var at dht.Key
	hops := -1
	for _, id := range ids {
		net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
			at, hops = self, msg.Hops
		}))
	}
	for i := 0; i < 500; i++ {
		from := ids[rng.Intn(n)]
		if i%100 == 99 {
			from = space.Add(from, 1) // not a member: the send drops
		}
		key := dht.Key(rng.Int63()) & space.Mask()
		if i%4 == 0 {
			// Node boundaries: a member id and its two neighbours.
			key = space.Add(ids[rng.Intn(n)], uint64(rng.Intn(3))+space.Size()-1)
		}
		at, hops = 0, -1
		net.Send(from, key, &dht.Message{})
		eng.Run()
		fmt.Fprintf(out, "send %d %d->%d at %d hops %d dropped %d\n", i, from, key, at, hops, net.Dropped())
	}

	for _, mode := range []dht.RangeMode{dht.RangeSequential, dht.RangeBidirectional, dht.RangeTree} {
		lo := dht.Key(rng.Int63()) & space.Mask()
		hi := space.Add(lo, uint64(rng.Int63n(int64(space.Size()/2))))
		fmt.Fprintf(out, "multicast %v [%d, %d]:", mode, lo, hi)
		for _, id := range ids {
			net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
				fmt.Fprintf(out, " %d/%d", self, msg.Hops)
				dht.ContinueRange(net, self, msg, 1)
			}))
		}
		dht.SendRange(net, ids[rng.Intn(n)], lo, hi, &dht.Message{}, mode)
		eng.Run()
		fmt.Fprintf(out, " dropped %d\n", net.Dropped())
	}
}
