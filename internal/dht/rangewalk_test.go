package dht_test

import (
	"fmt"
	"testing"

	"streamdex/internal/chord"
	"streamdex/internal/dht"
	_ "streamdex/internal/koorde" // register the koorde routing machine
	_ "streamdex/internal/pastry" // register the pastry routing machine
	"streamdex/internal/sim"
)

// walkArc is one probe range [lo, hi]; full marks the whole-circle arc,
// where the walk may legitimately deliver its boundary node twice.
type walkArc struct {
	name   string
	lo, hi dht.Key
	full   bool
}

// TestRangeWalkProperty drives the one range walk of rangecast.go over
// every routing machine (chord, koorde and pastry, all on chord.Network), mode,
// arc shape and stride, and checks each run against the membership oracle:
//
//   - every coverer is delivered (strided walks: every item is seen);
//   - at most the boundary node is delivered twice, nobody more;
//   - deliveries total at most N+2;
//   - with each stored item replicated on `stride` consecutive nodes from
//     its home coverer, a strided sequential walk sees every item exactly
//     once (twice at most on the full circle, like its boundary node).
//
// Only the sequential walk strides; bidirectional and tree walks visit
// every coverer whatever the stride, so there an item is seen once per
// replica on the arc. Deliveries are capped, so a walk that never ends
// fails here instead of hanging.
func TestRangeWalkProperty(t *testing.T) {
	const n = 48
	space := dht.NewSpace(16)
	ids := chord.SortKeys(chord.UniformIDs(space, n))
	rng := sim.NewRand(27)
	arcs := []walkArc{
		{name: "wrapped", lo: space.Add(ids[n-8], 1), hi: ids[8]},
		{name: "full", lo: space.Add(ids[4], 2), hi: space.Add(ids[4], 1), full: true},
	}
	for i := 0; i < 3; i++ {
		lo := dht.Key(rng.Int63()) & space.Mask()
		hi := space.Add(lo, uint64(rng.Int63n(int64(space.Size()/2))))
		arcs = append(arcs, walkArc{name: fmt.Sprintf("random%d", i), lo: lo, hi: hi})
	}
	key := dht.Key(rng.Int63()) & space.Mask()
	arcs = append(arcs, walkArc{name: "key", lo: key, hi: key})

	for _, sub := range []string{"chord", "koorde", "pastry"} {
		for _, mode := range []dht.RangeMode{dht.RangeSequential, dht.RangeBidirectional, dht.RangeTree} {
			for _, arc := range arcs {
				for stride := 1; stride <= 3; stride++ {
					t.Run(fmt.Sprintf("%s/%v/%s/stride%d", sub, mode, arc.name, stride), func(t *testing.T) {
						checkRangeWalk(t, sub, ids, mode, arc, stride)
					})
				}
			}
		}
	}
}

func checkRangeWalk(t *testing.T, sub string, ids []dht.Key, mode dht.RangeMode, arc walkArc, stride int) {
	n := len(ids)
	eng := sim.NewEngine()
	space := dht.NewSpace(16)
	net := chord.New(eng, chord.Config{Space: space, HopDelay: 50 * sim.Millisecond, SuccListLen: 8, Machine: sub})
	net.BuildStable(ids, nil)

	delivered := map[dht.Key]int{}
	total := 0
	for _, id := range ids {
		net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
			if msg.Split {
				t.Errorf("split bookkeeping leaked into a delivery at node %d", self)
			}
			delivered[self]++
			if total++; total > 4*n {
				return // runaway walk: stop feeding it
			}
			dht.ContinueRange(net, self, msg, stride)
		}))
	}
	dht.SendRange(net, ids[0], arc.lo, arc.hi, &dht.Message{Kind: 7}, mode)
	eng.Run()
	if d := net.Dropped(); d != 0 {
		t.Fatalf("%d messages dropped", d)
	}
	if total > n+2 {
		t.Fatalf("%d deliveries on %d nodes", total, n)
	}

	// Oracle: the coverers in ring order from the owner of lo, ending at
	// the owner of hi (all n nodes on the full circle).
	pos := func(k dht.Key) int {
		for i, id := range ids {
			if id >= k {
				return i
			}
		}
		return 0
	}
	first := pos(arc.lo)
	var cover []dht.Key
	for i := 0; i < n; i++ {
		id := ids[(first+i)%n]
		cover = append(cover, id)
		if space.Distance(arc.lo, arc.hi) <= space.Distance(arc.lo, id) {
			break
		}
	}
	boundary := ids[pos(arc.hi)]
	for id, c := range delivered {
		if c > 2 || c == 2 && id != boundary {
			t.Fatalf("node %d delivered %d times (boundary node %d)", id, c, boundary)
		}
	}

	strided := stride > 1 && mode == dht.RangeSequential
	if strided {
		// Landings stay inside the covering sequence plus the overshoot of
		// one stride past its last node.
		reach := map[dht.Key]bool{}
		for i := 0; i < len(cover)+stride-1; i++ {
			reach[ids[(first+i)%n]] = true
		}
		for id := range delivered {
			if !reach[id] {
				t.Fatalf("strided walk landed at %d, beyond the covering range", id)
			}
		}
	} else {
		inCover := map[dht.Key]bool{}
		for _, id := range cover {
			inCover[id] = true
			if delivered[id] == 0 {
				t.Fatalf("covering node %d not delivered", id)
			}
		}
		for id := range delivered {
			if !inCover[id] {
				t.Fatalf("node %d outside the range delivered", id)
			}
		}
	}

	// Items: one per coverer, stored at its home and the next stride-1
	// ring nodes. A sighting is a delivery at a node holding the item.
	maxSeen := 1
	if !strided {
		maxSeen = stride
	}
	if arc.full {
		maxSeen++
	}
	for _, home := range cover {
		seen := 0
		for r := 0; r < stride; r++ {
			seen += delivered[ids[(pos(home)+r)%n]]
		}
		if seen < 1 || seen > maxSeen {
			t.Fatalf("item at %d seen %d times, want 1..%d", home, seen, maxSeen)
		}
	}
}
