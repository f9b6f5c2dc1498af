package protocol_test

import (
	"testing"

	"streamdex/internal/dht"
	"streamdex/internal/overlay"
	"streamdex/internal/sim"
)

// TestBackToBackJoinsConvergeUnderJitter joins 16 nodes back to back
// through one bootstrap, each join starting once the previous joiner has
// its successor, over links whose delay varies per message (0.05-20 ms,
// first-in first-out per directed link), with stabilization and long-link
// repair pushed out to an hour. The join-time messages alone must leave
// every successor and predecessor equal to the oracle, on 200 seeded
// schedules per machine. A notify overtaken by a later join — the
// successor already took a closer predecessor — is one such schedule.
func TestBackToBackJoinsConvergeUnderJitter(t *testing.T) {
	eachMachine(t, func(t *testing.T, row machineRow) {
		fac, _ := overlay.Lookup(row.name)
		cfg := overlay.Config{
			Space:           dht.NewSpace(32),
			SuccListLen:     8,
			StabilizeEvery:  3600 * sim.Second,
			FixFingersEvery: 3600 * sim.Second,
		}
		for seed := int64(1); seed <= 200; seed++ {
			rng := sim.NewRand(seed)
			b := newBus(sim.NewEngine(), fac, cfg, 50*sim.Microsecond)
			b.jitter = func() sim.Time { return sim.Time(rng.Int63n(int64(20 * sim.Millisecond))) }
			var ids []dht.Key
			for len(ids) < 16 {
				id := dht.Key(rng.Int63n(int64(cfg.Space.Size())))
				if b.nodes[id] == nil {
					b.add(id)
					ids = append(ids, id)
				}
			}
			b.nodes[ids[0]].Create()
			for _, id := range ids[1:] {
				b.nodes[id].Join(Ref{ID: ids[0]}, nil)
				for !b.nodes[id].Joined() {
					b.eng.RunFor(sim.Millisecond)
				}
			}
			b.eng.RunFor(sim.Second)
			live := b.live()
			for i, id := range live {
				m := b.nodes[id]
				s, _ := m.Successor()
				p, ok := m.Predecessor()
				if want := live[(i+1)%len(live)]; s.ID != want {
					t.Fatalf("seed %d: node %d successor %d, oracle %d", seed, id, s.ID, want)
				}
				if want := live[(i+len(live)-1)%len(live)]; !ok || p.ID != want {
					t.Fatalf("seed %d: node %d predecessor %v (ok=%v), oracle %d", seed, id, p, ok, want)
				}
			}
		}
	})
}
