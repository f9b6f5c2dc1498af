package chord

import (
	"testing"

	"streamdex/internal/dht"
	"streamdex/internal/sim"
)

// Micro-benchmarks for the routing substrate: ring construction, lookups
// and message routing throughput at evaluation scale.

func benchNet(b *testing.B, n int) (*sim.Engine, *Network, []dht.Key) {
	b.Helper()
	eng := sim.NewEngine()
	cfg := Config{Space: dht.NewSpace(32), HopDelay: 50 * sim.Millisecond, SuccListLen: 8}
	net := New(eng, cfg)
	ids := SortKeys(UniformIDs(cfg.Space, n))
	net.BuildStable(ids, nil)
	return eng, net, ids
}

func BenchmarkBuildStable500(b *testing.B) {
	cfg := Config{Space: dht.NewSpace(32), HopDelay: 50 * sim.Millisecond, SuccListLen: 8}
	ids := SortKeys(UniformIDs(cfg.Space, 500))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := New(sim.NewEngine(), cfg)
		net.BuildStable(ids, nil)
	}
}

func BenchmarkLookup500(b *testing.B) {
	_, net, ids := benchNet(b, 500)
	rng := sim.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := ids[rng.Intn(len(ids))]
		key := dht.Key(rng.Int63()) & net.Space().Mask()
		if _, ok := net.Lookup(from, key); !ok {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkRouteMessage500(b *testing.B) {
	eng, net, ids := benchNet(b, 500)
	rng := sim.NewRand(2)
	delivered := 0
	for _, id := range ids {
		net.SetApp(id, dht.AppFunc(func(dht.Key, *dht.Message) { delivered++ }))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := ids[rng.Intn(len(ids))]
		key := dht.Key(rng.Int63()) & net.Space().Mask()
		net.Send(from, key, &dht.Message{})
	}
	eng.Run()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

func BenchmarkRangeMulticast64Nodes(b *testing.B) {
	space := dht.NewSpace(20)
	ids := EquidistantIDs(space, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := New(eng, Config{Space: space, HopDelay: sim.Millisecond, SuccListLen: 4})
		net.BuildStable(ids, nil)
		for _, id := range ids {
			net.SetApp(id, dht.AppFunc(func(self dht.Key, msg *dht.Message) {
				dht.ContinueRange(net, self, msg, 1)
			}))
		}
		dht.SendRange(net, ids[0], ids[64], ids[127], &dht.Message{}, dht.RangeSequential)
		eng.Run()
	}
}

func BenchmarkStabilizationRound(b *testing.B) {
	eng := sim.NewEngine()
	cfg := Config{
		Space: dht.NewSpace(32), HopDelay: 50 * sim.Millisecond, SuccListLen: 8,
		StabilizeEvery: 500 * sim.Millisecond, FixFingersEvery: 250 * sim.Millisecond,
	}
	net := New(eng, cfg)
	net.BuildStable(SortKeys(UniformIDs(cfg.Space, 200)), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(500 * sim.Millisecond) // one full maintenance round for all nodes
	}
}
