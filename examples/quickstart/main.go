// Quickstart: build a small cluster, index a handful of streams, and run
// one similarity query and one inner-product query against them.
//
//	go run ./examples/quickstart
//
// The example plants two correlated streams among unrelated ones and shows
// that the similarity query finds exactly the correlated pair, plus a
// continuously pushed windowed average — the two query types of the paper
// (§III-B) through the public API.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"streamdex"
	"streamdex/internal/sim"
	"streamdex/internal/stream"
)

func main() {
	cluster, err := streamdex.NewCluster(streamdex.ClusterOptions{
		Nodes:       16,
		WindowSize:  64, // short windows so the demo warms up in seconds
		BatchFactor: 5,
		PushPeriod:  time.Second,
		Seed:        42,
	})
	if err != nil {
		log.Fatal(err)
	}
	nodes := cluster.Nodes()

	// Two streams driven by the same random walk (a shared underlying
	// phenomenon) and six independent ones.
	twinGen := func() streamdex.Generator {
		return stream.DefaultRandomWalk(sim.NewRand(7))
	}
	must(cluster.AddStreamPrefilled(nodes[0], "plant-A", twinGen(), 100*time.Millisecond))
	must(cluster.AddStreamPrefilled(nodes[5], "plant-B", twinGen(), 100*time.Millisecond))
	for i := 0; i < 6; i++ {
		gen := stream.DefaultRandomWalk(sim.NewRand(int64(100 + i)))
		must(cluster.AddStreamPrefilled(nodes[2*i%len(nodes)], fmt.Sprintf("noise-%d", i), gen, 100*time.Millisecond))
	}

	fmt.Println("warming up: streams produce values, summaries circulate...")
	cluster.Run(10 * time.Second)

	// Similarity query: "which streams currently look like plant-A?"
	// (posed at plant-A's own data center, which holds its live window)
	qid, err := cluster.SimilarityQueryToStream(nodes[0], "plant-A", 0.15, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	cluster.Run(10 * time.Second)

	// Reported matches are candidates: the feature distance lower-bounds
	// the true distance (no false dismissals, some false positives). The
	// planted twin shows up at distance ~0.
	best := map[string]float64{}
	for _, m := range cluster.Matches(qid) {
		if d, ok := best[m.StreamID]; !ok || m.DistLB < d {
			best[m.StreamID] = m.DistLB
		}
	}
	fmt.Printf("\nstreams similar to plant-A (radius 0.15):\n")
	sids := make([]string, 0, len(best))
	for sid := range best {
		sids = append(sids, sid)
	}
	sort.Strings(sids)
	for _, sid := range sids {
		d := best[sid]
		marker := ""
		if d < 0.01 {
			marker = "   <-- the planted twin (and the stream itself)"
		}
		fmt.Printf("  %-10s lower-bound distance %.3f%s\n", sid, d, marker)
	}

	// Inner-product query: the mean of plant-B's latest 16 values,
	// reconstructed from its DFT summary and pushed periodically.
	avg, err := cluster.AverageQuery(nodes[3], "plant-B", 16, 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	cluster.Run(8 * time.Second)
	for i, v := range cluster.Values(avg) {
		fmt.Printf("plant-B avg(last 16) push %d at %v: %.2f (approximate)\n",
			i+1, time.Duration(v.At)*time.Microsecond, v.Value)
	}

	s := cluster.Stats()
	fmt.Printf("\ntraffic: %.2f msgs/node/s, %d summaries, %d queries, %d responses, %d drops\n",
		s.MessagesPerNodePerSecond, s.MBRs, s.Queries, s.Responses, s.DroppedMessages)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
