// Command adidas-sim runs one configured simulation of the distributed
// stream-indexing middleware and prints its traffic report — the
// interactive face of the prototype, useful for exploring configurations
// beyond the canned experiments.
//
// Usage:
//
//	adidas-sim -nodes 200 -measure 100 -radius 0.1
//	adidas-sim -nodes 100 -beta 25 -range-mode bidi -v
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"streamdex/internal/dht"
	"streamdex/internal/metrics"
	"streamdex/internal/overlay"
	"streamdex/internal/sim"
	"streamdex/internal/workload"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 100, "number of data centers")
		seed      = flag.Int64("seed", 1, "root random seed")
		warmup    = flag.Int("warmup", 40, "warm-up, seconds of virtual time")
		measure   = flag.Int("measure", 100, "measurement interval, seconds of virtual time")
		radius    = flag.Float64("radius", 0.1, "similarity query radius")
		beta      = flag.Int("beta", 25, "MBR batching factor")
		window    = flag.Int("window", 4096, "sliding window size")
		rangeMode = flag.String("range-mode", "seq", "range multicast: seq, bidi or tree")
		substrate = flag.String("substrate", "chord", "routing substrate: a registered machine ("+strings.Join(overlay.Names(), ", ")+")")
		vnodes    = flag.Int("vnodes", 0, "virtual ring positions per node (0/1 = one)")
		replicas  = flag.Int("replicas", 0, "covering-range replication factor (0/1 = off)")
		skew      = flag.Float64("skew", 0, "Zipf exponent for query targeting (0 = uniform)")
		verbose   = flag.Bool("v", false, "print the per-node load distribution")
	)
	flag.Parse()

	// Validate every flag up front so a bad invocation fails with a clear
	// message instead of surfacing as a panic or a half-built workload.
	// The substrate name is checked by workload.Build (NewSubstrate), like
	// every other caller's.
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "adidas-sim: "+format+"\n", args...)
		os.Exit(1)
	}
	if *nodes < 1 {
		fail("-nodes must be at least 1, got %d", *nodes)
	}
	if *warmup < 0 {
		fail("-warmup must be non-negative, got %d", *warmup)
	}
	if *measure < 0 {
		fail("-measure must be non-negative, got %d", *measure)
	}
	if *beta < 1 {
		fail("-beta must be positive, got %d", *beta)
	}
	if *window < 2 {
		fail("-window must be at least 2, got %d", *window)
	}
	if *vnodes < 0 {
		fail("-vnodes must be non-negative, got %d", *vnodes)
	}
	if *replicas < 0 {
		fail("-replicas must be non-negative, got %d", *replicas)
	}
	if *skew < 0 {
		fail("-skew must be non-negative, got %g", *skew)
	}

	cfg := workload.DefaultConfig(*nodes)
	cfg.Seed = *seed
	cfg.Warmup = sim.Time(*warmup) * sim.Second
	cfg.Measure = sim.Time(*measure) * sim.Second
	cfg.Radius = *radius
	cfg.Core.Beta = *beta
	cfg.Core.WindowSize = *window
	cfg.Substrate = *substrate
	cfg.VNodes = *vnodes
	cfg.Core.Replicas = *replicas
	cfg.Skew = *skew
	switch *rangeMode {
	case "seq":
		cfg.Core.RangeMode = dht.RangeSequential
	case "bidi":
		cfg.Core.RangeMode = dht.RangeBidirectional
	case "tree":
		cfg.Core.RangeMode = dht.RangeTree
	default:
		fail("unknown range mode %q (want seq, bidi or tree)", *rangeMode)
	}

	r, err := workload.Build(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adidas-sim: %v\n", err)
		os.Exit(1)
	}
	rep := r.Execute()

	fmt.Printf("simulation: %d nodes, %v measured (after %v warm-up), seed %d\n",
		cfg.Nodes, cfg.Measure, cfg.Warmup, cfg.Seed)
	fmt.Printf("input events: %d MBRs, %d queries, %d responses\n",
		rep.Events[metrics.EventMBR], rep.Events[metrics.EventQuery], rep.Events[metrics.EventResponse])
	fmt.Printf("virtual events executed: %d; dropped messages: %d\n\n",
		r.Eng.Executed(), r.Net.Dropped())

	fmt.Println("average load per node (messages/second):")
	for cat := metrics.Category(0); cat < metrics.NumCategories; cat++ {
		if rep.LoadByCategory[cat] == 0 {
			continue
		}
		fmt.Printf("  %-18s %8.3f\n", cat.String(), rep.LoadByCategory[cat])
	}
	fmt.Printf("  %-18s %8.3f\n\n", "total", rep.TotalLoad)

	fmt.Println("hops per delivered message (mean / max):")
	for h := metrics.HopClass(0); h < metrics.NumHopClasses; h++ {
		if rep.HopCount[h] == 0 {
			continue
		}
		fmt.Printf("  %-18s %6.2f / %d  (%d messages)\n", h.String(), rep.HopMean[h], rep.HopMax[h], rep.HopCount[h])
	}

	qs := rep.LoadQuantiles(0.5, 0.9, 0.99, 1)
	fmt.Printf("\nload distribution: p50=%.2f p90=%.2f p99=%.2f max=%.2f msgs/s\n", qs[0], qs[1], qs[2], qs[3])
	fmt.Printf("bandwidth: %.0f bytes/node/s (serialized message sizes)\n", rep.BandwidthPerNode)

	if *verbose {
		fmt.Println("\nper-node load (messages/second):")
		type nl struct {
			id   dht.Key
			load float64
		}
		var all []nl
		for id, l := range rep.NodeLoad {
			all = append(all, nl{id, l})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].load > all[j].load })
		for _, e := range all {
			fmt.Printf("  node %10d  %8.3f\n", e.id, e.load)
		}
	}
}
