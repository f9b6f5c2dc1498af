package metrics

// DataPlane is a point-in-time snapshot of the live node's read-path
// counters: the MBR store's generation lifecycle, the decode arenas
// feeding zero-copy unmarshalling, and the optional UDP datagram plane.
// The collector cannot gather these itself — they live in layers above it
// (core's store, the transport's arenas and sockets) — so the node
// assembles one from its components and hands it to whoever reports
// (the STATS command, benchmarks, tests). All fields are cumulative since
// node start; subtract two snapshots for an interval.
type DataPlane struct {
	// Store generation lifecycle: publications (every put, seal and
	// drop), entries moved when a generation was sealed, and seals.
	StoreEpochs    int64
	StoreCowCopied int64
	StoreMerges    int64

	// Decode arenas: chunk carve requests, chunk refills (each refill is
	// one real heap allocation amortized over a chunk of carves), and
	// stream-id intern table hits/misses.
	ArenaCarves       int64
	ArenaRefills      int64
	ArenaInternHits   int64
	ArenaInternMisses int64

	// UDP datagram plane (zero when running TCP-only).
	UDPSent     int64
	UDPRecv     int64
	UDPFallback int64

	// AdmitShed counts data-plane ingest messages dropped by the
	// admission-control token bucket (zero when admission is off). Sheds
	// degrade soft-state freshness, not correctness: the next republish
	// cycle repairs the gap.
	AdmitShed int64
}

// ArenaHitRate is the fraction of arena carves served from an existing
// chunk without touching the heap — the pool hit rate. 1.0 with no
// traffic (nothing missed), approaches 1 as chunks amortize.
func (d DataPlane) ArenaHitRate() float64 {
	if d.ArenaCarves == 0 {
		return 1
	}
	return 1 - float64(d.ArenaRefills)/float64(d.ArenaCarves)
}

// Sub returns the counter deltas d - prev, for turning two cumulative
// snapshots into an interval measurement.
func (d DataPlane) Sub(prev DataPlane) DataPlane {
	return DataPlane{
		StoreEpochs:       d.StoreEpochs - prev.StoreEpochs,
		StoreCowCopied:    d.StoreCowCopied - prev.StoreCowCopied,
		StoreMerges:       d.StoreMerges - prev.StoreMerges,
		ArenaCarves:       d.ArenaCarves - prev.ArenaCarves,
		ArenaRefills:      d.ArenaRefills - prev.ArenaRefills,
		ArenaInternHits:   d.ArenaInternHits - prev.ArenaInternHits,
		ArenaInternMisses: d.ArenaInternMisses - prev.ArenaInternMisses,
		UDPSent:           d.UDPSent - prev.UDPSent,
		UDPRecv:           d.UDPRecv - prev.UDPRecv,
		UDPFallback:       d.UDPFallback - prev.UDPFallback,
		AdmitShed:         d.AdmitShed - prev.AdmitShed,
	}
}
