package metrics

import (
	"slices"
	"sort"
	"sync/atomic"

	"streamdex/internal/dht"
	"streamdex/internal/sim"
)

// Classifier maps one network transmission or delivery to a traffic
// category and hop class. The middleware supplies it (it owns the message
// kinds); the collector stays independent of the application protocol.
type Classifier interface {
	// Classify categorizes a transmission leaving node from.
	Classify(from dht.Key, msg *dht.Message) Category
	// ClassifyHops assigns the hop class of a delivered message.
	ClassifyHops(msg *dht.Message) HopClass
}

// Collector implements dht.Observer and accumulates all evaluation
// statistics. It is reset after warm-up so measurements cover a steady
// -state interval only, as in the paper's methodology.
type Collector struct {
	classify Classifier

	start sim.Time

	send map[dht.Key]*[NumCategories]int64
	recv map[dht.Key]*[NumCategories]int64

	totalByCat [NumCategories]int64
	// bytesByCat accumulates wire bytes per category (one count per
	// transmission, using the message's stamped size).
	bytesByCat [NumCategories]int64
	nodeBytes  map[dht.Key]int64

	hopSum   [NumHopClasses]int64
	hopCount [NumHopClasses]int64
	hopMax   [NumHopClasses]int

	// events is atomic: on the live node, CountEvent is called from
	// data-plane workers concurrently with the run loop. Everything else in
	// the collector is serialized by its caller (the simulator's event loop,
	// or the transport's locked observer wrapper).
	events [NumEventTypes]atomic.Int64
}

// NewCollector creates a collector with the given classifier.
func NewCollector(c Classifier) *Collector {
	col := &Collector{classify: c}
	col.resetMaps()
	return col
}

func (c *Collector) resetMaps() {
	c.send = make(map[dht.Key]*[NumCategories]int64)
	c.recv = make(map[dht.Key]*[NumCategories]int64)
	c.nodeBytes = make(map[dht.Key]int64)
}

// Reset clears all counters and marks the start of the measurement
// interval.
func (c *Collector) Reset(now sim.Time) {
	c.start = now
	c.resetMaps()
	c.totalByCat = [NumCategories]int64{}
	c.bytesByCat = [NumCategories]int64{}
	c.hopSum = [NumHopClasses]int64{}
	c.hopCount = [NumHopClasses]int64{}
	c.hopMax = [NumHopClasses]int{}
	for i := range c.events {
		c.events[i].Store(0)
	}
}

func counters(m map[dht.Key]*[NumCategories]int64, id dht.Key) *[NumCategories]int64 {
	if v, ok := m[id]; ok {
		return v
	}
	v := new([NumCategories]int64)
	m[id] = v
	return v
}

// OnTransmit implements dht.Observer: one network traversal counts as a
// send at the sender and a receive at the receiver ("the average number of
// messages that an individual node sends or receives per second").
func (c *Collector) OnTransmit(from, to dht.Key, msg *dht.Message) {
	cat := c.classify.Classify(from, msg)
	counters(c.send, from)[cat]++
	counters(c.recv, to)[cat]++
	c.totalByCat[cat]++
	if msg.Bytes > 0 {
		c.bytesByCat[cat] += int64(msg.Bytes)
		c.nodeBytes[from] += int64(msg.Bytes)
		c.nodeBytes[to] += int64(msg.Bytes)
	}
}

// OnDeliver implements dht.Observer: records the cumulative hop count of
// the delivered message under its hop class.
func (c *Collector) OnDeliver(at dht.Key, msg *dht.Message) {
	h := c.classify.ClassifyHops(msg)
	c.hopSum[h] += int64(msg.Hops)
	c.hopCount[h]++
	if msg.Hops > c.hopMax[h] {
		c.hopMax[h] = msg.Hops
	}
}

// CountEvent records one application input event (new MBR, new query, or a
// response push). Safe from any goroutine.
func (c *Collector) CountEvent(e EventType) { c.events[e].Add(1) }

// Events returns the number of recorded events of the given type.
func (c *Collector) Events(e EventType) int64 { return c.events[e].Load() }

// Report is an immutable snapshot of the collected statistics.
type Report struct {
	// Duration is the measurement interval length.
	Duration sim.Time
	// Nodes is the node population the averages are taken over.
	Nodes int

	// LoadByCategory is the average per-node, per-second rate of messages
	// sent or received, by category (Fig. 6(a)).
	LoadByCategory [NumCategories]float64
	// TotalLoad is the sum over categories.
	TotalLoad float64
	// NodeLoad is each node's total (send+recv) message rate per second
	// (Fig. 6(b)).
	NodeLoad map[dht.Key]float64

	// TotalByCategory is the raw number of transmissions per category.
	TotalByCategory [NumCategories]int64
	// BytesByCategory is the wire volume per category over the interval.
	BytesByCategory [NumCategories]int64
	// BandwidthPerNode is the average bytes per second each node sends
	// or receives.
	BandwidthPerNode float64

	// Events holds input-event counts by type.
	Events [NumEventTypes]int64

	// EngineEvents is the total number of simulator events executed to
	// produce this report (warm-up included). Filled by the workload
	// harness, not the collector; benchmark tooling divides it by wall
	// time to report simulated events per second.
	EngineEvents uint64

	// OverheadPerEvent is transmissions of a category divided by the
	// number of events of the associated type (Fig. 7), filled by
	// Overhead().
	// HopMean/HopMax summarize delivered-message hop counts per class
	// (Fig. 8).
	HopMean  [NumHopClasses]float64
	HopMax   [NumHopClasses]int
	HopCount [NumHopClasses]int64
}

// Snapshot builds a report for the interval [Reset, now] over the given
// node population. Nodes without traffic contribute zero load.
func (c *Collector) Snapshot(now sim.Time, nodes []dht.Key) *Report {
	dur := now - c.start
	r := &Report{
		Duration: dur,
		Nodes:    len(nodes),
		NodeLoad: make(map[dht.Key]float64, len(nodes)),
	}
	for i := range c.events {
		r.Events[i] = c.events[i].Load()
	}
	secs := dur.Seconds()
	if secs <= 0 || len(nodes) == 0 {
		// Degenerate snapshot: a zero-length (or backwards) measurement
		// interval, or no live nodes. Every rate is defined as zero —
		// never NaN or ±Inf from a division by zero — and NodeLoad still
		// carries one entry per requested node so lookups and quantiles
		// over the report behave uniformly.
		for _, id := range nodes {
			r.NodeLoad[id] = 0
		}
		r.TotalByCategory = c.totalByCat
		r.BytesByCategory = c.bytesByCat
		return r
	}
	var catTotals [NumCategories]int64
	for _, id := range nodes {
		var nodeTotal int64
		if s := c.send[id]; s != nil {
			for cat, v := range s {
				catTotals[cat] += v
				nodeTotal += v
			}
		}
		if rv := c.recv[id]; rv != nil {
			for cat, v := range rv {
				catTotals[cat] += v
				nodeTotal += v
			}
		}
		r.NodeLoad[id] = float64(nodeTotal) / secs
	}
	for cat := range catTotals {
		r.LoadByCategory[cat] = float64(catTotals[cat]) / secs / float64(len(nodes))
		r.TotalLoad += r.LoadByCategory[cat]
	}
	r.TotalByCategory = c.totalByCat
	r.BytesByCategory = c.bytesByCat
	var totalBytes int64
	for _, id := range nodes {
		totalBytes += c.nodeBytes[id]
	}
	r.BandwidthPerNode = float64(totalBytes) / secs / float64(len(nodes))
	for h := 0; h < int(NumHopClasses); h++ {
		if c.hopCount[h] > 0 {
			r.HopMean[h] = float64(c.hopSum[h]) / float64(c.hopCount[h])
		}
		r.HopMax[h] = c.hopMax[h]
		r.HopCount[h] = c.hopCount[h]
	}
	return r
}

// Overhead returns the number of transmissions in category cat per input
// event of type ev — the efficiency measure of Fig. 7. It returns 0 when
// no events of the type occurred.
func (r *Report) Overhead(cat Category, ev EventType) float64 {
	if r.Events[ev] == 0 {
		return 0
	}
	return float64(r.TotalByCategory[cat]) / float64(r.Events[ev])
}

// LoadDistribution bins the per-node loads into a histogram with the given
// number of equal-width buckets over [0, max load]; it returns the bucket
// upper bounds and counts (Fig. 6(b)).
func (r *Report) LoadDistribution(buckets int) (bounds []float64, counts []int) {
	if buckets <= 0 {
		panic("metrics: non-positive bucket count")
	}
	loads := make([]float64, 0, len(r.NodeLoad))
	var max float64
	for _, l := range r.NodeLoad {
		loads = append(loads, l)
		if l > max {
			max = l
		}
	}
	bounds = make([]float64, buckets)
	counts = make([]int, buckets)
	if max == 0 {
		for i := range bounds {
			bounds[i] = float64(i + 1)
		}
		counts[0] = len(loads)
		return bounds, counts
	}
	width := max / float64(buckets)
	for i := range bounds {
		bounds[i] = width * float64(i+1)
	}
	for _, l := range loads {
		idx := int(l / width)
		if idx >= buckets {
			idx = buckets - 1
		}
		counts[idx]++
	}
	return bounds, counts
}

// LoadQuantiles returns the q-quantiles (e.g. 0.5, 0.9, 0.99) of per-node
// load, used to check the distribution is not heavy-tailed.
func (r *Report) LoadQuantiles(qs ...float64) []float64 {
	loads := make([]float64, 0, len(r.NodeLoad))
	for _, l := range r.NodeLoad {
		loads = append(loads, l)
	}
	sort.Float64s(loads)
	out := make([]float64, len(qs))
	if len(loads) == 0 {
		return out
	}
	for i, q := range qs {
		if q < 0 || q > 1 {
			panic("metrics: quantile outside [0,1]")
		}
		idx := int(q * float64(len(loads)-1))
		out[i] = loads[idx]
	}
	return out
}

// MaxLoadNode returns the most loaded node and its rate; of several equally
// loaded nodes, the one with the lowest id.
func (r *Report) MaxLoadNode() (dht.Key, float64) {
	var bestID dht.Key
	best := -1.0
	for id, l := range r.NodeLoad {
		if l > best || (l == best && id < bestID) {
			best, bestID = l, id
		}
	}
	return bestID, best
}

// NodeIDs returns the reported ring ids in ascending order — the order to
// sum NodeLoad in: float addition is not associative, so a sum taken in map
// iteration order differs in its last bits from run to run.
func (r *Report) NodeIDs() []dht.Key {
	ids := make([]dht.Key, 0, len(r.NodeLoad))
	for id := range r.NodeLoad {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Gini returns the Gini coefficient of the load sample: 0 for a perfectly
// flat distribution, approaching 1 as the load concentrates on one node.
// The load-skew experiment reports it alongside p99/mean as a single-number
// inequality summary. Empty or all-zero samples yield 0.
func Gini(loads []float64) float64 {
	n := len(loads)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, loads)
	sort.Float64s(sorted)
	var sum, weighted float64
	for i, l := range sorted {
		sum += l
		weighted += float64(i+1) * l
	}
	if sum == 0 {
		return 0
	}
	// G = (2*Σ i*x_i)/(n*Σ x_i) - (n+1)/n, with x ascending and i 1-based.
	return 2*weighted/(float64(n)*sum) - float64(n+1)/float64(n)
}
