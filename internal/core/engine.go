package core

// The DataCenter side of the continuous-query engine: the cqe.Host
// implementation operators talk to the substrate through, and the engine
// construction that registers the built-in operators. Adding an operator
// means writing one op_*.go file and one newEngine line — DataCenter's
// dispatch never changes.

import (
	"streamdex/internal/cqe"
	"streamdex/internal/dht"
	"streamdex/internal/sim"
)

// Compile-time check: DataCenter is the engine's host.
var _ cqe.Host = (*DataCenter)(nil)

// Now implements cqe.Host.
func (dc *DataCenter) Now() sim.Time { return dc.mw.clk.Now() }

// Covers implements cqe.Host: whether this node currently owns the key.
func (dc *DataCenter) Covers(key dht.Key) bool { return dc.mw.net.Covers(dc.id, key) }

// Send implements cqe.Host, stamping the wire size like every middleware
// transmission.
func (dc *DataCenter) Send(to dht.Key, msg *dht.Message) {
	dc.mw.net.Send(dc.id, to, sized(msg))
}

// SendRange implements cqe.Host: range multicast in the configured mode.
func (dc *DataCenter) SendRange(lo, hi dht.Key, msg *dht.Message) {
	dht.SendRange(dc.mw.net, dc.id, lo, hi, sized(msg), dc.mw.cfg.RangeMode)
}

// ContinueRange implements cqe.Host.
func (dc *DataCenter) ContinueRange(msg *dht.Message) int {
	return dht.ContinueRange(dc.mw.net, dc.id, msg, 1)
}

// PostToLoop implements cqe.Host. Without a poster (the simulator, where
// everything already runs on the loop) the closure runs inline.
func (dc *DataCenter) PostToLoop(fn func()) {
	if dc.poster != nil && dc.poster.Post(fn) {
		return
	}
	fn()
}

// newEngine builds this data center's operator registry. Registration
// order is the Tick/OnMBR fan-out order and is part of the simulator's
// deterministic schedule: similarity and inner-product first (the
// historical periodTick order), then the PR-7 operators, then the replica
// operator last — with Config.Replicas at its default its hooks are inert
// no-ops, keeping the historical schedule intact.
func newEngine(dc *DataCenter) *cqe.Engine {
	e := cqe.NewEngine()
	dc.opSim = &simOp{dc: dc}
	dc.opIP = &ipOp{dc: dc}
	dc.opSub = newSubOp(dc)
	dc.opAgg = newAggOp(dc)
	dc.opTopK = newTopKOp(dc)
	dc.opRep = newRepOp(dc)
	e.Register(dc.opSim)
	e.Register(dc.opIP)
	e.Register(dc.opSub)
	e.Register(dc.opAgg)
	e.Register(dc.opTopK)
	e.Register(dc.opRep)
	return e
}
