package core

// ipOp is the continuous inner-product path (§IV-D) as a cqe.Operator:
// the location service (put/get/reply), subscriptions delivered to stream
// sources, and periodic reconstructed-value pushes.

import (
	"streamdex/internal/cqe"
	"streamdex/internal/dht"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

type ipOp struct {
	dc *DataCenter
}

// Name implements cqe.Operator.
func (o *ipOp) Name() string { return "inner-product" }

// Kinds implements cqe.Operator.
func (o *ipOp) Kinds() []dht.Kind {
	return []dht.Kind{KindLocPut, KindLocGet, KindLocReply, KindIPSub, KindIPResp}
}

// Deliver implements cqe.Operator (loop context — all inner-product state
// is loop-confined).
func (o *ipOp) Deliver(h cqe.Host, msg *dht.Message) {
	dc := o.dc
	switch msg.Kind {
	case KindLocPut:
		p := msg.Payload.(LocPut)
		dc.locTable[p.StreamID] = p.Source
	case KindLocGet:
		dc.onLocGet(msg)
	case KindLocReply:
		dc.onLocReply(msg)
	case KindIPSub:
		dc.onIPSub(msg)
	case KindIPResp:
		dc.mw.deliverIP(dc.id, msg.Payload.(IPResp))
	}
}

// DeliverData implements cqe.Operator: nothing here is worker-safe.
func (o *ipOp) DeliverData(h cqe.Host, msg *dht.Message) bool { return false }

// OnMBR implements cqe.Operator: inner products watch raw streams, not
// summaries.
func (o *ipOp) OnMBR(h cqe.Host, b *summary.MBR) {}

// Tick implements cqe.Operator: sweep expired subscriptions, then push the
// periodic reconstructed values.
func (o *ipOp) Tick(h cqe.Host, now sim.Time) {
	dc := o.dc
	for id, st := range dc.ipSubs {
		if now >= st.q.Expiry() {
			delete(dc.ipSubs, id)
		}
	}
	dc.pushInnerProducts(now)
}

// OnRingChange implements cqe.Operator. Subscriptions live at stream
// sources, not at ring positions — churn does not move them.
func (o *ipOp) OnRingChange(h cqe.Host) {}

// ipSubState is one inner-product subscription at the stream's source.
type ipSubState struct {
	q *query.InnerProduct
}
