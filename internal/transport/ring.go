package transport

import (
	"fmt"
	"time"

	"streamdex/internal/dht"
	"streamdex/internal/metrics"
	"streamdex/internal/overlay"
	"streamdex/internal/wire"
)

// Ring maintenance adapter.
//
// The control plane itself lives in the routing machine selected by
// Config.Machine — the exact code the simulator drives through its event
// engine. Every machine embeds one ring backbone (overlay.Ring: join,
// successor list, stabilize/notify, predecessor pings, pending lookups)
// and adds its own long links and lookup routing (internal/chord/protocol
// fingers, internal/koorde de Bruijn chain). This file only adapts it to
// sockets: outgoing (dest, message) pairs are framed with the packed wire
// codec v2 and handed to the peer writers; inbound control frames are
// decoded off-loop and fed to Machine.Handle on the loop. There is no
// transport-private control record: what travels is the backbone's and
// the machine's own message types under overlay.KindRing, so the bytes
// charged to the simulator's observer for a maintenance message are the
// bytes a live socket carries.

// Create bootstraps a brand-new one-node ring.
func (n *Node) Create() {
	n.clk.Do(n.ring.Create)
}

// Join enters an existing ring through the node at bootstrapAddr: it asks
// the ring for the successor of its own identifier and adopts it. The
// machine then probes that successor at once, which brings the successor
// list and the predecessor link within a few round trips, and starts its
// long links (Chord's fingers, Koorde's chain); periodic stabilization is
// only the backstop. The machine retries unanswered lookups itself
// (invalidating superseded tokens); Join blocks until the successor is
// known or the timeout elapses.
func (n *Node) Join(bootstrapAddr string, timeout time.Duration) error {
	found := make(chan Ref, 1)
	n.clk.Do(func() {
		n.ring.Join(Ref{Addr: bootstrapAddr}, func(succ Ref) {
			select {
			case found <- succ:
			default:
			}
		})
	})
	select {
	case <-found:
		return nil
	case <-time.After(timeout):
		n.clk.Do(n.ring.AbandonJoin)
		return fmt.Errorf("transport: join via %s timed out after %v", bootstrapAddr, timeout)
	}
}

// sendRing frames one control-plane message toward to and enqueues it.
// Control frames ride the same pooled frame buffers as the data plane, so
// they coalesce into the writer's vectored flushes too. Loop context (the
// machine invokes it synchronously from Handle and timer callbacks).
func (n *Node) sendRing(to Ref, payload any) {
	if to.Addr == "" {
		// Ref learned without an address (possible only through harness
		// injection, never through decoded frames): nowhere to dial.
		return
	}
	msg := &dht.Message{
		Kind:    overlay.KindRing,
		Key:     to.ID,
		Src:     n.self.ID,
		Payload: payload,
		Hops:    1,
		SentAt:  n.clk.Now(),
	}
	f := newFrame(frameControl)
	body, err := wire.AppendMarshal(f.b, msg)
	if err != nil {
		f.recycle()
		n.dropped.Add(1)
		return
	}
	f.b = body
	f.finish()
	msg.Bytes = len(f.b) - frameOverhead
	n.observer().OnTransmit(n.self.ID, to.ID, msg)
	n.peers.send(to.Addr, f)
}

// RingStats returns a snapshot of the node's control-plane maintenance
// counters.
func (n *Node) RingStats() metrics.Ring {
	var s metrics.Ring
	n.clk.Do(func() { s = n.ring.Stats() })
	return s
}
