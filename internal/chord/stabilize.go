package chord

import (
	"fmt"

	"streamdex/internal/dht"
	"streamdex/internal/overlay"
	"streamdex/internal/sim"
)

// Membership operations (paper §II-B.1; Stoica et al. §IV-E).
//
// Join, graceful leave and crash failures are modelled. All periodic
// maintenance — stabilize/notify, long-link repair, predecessor
// liveness — lives in the routing machine (the overlay.Ring backbone plus
// the machine's long links);
// the simulator only decides *when* messages arrive (after the per-hop
// delay, via transmitControl) and *which* nodes are reachable. The same
// machine, fed by TCP frames instead of engine events, runs the live
// transport, so churn behavior observed here is the deployed behavior.

// maxLookupSteps bounds control-plane successor searches so a pathological
// half-stabilized ring cannot wedge the simulator.
const maxLookupSteps = 4096

// Join adds a new node to the overlay through a live bootstrap node and
// returns it. The join lookup travels the ring as messages (paying the
// hop delay); the node adopts its successor when the answer arrives,
// probes it at once and looks up its long links, so its predecessor,
// successor list and long links follow within a few hop delays.
func (net *Network) Join(id dht.Key, app dht.App, bootstrap dht.Key) (*Node, error) {
	if net.fac.Static {
		return nil, fmt.Errorf("chord: static machine %q has no join protocol", net.cfg.Machine)
	}
	b := net.nodes[bootstrap]
	if b == nil || !b.alive {
		return nil, fmt.Errorf("chord: bootstrap node %d not alive", bootstrap)
	}
	if app == nil {
		app = dht.AppFunc(func(dht.Key, *dht.Message) {})
	}
	id = net.space.Wrap(id)
	n := net.addNode(id, app)
	net.setPhases(n, sim.NewRand(int64(id)^0x9e3779b9))
	n.m.Join(overlay.Ref{ID: bootstrap}, nil)
	return n, nil
}

// CreateFirst bootstraps a brand-new ring with a single node. A static
// machine has no join protocol to grow that ring: BuildStable builds it.
func (net *Network) CreateFirst(id dht.Key, app dht.App) *Node {
	if net.fac.Static {
		panic(fmt.Sprintf("chord: static machine %q has no join protocol; build it with BuildStable", net.cfg.Machine))
	}
	if len(net.aliveSorted) != 0 {
		panic("chord: CreateFirst on a non-empty overlay")
	}
	if app == nil {
		app = dht.AppFunc(func(dht.Key, *dht.Message) {})
	}
	n := net.addNode(id, app)
	net.setPhases(n, sim.NewRand(int64(net.space.Wrap(id))^0x9e3779b9))
	n.m.Create()
	return n
}

// Leave removes a node gracefully: it splices its neighbors together before
// departing, so the ring never observes a gap. Stored application state is
// soft (summaries and subscriptions expire), so no transfer is needed —
// exactly the paper's fault-tolerance stance.
func (net *Network) Leave(id dht.Key) {
	n := net.nodes[id]
	if n == nil || !n.alive {
		return
	}
	if succ, ok := n.m.LiveSuccessor(); ok && succ.ID != id {
		s := net.nodes[succ.ID]
		if pred, okP := n.m.LivePredecessor(); okP && pred.ID != id {
			s.m.AdoptPredecessor(pred)
			p := net.nodes[pred.ID]
			// Splice the successor list of the predecessor.
			list := append([]overlay.Ref{succ},
				trimSelfRefs(s.m.SuccessorList(), pred.ID, net.cfg.SuccListLen-1)...)
			p.m.AdoptSuccessors(list)
		} else {
			s.m.ClearPredecessor()
		}
	}
	net.deactivate(n)
}

// Fail crashes a node abruptly: neighbors discover the failure only through
// their maintenance tasks, and in-flight messages addressed to it are lost.
func (net *Network) Fail(id dht.Key) {
	n := net.nodes[id]
	if n == nil || !n.alive {
		return
	}
	net.deactivate(n)
}

func (net *Network) deactivate(n *Node) {
	n.alive = false
	n.m.Stop()
	net.removeAlive(n.id)
}

func trimSelfRefs(list []overlay.Ref, self dht.Key, max int) []overlay.Ref {
	out := make([]overlay.Ref, 0, max)
	for _, r := range list {
		if r.ID == self {
			break
		}
		out = append(out, r)
		if len(out) == max {
			break
		}
	}
	return out
}

// setPhases randomizes the machine's maintenance phases so nodes do not
// stabilize in lock-step.
func (net *Network) setPhases(n *Node, rng *sim.Rand) {
	if net.cfg.StabilizeEvery <= 0 {
		return
	}
	n.m.SetPhases(
		rng.UniformTime(0, net.cfg.StabilizeEvery),
		rng.UniformTime(0, net.cfg.FixFingersEvery),
	)
}

// startMaintenance launches the periodic protocol tasks with randomized
// phases (BuildStable's warm start shares one rng across nodes).
func (net *Network) startMaintenance(n *Node, rng *sim.Rand) {
	net.setPhases(n, rng)
	n.m.StartMaintenance()
}

// findSuccessorFrom walks the overlay's routing state from `start` to find
// the successor node of key — the control-plane analogue of the data-plane
// routing in network.go, used by Lookup.
func (net *Network) findSuccessorFrom(start *Node, key dht.Key) (dht.Key, bool) {
	cur := start
	for steps := 0; steps < maxLookupSteps; steps++ {
		if !cur.alive {
			return 0, false
		}
		succ, ok := cur.m.LiveSuccessor()
		if !ok {
			return 0, false
		}
		if succ.ID == cur.id {
			return cur.id, true
		}
		if net.space.BetweenIncl(key, cur.id, succ.ID) {
			return succ.ID, true
		}
		nxt, ok := cur.m.ClosestPreceding(key)
		if !ok || nxt.ID == cur.id {
			// Degenerate routing state: crawl via the successor.
			nxt = succ
		}
		cur = net.nodes[nxt.ID]
		if cur == nil {
			return 0, false
		}
	}
	return 0, false
}

// Lookup resolves the successor node of key starting from node `from` by
// walking the machines' ClosestPreceding entries, and reports whether the
// walk found it. It is exposed for tests and tools; the data plane routes
// messages instead.
func (net *Network) Lookup(from dht.Key, key dht.Key) (dht.Key, bool) {
	n := net.nodes[from]
	if n == nil || !n.alive {
		return 0, false
	}
	if n.covers(net.space.Wrap(key)) {
		return n.id, true
	}
	return net.findSuccessorFrom(n, net.space.Wrap(key))
}
