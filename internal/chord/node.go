// Package chord is the simulated overlay: a discrete-event network that
// hosts any routing machine registered with internal/overlay — the Chord
// protocol (Stoica et al., SIGCOMM 2001; internal/chord/protocol, the
// default), Koorde and the static Pastry-style machine — standing in for
// the publicly available Chord simulator the paper's prototype was linked
// against (§V).
//
// It provides:
//
//   - the identifier circle with consistent hashing (package dht),
//   - per-node routing machines giving O(log N) lookups (Chord's finger
//     tables, paper §II-B.1, Fig. 1),
//   - joins, graceful leaves and crashes on machines with membership
//     dynamics, the ring self-repairing through the machine's maintenance
//     protocol; a static machine is built by BuildStable only,
//   - a simulated network that routes application messages hop by hop with
//     a constant per-hop delay (50 ms in the paper's configuration) and
//     reports every transmission and delivery to an observer for the
//     evaluation's message accounting.
//
// The control plane is the message-driven routing machine Config.Machine
// names, on the shared overlay.Ring backbone — for Chord and Koorde the
// same code the live TCP transport runs. The simulator's adapter delivers
// control messages through the event engine with the per-hop delay, so
// maintenance traffic is observable and chargeable exactly like data
// traffic, and churn scenarios exercise the protocol that actually
// deploys.
package chord

import (
	"fmt"

	"streamdex/internal/chord/protocol"
	"streamdex/internal/dht"
	"streamdex/internal/metrics"
	"streamdex/internal/overlay"
)

// Node is one simulated overlay node (a data center / sensor proxy in the
// paper's architecture). Its ring state lives in the embedded routing
// machine; the Node itself carries only simulation plumbing.
type Node struct {
	id  dht.Key
	net *Network
	app dht.App

	alive bool

	// m is the node's control-plane state machine — the same code a live
	// transport node runs, driven here through the event engine. Which
	// machine family it is comes from Config.Machine.
	m overlay.Machine
}

// ID returns the node's ring identifier.
func (n *Node) ID() dht.Key { return n.id }

// Alive reports whether the node is up.
func (n *Node) Alive() bool { return n.alive }

// Machine exposes the node's control-plane state machine for tests and
// tools (e.g. the sim-vs-live parity harness).
func (n *Node) Machine() overlay.Machine { return n.m }

// Protocol exposes the Chord machine. It panics when the network runs a
// different substrate — callers that work on any machine use Machine.
func (n *Node) Protocol() *protocol.Machine { return n.m.(*protocol.Machine) }

// RingStats returns a snapshot of the node's control-plane maintenance
// counters — the same metrics a live transport node reports.
func (n *Node) RingStats() metrics.Ring { return n.m.Stats() }

// Successor returns the node's immediate successor pointer.
func (n *Node) Successor() dht.Key {
	if s, ok := n.m.Successor(); ok {
		return s.ID
	}
	return n.id
}

// Predecessor returns the predecessor pointer and whether it is known.
func (n *Node) Predecessor() (dht.Key, bool) {
	if p, ok := n.m.Predecessor(); ok {
		return p.ID, true
	}
	return 0, false
}

// Finger returns entry i of the Chord finger table (the successor of
// id + 2^i) and whether it has been populated. Chord-only, like Protocol.
func (n *Node) Finger(i int) (dht.Key, bool) {
	if f, ok := n.Protocol().Finger(i); ok {
		return f.ID, true
	}
	return 0, false
}

// covers reports whether this node is the successor node of key.
func (n *Node) covers(key dht.Key) bool { return n.m.Covers(key) }

// liveSuccessor returns the first live entry of the successor list.
func (n *Node) liveSuccessor() (dht.Key, bool) {
	if s, ok := n.m.LiveSuccessor(); ok {
		return s.ID, true
	}
	return 0, false
}

// livePredecessor returns the predecessor if known and live.
func (n *Node) livePredecessor() (dht.Key, bool) {
	if p, ok := n.m.LivePredecessor(); ok {
		return p.ID, true
	}
	return 0, false
}

// nextHop picks the forwarding target for a message addressed to key, per
// Chord's routing rule (Fig. 1(b)), hardened against failed entries via
// the network's liveness filter.
func (n *Node) nextHop(key dht.Key) (dht.Key, bool) {
	if next, ok := n.m.NextHop(key); ok {
		return next.ID, true
	}
	return 0, false
}

// String implements fmt.Stringer for diagnostics.
func (n *Node) String() string {
	return fmt.Sprintf("chord.Node(%d alive=%v succ=%d)", n.id, n.alive, n.Successor())
}
