package dht

import "streamdex/internal/clock"

// Substrate is the full contract the middleware needs from a content-based
// routing implementation: the message-plane Network operations plus
// deployment plumbing (application attachment, traffic observation,
// membership introspection).
//
// The paper's middleware "relies on the standard distributed hashing table
// interface provided by content-based routing schemes rather than on a
// particular implementation", so that it can run "on top of virtually any
// existing content-based routing implementation". This interface is that
// boundary: package chord provides the simulated implementation, one
// network hosting every registered routing machine (Chord and Koorde with
// full join/leave/failure dynamics, the static Pastry-style prefix router
// that demonstrates the portability claim), and package transport a live
// TCP implementation where every node is a real process.
type Substrate interface {
	Network

	// Clock returns the clock the overlay schedules on: virtual time under
	// the simulator, wall time in a live deployment. The middleware runs
	// all of its periodic processes on it.
	Clock() clock.Clock
	// SetApp installs the application upcall for a node.
	SetApp(id Key, app App)
	// SetObserver installs the traffic observer (nil resets to no-op).
	SetObserver(o Observer)
	// NodeIDs returns the live node identifiers in ring order.
	NodeIDs() []Key
	// Alive reports whether the node is up.
	Alive(id Key) bool
	// Dropped returns the number of data-plane messages lost so far.
	Dropped() int64
}

// NeighborWatcher is optionally implemented by substrates that can report
// ring-neighborhood changes (predecessor or first successor of a node
// moved) — the churn signal the continuous-query engine re-homes standing
// registrations on. The callback runs on the substrate's serialized loop
// and may send messages.
type NeighborWatcher interface {
	WatchNeighbors(id Key, fn func())
}
