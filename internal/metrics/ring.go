package metrics

// Ring counts one node's control-plane maintenance activity. The routing
// machines (internal/chord/protocol, internal/koorde) increment these as
// they run; they quantify how hard the overlay is working to stay
// converged — near-zero misses/rotations on a quiet ring, bursts under
// churn — and surface through the adidas-node query API (RINGSTATS) for
// live clusters.
type Ring struct {
	// Machine names the routing substrate the counters belong to
	// ("chord", "koorde"), so a RINGSTATS reader knows which machine
	// family's semantics apply (FingerRepairs counts de Bruijn pointer
	// repairs on Koorde).
	Machine string
	// StabilizeRounds is the number of stabilize ticks executed.
	StabilizeRounds uint64
	// StabilizeMisses counts rounds in which the successor did not answer
	// the previous round's probe.
	StabilizeMisses uint64
	// SuccRotations counts successor-list head rotations after
	// MissThreshold consecutive misses (a presumed-dead successor).
	SuccRotations uint64
	// PredDrops counts predecessor pointers cleared after MissThreshold
	// consecutive unanswered pings.
	PredDrops uint64
	// FingerRepairs counts finger-table entries whose value changed (or
	// were first populated) by the fix-fingers task.
	FingerRepairs uint64
	// StaleFindResps counts FindResp messages whose lookup token was no
	// longer pending — expired, superseded by a retry, or duplicated —
	// and which were therefore discarded instead of installed.
	StaleFindResps uint64
	// FindDrops counts FindReq messages rejected for an exhausted TTL or
	// for lack of a usable next hop.
	FindDrops uint64
	// JoinSteps counts the ring messages a join sends at once instead of
	// at the next stabilize round: the joiner's probe of its successor,
	// the hint to a displaced predecessor and a lone node's probe of its
	// first notifier. A converged ring leaves it still.
	JoinSteps uint64
}
