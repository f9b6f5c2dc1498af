// Package protocol implements the Chord machine: the finger table and
// greedy find_successor routing on top of the ring backbone
// (overlay.Ring), which owns join, the successor list, stabilize/notify,
// predecessor liveness, the pending-lookup table and the published view.
// The machine supplies its long links (populated fingers), its lookup
// request FindReq (tag 16) with the TTL-bounded greedy forward, finger
// repair (one entry per fix-fingers firing), and the finger[0] = succ
// refresh on a stabilize answer.
//
// The machine is pure and message-driven, shared verbatim by the
// discrete-event simulator (internal/chord) and the TCP transport
// (internal/transport): it consumes decoded control messages (Handle) plus
// clock.Clock timers and emits (dest, message) pairs through a send hook,
// so both substrates make bit-for-bit the same ring decisions on the same
// message trace.
//
// All methods must be called from the substrate's single event-loop
// context (the engine goroutine in simulation, the clock.Wall loop live);
// the machine does no locking of its own.
package protocol

import (
	"streamdex/internal/clock"
	"streamdex/internal/dht"
	"streamdex/internal/overlay"
)

// MachineName is the registry key of the Chord machine.
const MachineName = "chord"

func init() {
	overlay.Register(overlay.Factory{
		Name: MachineName,
		New: func(cfg overlay.Config, self Ref, clk clock.Clock, send func(to Ref, msg any)) overlay.Machine {
			return New(cfg, self, clk, send)
		},
		Longlinks: Longlinks,
	})
}

// Longlinks computes the perfect finger table for a warm start:
// finger[i] = successor(self + 2^i) over the sorted live ring.
func Longlinks(cfg overlay.Config, ring []dht.Key, self dht.Key) []Ref {
	fingers := make([]Ref, cfg.Space.M)
	for i := range fingers {
		target := cfg.Space.Add(self, 1<<uint(i))
		s, _ := overlay.SuccessorOnRing(cfg.Space, ring, target)
		fingers[i] = Ref{ID: s}
	}
	return fingers
}

// Machine is one node's Chord control-plane state machine.
type Machine struct {
	*overlay.Ring

	space   dht.Space
	self    Ref
	send    func(to Ref, msg any)
	findTTL int

	finger     []Ref
	fingerOK   []bool
	fingerTok  []uint64 // outstanding repair lookup per entry (0 = none)
	nextFinger int
	// long is the populated finger entries in ascending slot order — the
	// long links the backbone routes over and publishes.
	long []Ref
}

// New builds a machine for self. send is invoked synchronously (from
// Handle and from timer callbacks) for every outgoing control message; the
// substrate adapter owns delivery.
func New(cfg overlay.Config, self Ref, clk clock.Clock, send func(to Ref, msg any)) *Machine {
	bits := int(cfg.Space.M)
	m := &Machine{
		send:      send,
		finger:    make([]Ref, bits),
		fingerOK:  make([]bool, bits),
		fingerTok: make([]uint64, bits),
	}
	m.Ring = overlay.NewRing(MachineName, cfg, self, clk, send, overlay.RingHooks{
		FindReq:          m.findReq,
		Handle:           m.handle,
		Longlinks:        func() []Ref { return m.long },
		InstallLonglinks: m.installFingers,
		Repair:           m.fixNextFinger,
		Adopted:          m.adopted,
	})
	m.space, m.self, m.findTTL = m.Config().Space, m.Self(), m.Config().FindTTL
	return m
}

func (m *Machine) findReq(tok uint64, target dht.Key) any {
	return FindReq{From: m.self, Token: tok, Target: target, TTL: m.findTTL, ReplyTo: m.self}
}

func (m *Machine) handle(msg any) {
	if c, ok := msg.(FindReq); ok {
		m.handleFindReq(c)
	}
}

// handleFindReq answers a successor lookup when this node's successor
// covers the target, otherwise forwards it greedily toward the closest
// preceding routing entry.
func (m *Machine) handleFindReq(c FindReq) {
	if _, forward := m.ServeFind(c.Token, c.Target, c.TTL, c.ReplyTo); !forward {
		return
	}
	next, ok := m.NextHop(c.Target)
	if !ok || next.ID == m.self.ID {
		m.Counters().FindDrops++
		return
	}
	c.TTL--
	c.From = m.self
	m.send(next, c)
}

// installFingers overwrites the finger table from a warm-start list.
func (m *Machine) installFingers(fingers []Ref) {
	for i := range m.finger {
		if i < len(fingers) {
			m.finger[i] = fingers[i]
			m.fingerOK[i] = true
		} else {
			m.fingerOK[i] = false
		}
	}
	m.compactFingers()
}

// adopted keeps finger[0] — the successor of self+1, i.e. the successor
// itself on a converged ring — hot without waiting for a repair cycle.
func (m *Machine) adopted(succ Ref) {
	if len(m.finger) > 0 && succ.ID != m.self.ID && (!m.fingerOK[0] || m.finger[0] != succ) {
		m.finger[0] = succ
		m.fingerOK[0] = true
		m.compactFingers()
	}
}

// compactFingers rebuilds long from the finger table.
func (m *Machine) compactFingers() {
	m.long = m.long[:0]
	for i, ok := range m.fingerOK {
		if ok {
			m.long = append(m.long, m.finger[i])
		}
	}
}

// fixNextFinger refreshes one finger-table entry per firing, cycling
// through the table as Chord prescribes. A still-outstanding lookup for
// the same slot is superseded (its token cancelled) so a slow answer from
// a previous cycle can never overwrite a fresher one.
func (m *Machine) fixNextFinger() {
	if len(m.finger) == 0 || !m.Joined() {
		return
	}
	i := m.nextFinger
	m.nextFinger = (m.nextFinger + 1) % len(m.finger)
	if m.fingerTok[i] != 0 {
		m.CancelFind(m.fingerTok[i])
		m.fingerTok[i] = 0
	}
	target := m.space.Add(m.self.ID, 1<<uint(i))
	m.fingerTok[i] = m.Lookup(target, func(succ Ref) {
		m.fingerTok[i] = 0
		if !m.fingerOK[i] || m.finger[i].ID != succ.ID {
			m.Counters().FingerRepairs++
		}
		m.finger[i] = succ
		m.fingerOK[i] = true
		m.compactFingers()
	})
}

// Finger returns entry i of the finger table (the successor of
// self + 2^i) and whether it has been populated.
func (m *Machine) Finger(i int) (Ref, bool) {
	if i < 0 || i >= len(m.finger) || !m.fingerOK[i] {
		return Ref{}, false
	}
	return m.finger[i], true
}

var _ overlay.Machine = (*Machine)(nil)
