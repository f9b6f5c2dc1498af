package koorde

import (
	"sort"
	"testing"

	"streamdex/internal/dht"
	"streamdex/internal/overlay"
)

// chainRespFor builds the Chain-flagged stabilize response the anchor of
// self would send: the anchor's oracle predecessor, itself, and its
// oracle successor list, echoing self's image.
func chainRespFor(space dht.Space, ids []dht.Key, self, anchor dht.Key, succLen int) KStabResp {
	n := len(ids)
	at := sort.Search(n, func(i int) bool { return ids[i] >= anchor })
	resp := KStabResp{
		From:  Ref{ID: anchor},
		Chain: true,
		Image: space.Wrap(self << digitBits),
	}
	resp.HasPred, resp.Pred = true, Ref{ID: ids[(at-1+n)%n]}
	for k := 1; k <= succLen && k < n; k++ {
		resp.SuccList = append(resp.SuccList, Ref{ID: ids[(at+k)%n]})
	}
	return resp
}

// TestChainPatchFromStabPiggyback feeds a node the Chain-flagged
// stabilize response of its anchor and checks the pointer chain is
// rebuilt to the anchor's clockwise window from the link bracketing the
// image — without any KDListReq round trip.
func TestChainPatchFromStabPiggyback(t *testing.T) {
	space := dht.NewSpace(16)
	ids := uniformIDs(space, 128, 0x5eed)
	nodes := buildRing(space, ids, 8)
	cfg := overlay.Config{Space: space}
	for _, self := range ids[:16] {
		m := nodes[self]
		anchor := m.debruijn[0].ID
		resp := chainRespFor(space, ids, self, anchor, 8)
		m.Handle(resp)
		chain := append([]Ref(nil), m.debruijn...)
		if len(chain) == 0 {
			t.Fatalf("node %d: empty chain after piggyback patch", self)
		}
		// The patch must agree with the warm-start oracle chain for as
		// many entries as the anchor's window could supply.
		oracle := Longlinks(cfg, ids, self)
		for i := range chain {
			if i >= len(oracle) || chain[i].ID != oracle[i].ID {
				t.Fatalf("node %d: patched chain %v diverges from oracle %v at %d",
					self, refIDs(chain), refIDs(oracle), i)
			}
			if chain[i].ID == self {
				t.Fatalf("node %d: patched chain contains self", self)
			}
		}
	}
}

// TestChainPatchDivergenceKeepsChain checks the incremental patch
// refuses a window that no longer brackets the image (the ring moved too
// far): the chain is left alone and the full-rebuild fallback is armed
// instead of splicing in unrelated pointers.
func TestChainPatchDivergenceKeepsChain(t *testing.T) {
	space := dht.NewSpace(16)
	ids := uniformIDs(space, 128, 0x5eed)
	nodes := buildRing(space, ids, 8)
	self := ids[3]
	m := nodes[self]
	before := append([]Ref(nil), m.debruijn...)
	// A window far from the image: the anchor 64 ring positions away.
	at := sort.Search(len(ids), func(i int) bool { return ids[i] >= before[0].ID })
	far := ids[(at+64)%len(ids)]
	resp := chainRespFor(space, ids, self, far, 8)
	resp.Image = space.Wrap(self << digitBits)
	m.Handle(resp)
	after := append([]Ref(nil), m.debruijn...)
	if len(after) != len(before) {
		t.Fatalf("divergent window rewrote the chain: %d -> %d entries", len(before), len(after))
	}
	for i := range after {
		if after[i].ID != before[i].ID {
			t.Fatalf("divergent window rewrote chain entry %d: %d -> %d", i, before[i].ID, after[i].ID)
		}
	}
}

// TestChainProbeSkipsPredecessorAdoption checks a Chain-flagged
// stabilize request does not make the far-away requester a predecessor
// candidate, while the plain stabilize request still does.
func TestChainProbeSkipsPredecessorAdoption(t *testing.T) {
	space := dht.NewSpace(16)
	ids := uniformIDs(space, 64, 0x5eed)
	nodes := buildRing(space, ids, 4)
	self := ids[10]
	m := nodes[self]
	pred, _ := m.Predecessor()
	// A requester strictly between the current predecessor and self would
	// be adopted by the plain path.
	closer := Ref{ID: space.Add(pred.ID, 1)}
	m.Handle(KStabReq{From: closer, Chain: true, Image: 1})
	if p, _ := m.Predecessor(); p.ID != pred.ID {
		t.Fatalf("chain probe adopted predecessor %d, want %d kept", p.ID, pred.ID)
	}
	m.Handle(overlay.StabReq{From: closer})
	if p, _ := m.Predecessor(); p.ID != closer.ID {
		t.Fatalf("plain stabilize kept predecessor %d, want %d adopted", p.ID, closer.ID)
	}
}

// TestChainRepairAllocs is the alloc-regression guard of the satellite:
// the steady-state chain repair paths — the piggybacked patch and the
// full-rebuild KDListResp handler — must stay off the allocator once
// their scratch buffers are warm, and Longlinks must cost exactly its
// result slice (no per-call dedup map).
func TestChainRepairAllocs(t *testing.T) {
	space := dht.NewSpace(16)
	ids := uniformIDs(space, 128, 0x5eed)
	nodes := buildRing(space, ids, 8)
	self := ids[7]
	m := nodes[self]
	anchor := m.debruijn[0].ID
	stab := chainRespFor(space, ids, self, anchor, 8)
	dlist := KDListResp{
		From: stab.From, HasPred: stab.HasPred, Pred: stab.Pred,
		SuccList: stab.SuccList,
	}
	m.handleChainResp(stab)
	m.handleDListResp(dlist)
	if avg := testing.AllocsPerRun(100, func() { m.handleChainResp(stab) }); avg > 0 {
		t.Fatalf("piggybacked chain patch allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { m.handleDListResp(dlist) }); avg > 0 {
		t.Fatalf("KDListResp chain rebuild allocates %.1f/op, want 0", avg)
	}
	cfg := overlay.Config{Space: space}
	if avg := testing.AllocsPerRun(100, func() { Longlinks(cfg, ids, self) }); avg > 1 {
		t.Fatalf("Longlinks allocates %.1f/op, want just the result slice", avg)
	}
}

// TestSteadyStateSkipsFullRebuild checks fixPointers is a no-op while
// the chain is healthy: no lookup tokens are spent and no KDListReq
// leaves the node.
func TestSteadyStateSkipsFullRebuild(t *testing.T) {
	space := dht.NewSpace(16)
	ids := uniformIDs(space, 64, 0x5eed)
	nodes := buildRing(space, ids, 8)
	m := nodes[ids[0]]
	sent := 0
	m.send = func(Ref, any) { sent++ }
	m.fixPointers()
	if sent != 0 {
		t.Fatalf("healthy-chain fixPointers sent %d messages, want 0", sent)
	}
	// A dirty chain must trigger the full rebuild lookup again.
	m.chainDirty = true
	m.fixPointers()
	if sent == 0 {
		t.Fatalf("dirty-chain fixPointers sent nothing, want the rebuild lookup")
	}
}
