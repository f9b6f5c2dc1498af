package cqe

import (
	"math/rand"
	"strings"
	"testing"

	"streamdex/internal/dht"
	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

// fakeHost records sends; enough Host surface for registry tests.
type fakeHost struct{ sent []dht.Key }

func (f *fakeHost) ID() dht.Key                              { return 1 }
func (f *fakeHost) Now() sim.Time                            { return 42 }
func (f *fakeHost) Covers(dht.Key) bool                      { return true }
func (f *fakeHost) Send(to dht.Key, msg *dht.Message)        { f.sent = append(f.sent, to) }
func (f *fakeHost) SendRange(lo, hi dht.Key, m *dht.Message) {}
func (f *fakeHost) ContinueRange(*dht.Message) int           { return 0 }
func (f *fakeHost) PostToLoop(fn func())                     { fn() }

type fakeOp struct {
	name       string
	kinds      []dht.Kind
	delivered  []dht.Kind
	data       bool // DeliverData return
	dataCalls  int
	mbrs       int
	ticks      int
	ringChange int
}

func (o *fakeOp) Name() string      { return o.name }
func (o *fakeOp) Kinds() []dht.Kind { return o.kinds }
func (o *fakeOp) Deliver(h Host, msg *dht.Message) {
	o.delivered = append(o.delivered, msg.Kind)
}
func (o *fakeOp) DeliverData(h Host, msg *dht.Message) bool {
	o.dataCalls++
	return o.data
}
func (o *fakeOp) OnMBR(h Host, b *summary.MBR) { o.mbrs++ }
func (o *fakeOp) Tick(h Host, now sim.Time)    { o.ticks++ }
func (o *fakeOp) OnRingChange(h Host)          { o.ringChange++ }

func TestEngineDispatchByKind(t *testing.T) {
	e := NewEngine()
	a := &fakeOp{name: "alpha", kinds: []dht.Kind{1, 2}}
	b := &fakeOp{name: "beta", kinds: []dht.Kind{3}, data: true}
	e.Register(a)
	e.Register(b)

	h := &fakeHost{}
	if !e.Deliver(h, &dht.Message{Kind: 2}) {
		t.Fatal("owned kind not dispatched")
	}
	if len(a.delivered) != 1 || a.delivered[0] != 2 {
		t.Fatalf("alpha deliveries: %v", a.delivered)
	}
	if e.Deliver(h, &dht.Message{Kind: 9}) {
		t.Fatal("unowned kind claimed")
	}
	if !e.DeliverData(h, &dht.Message{Kind: 3}) {
		t.Fatal("beta refused its data delivery")
	}
	if e.DeliverData(h, &dht.Message{Kind: 1}) {
		t.Fatal("alpha (loop-only) accepted a data delivery")
	}
	if op, ok := e.Operator(3); !ok || op != b {
		t.Fatal("Operator lookup failed")
	}
	if got := e.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Names: %v", got)
	}
}

func TestEngineFanOut(t *testing.T) {
	e := NewEngine()
	a := &fakeOp{name: "alpha", kinds: []dht.Kind{1}}
	b := &fakeOp{name: "beta", kinds: []dht.Kind{2}}
	e.Register(a)
	e.Register(b)
	h := &fakeHost{}
	e.OnMBR(h, &summary.MBR{})
	e.Tick(h, 7)
	e.Tick(h, 8)
	e.OnRingChange(h)
	for _, op := range []*fakeOp{a, b} {
		if op.mbrs != 1 || op.ticks != 2 || op.ringChange != 1 {
			t.Fatalf("%s fan-out: mbrs=%d ticks=%d ring=%d", op.name, op.mbrs, op.ticks, op.ringChange)
		}
	}
}

func TestEngineDuplicateKindPanicsNamingBoth(t *testing.T) {
	e := NewEngine()
	e.Register(&fakeOp{name: "first", kinds: []dht.Kind{5}})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate kind registration did not panic")
		}
		msg, _ := r.(string)
		if !strings.Contains(msg, "first") || !strings.Contains(msg, "second") {
			t.Fatalf("panic %q does not name both operators", msg)
		}
	}()
	e.Register(&fakeOp{name: "second", kinds: []dht.Kind{5}})
}

func TestSketchFoldKeepsLatestPerStream(t *testing.T) {
	f := NewSketchFold()
	mk := func(n int) *summary.Sketch {
		s := summary.NewSketch(1000*sim.Second, 4, 4, 0, 100)
		for i := 0; i < n; i++ {
			s.Add(sim.Time(i+1)*sim.Second, 50)
		}
		return s
	}
	if !f.Absorb("s1", 1, mk(3)) {
		t.Fatal("first report rejected")
	}
	if f.Absorb("s1", 1, mk(10)) {
		t.Fatal("duplicate seq absorbed")
	}
	if !f.Absorb("s1", 2, mk(5)) {
		t.Fatal("newer seq rejected")
	}
	if !f.Absorb("s2", 1, mk(4)) {
		t.Fatal("second stream rejected")
	}
	if f.Absorb("s3", 1, nil) {
		t.Fatal("nil sketch absorbed")
	}
	now := 2000 * sim.Second // everything outside window
	_ = now
	at := 20 * sim.Second
	if got := f.Count(at); got != 9 {
		t.Fatalf("count %d, want 9 (5+4, small counts exact)", got)
	}
	if got := f.Streams(); len(got) != 2 || got[0] != "s1" || got[1] != "s2" {
		t.Fatalf("streams %v", got)
	}
	if _, ok := f.Quantile(at, 0.5); !ok {
		t.Fatal("quantile over congruent fold failed")
	}
}

func TestSketchFoldRejectsIncongruentMerge(t *testing.T) {
	f := NewSketchFold()
	a := summary.NewSketch(1000*sim.Second, 4, 4, 0, 100)
	b := summary.NewSketch(1000*sim.Second, 4, 8, 0, 100)
	a.Add(sim.Second, 1)
	b.Add(sim.Second, 1)
	f.Absorb("a", 1, a)
	f.Absorb("b", 1, b)
	if m := f.Merged(); m != nil {
		t.Fatal("incongruent fold merged")
	}
}

func TestTopKTableSumsLatestReports(t *testing.T) {
	tab := NewTopKTable()
	tab.Absorb(10, []StreamCount{{"a", 5}, {"b", 2}})
	tab.Absorb(20, []StreamCount{{"a", 1}, {"c", 4}})
	// Node 10 reports again: replaces, not adds.
	tab.Absorb(10, []StreamCount{{"a", 6}, {"b", 2}})
	top := tab.Top(2)
	if len(top) != 2 || top[0] != (StreamCount{"a", 7}) || top[1] != (StreamCount{"c", 4}) {
		t.Fatalf("top-2: %v", top)
	}
	if tab.Reporters() != 2 {
		t.Fatalf("reporters %d", tab.Reporters())
	}
	// Deterministic tie-break by stream id.
	tab2 := NewTopKTable()
	tab2.Absorb(1, []StreamCount{{"z", 3}, {"a", 3}, {"m", 3}})
	got := tab2.Top(3)
	if got[0].StreamID != "a" || got[1].StreamID != "m" || got[2].StreamID != "z" {
		t.Fatalf("tie-break order: %v", got)
	}
	if all := tab2.Top(0); len(all) != 3 {
		t.Fatalf("k=0 should return all: %v", all)
	}
}

// BenchmarkSketchFold times the aggregate operator's numeric path: one
// stream's windowed-sketch ingestion with a clone-and-fold every 1024
// points, as the live node does once per push period. ns/op is per Add.
func BenchmarkSketchFold(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	sk := summary.NewSketch(5*sim.Second, 4, 8, 0, 1000)
	fold := NewSketchFold()
	seq := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i) * sim.Millisecond
		sk.Add(now, rng.Float64()*1000)
		if i%1024 == 0 {
			seq++
			fold.Absorb("s", seq, sk.Clone())
			fold.Count(now)
		}
	}
}
