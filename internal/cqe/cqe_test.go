package cqe

import (
	"math/rand"
	"testing"

	"streamdex/internal/sim"
	"streamdex/internal/summary"
)

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
