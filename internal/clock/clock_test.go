package clock

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"streamdex/internal/sim"
)

// TestVirtualDelegates checks that the virtual clock is a transparent view
// of the engine: same now, same firing order, working cancellation.
func TestVirtualDelegates(t *testing.T) {
	eng := sim.NewEngine()
	c := Virtual(eng)

	var order []int
	c.Schedule(20*sim.Millisecond, func() { order = append(order, 2) })
	c.Schedule(10*sim.Millisecond, func() { order = append(order, 1) })
	cancelled := c.Schedule(15*sim.Millisecond, func() { order = append(order, 99) })
	if !cancelled.Cancel() {
		t.Fatal("first Cancel should deschedule")
	}
	if cancelled.Cancel() {
		t.Fatal("second Cancel should be a no-op")
	}

	tk := Every(c, 5*sim.Millisecond, func() {})
	eng.RunUntil(22 * sim.Millisecond)
	tk.Stop()

	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("firing order %v, want [1 2]", order)
	}
	if got := tk.Fires(); got != 4 {
		t.Fatalf("ticker fired %d times in 22ms at 5ms period, want 4", got)
	}
	if c.Now() != eng.Now() {
		t.Fatalf("clock now %v != engine now %v", c.Now(), eng.Now())
	}
}

// TestWallSerializes posts work from many goroutines and checks that
// callbacks never overlap (the loop guarantee protocol code relies on).
func TestWallSerializes(t *testing.T) {
	w := NewWall()
	defer w.Close()

	var inside atomic.Int32
	var overlaps atomic.Int32
	var ran atomic.Int32
	const posts = 200
	for i := 0; i < posts; i++ {
		go w.Post(func() {
			if inside.Add(1) > 1 {
				overlaps.Add(1)
			}
			inside.Add(-1)
			ran.Add(1)
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for ran.Load() < posts && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ran.Load() < posts {
		t.Fatalf("only %d/%d posted callbacks ran", ran.Load(), posts)
	}
	if overlaps.Load() != 0 {
		t.Fatalf("%d overlapping callbacks", overlaps.Load())
	}
}

// TestWallTimerAndTicker exercises scheduling, cancellation and periodic
// firing against real time.
func TestWallTimerAndTicker(t *testing.T) {
	w := NewWall()
	defer w.Close()

	fired := make(chan struct{})
	w.Schedule(time1ms(), func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("one-shot timer never fired")
	}

	var cancelledRan atomic.Bool
	tm := w.Schedule(50*sim.Millisecond, func() { cancelledRan.Store(true) })
	if !tm.Cancel() {
		t.Fatal("Cancel of pending timer should succeed")
	}
	if tm.Active() {
		t.Fatal("cancelled timer still active")
	}

	tick := make(chan struct{}, 64)
	tk := w.EveryAfter(0, time1ms(), func() { tick <- struct{}{} })
	for i := 0; i < 3; i++ {
		select {
		case <-tick:
		case <-time.After(5 * time.Second):
			t.Fatalf("ticker stalled after %d fires", i)
		}
	}
	tk.Stop()
	if tk.Active() {
		t.Fatal("stopped ticker still active")
	}
	if tk.Fires() < 3 {
		t.Fatalf("ticker fired %d times, want >= 3", tk.Fires())
	}

	time.Sleep(80 * time.Millisecond)
	if cancelledRan.Load() {
		t.Fatal("cancelled timer callback ran")
	}
}

// TestWallTickerStopsItself checks the sim.Ticker contract that fn may stop
// its own ticker.
func TestWallTickerStopsItself(t *testing.T) {
	w := NewWall()
	defer w.Close()

	done := make(chan uint64, 1)
	var tk Ticker
	w.Do(func() {
		tk = w.EveryAfter(0, time1ms(), func() {
			if tk.Fires() == 2 {
				tk.Stop()
				done <- tk.Fires()
			}
		})
	})
	select {
	case n := <-done:
		if n != 2 {
			t.Fatalf("self-stopped after %d fires, want 2", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("self-stopping ticker never stopped")
	}
	fires := tk.Fires()
	time.Sleep(20 * time.Millisecond)
	if tk.Fires() != fires {
		t.Fatal("ticker kept firing after stopping itself")
	}
}

// TestWallTickerRearmsAfterCallback pins the re-arm rule: the next firing is
// scheduled only after the callback returns, so a callback slower than the
// period delays the train — firings never overlap, never stack up behind
// the slow one, and stop for good on Stop.
func TestWallTickerRearmsAfterCallback(t *testing.T) {
	w := NewWall()
	defer w.Close()

	const slow = 20 * time.Millisecond
	var starts []time.Time // loop-confined
	var running, overlapped atomic.Bool
	tk := w.EveryAfter(0, time1ms(), func() {
		if !running.CompareAndSwap(false, true) {
			overlapped.Store(true)
		}
		starts = append(starts, time.Now())
		time.Sleep(slow)
		running.Store(false)
	})
	time.Sleep(5 * slow)
	tk.Stop()
	if tk.Active() {
		t.Fatal("stopped ticker still active")
	}
	var got []time.Time
	w.Do(func() { got = append(got, starts...) })
	fires := tk.Fires()
	if overlapped.Load() {
		t.Fatal("two firings of one ticker overlapped")
	}
	// 100 ms of a 1 ms ticker whose callback takes 20 ms: about five
	// firings, not a hundred.
	if len(got) < 2 || len(got) > 7 {
		t.Fatalf("slow ticker fired %d times in %v, want about %d", len(got), 5*slow, 5)
	}
	if fires != uint64(len(got)) {
		t.Fatalf("Fires() = %d, callback ran %d times", fires, len(got))
	}
	for i := 1; i < len(got); i++ {
		if gap := got[i].Sub(got[i-1]); gap < slow {
			t.Fatalf("firing %d started %v after the previous one, before its %v callback returned", i, gap, slow)
		}
	}
	time.Sleep(2 * slow)
	if tk.Fires() != fires {
		t.Fatal("ticker kept firing after Stop")
	}
}

// TestWallTickerFiringAllocatesNothing guards the per-tick cost of the
// saturated ingest path: a ticker owns one OS timer and one posted func for
// its whole life, so thousands of firings allocate (next to) nothing —
// re-arming used to cost a timer and a closure each.
func TestWallTickerFiringAllocatesNothing(t *testing.T) {
	w := NewWall()
	defer w.Close()

	const fires = 2000
	done := make(chan struct{})
	var ms0, ms1 runtime.MemStats
	var tk Ticker
	w.Do(func() {
		tk = w.EveryAfter(0, sim.Microsecond, func() {
			switch tk.Fires() {
			case 100: // warmed up
				runtime.ReadMemStats(&ms0)
			case 100 + fires:
				runtime.ReadMemStats(&ms1)
				tk.Stop()
				close(done)
			}
		})
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("ticker stalled after %d fires", tk.Fires())
	}
	if perFire := float64(ms1.Mallocs-ms0.Mallocs) / fires; perFire > 0.2 {
		t.Fatalf("ticker allocated %.2f objects per firing, want none", perFire)
	}
}

// TestWallDoAndClose checks Do round-trips and that Close is idempotent and
// releases pending posts.
func TestWallDoAndClose(t *testing.T) {
	w := NewWall()
	v := 0
	w.Do(func() { v = 42 })
	if v != 42 {
		t.Fatalf("Do result %d, want 42", v)
	}
	if now := w.Now(); now < 0 {
		t.Fatalf("negative wall now %v", now)
	}
	w.Close()
	w.Close() // idempotent
	if w.Post(func() {}) {
		t.Fatal("Post after Close should report false")
	}
	// Do after close runs inline.
	v = 0
	w.Do(func() { v = 7 })
	if v != 7 {
		t.Fatal("Do after Close should run inline")
	}
}

// TestWallLoopStats drives the task queue to saturation and checks the
// Post counters: depth/high-water track enqueue pressure, and a Post that
// finds the queue full is counted with the nanoseconds it spent blocked.
func TestWallLoopStats(t *testing.T) {
	w := NewWall()
	defer w.Close()

	if s := w.LoopStats(); s.Posted != 0 || s.BlockedPosts != 0 || s.BlockedNs != 0 {
		t.Fatalf("fresh clock stats = %+v", s)
	}

	// Park the loop on a gated task so nothing drains.
	gate := make(chan struct{})
	parked := make(chan struct{})
	w.Post(func() { close(parked); <-gate })
	<-parked

	// Fill the queue to capacity without blocking.
	capacity := cap(w.tasks)
	for i := 0; i < capacity; i++ {
		w.Post(func() {})
	}
	s := w.LoopStats()
	if s.Posted != int64(capacity)+1 {
		t.Fatalf("Posted = %d, want %d", s.Posted, capacity+1)
	}
	if s.Depth != capacity || s.HighWater != capacity {
		t.Fatalf("Depth/HighWater = %d/%d, want %d/%d", s.Depth, s.HighWater, capacity, capacity)
	}
	if s.BlockedPosts != 0 {
		t.Fatalf("BlockedPosts = %d before saturation overflow", s.BlockedPosts)
	}

	// One more Post must block until the loop drains a slot.
	unblocked := make(chan struct{})
	go func() {
		w.Post(func() {})
		close(unblocked)
	}()
	deadline := time.After(2 * time.Second)
	for w.LoopStats().BlockedPosts == 0 {
		select {
		case <-deadline:
			t.Fatal("overflow Post was never counted as blocked")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(gate) // release the loop; the queue drains, unblocking the Post
	<-unblocked

	// BlockedNs is charged when the blocked Post completes.
	for w.LoopStats().BlockedNs == 0 {
		select {
		case <-deadline:
			t.Fatal("BlockedNs never charged")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	s = w.LoopStats()
	if s.BlockedPosts != 1 {
		t.Fatalf("BlockedPosts = %d, want 1", s.BlockedPosts)
	}
	if s.Posted != int64(capacity)+2 {
		t.Fatalf("Posted = %d, want %d", s.Posted, capacity+2)
	}
}

func time1ms() sim.Time { return sim.Millisecond }
