package clock

import (
	"sync"
	"sync/atomic"
	"time"

	"streamdex/internal/sim"
)

// Wall is the real-time Clock: one sim.Time microsecond equals one wall
// microsecond. It owns a run loop — a single goroutine that executes every
// timer callback and every function handed to Post — so code written for
// the simulator's serialized execution model runs unchanged on it. The
// live transport posts decoded network frames into the same loop, which is
// what makes per-node protocol state lock-free in a real deployment.
type Wall struct {
	epoch time.Time

	tasks chan func()
	quit  chan struct{}
	done  chan struct{}

	closing  atomic.Bool
	quitOnce sync.Once

	// Post saturation counters (atomic; see LoopStats).
	posted       atomic.Int64
	highWater    atomic.Int64
	blockedPosts atomic.Int64
	blockedNs    atomic.Int64
}

// LoopStats is a snapshot of the run loop's task-queue health. The queue is
// 4096 deep and Post blocks silently when it is full; these counters make
// that saturation observable (surfaced by the node's STATS output).
type LoopStats struct {
	Posted       int64 // tasks ever enqueued
	Depth        int   // tasks queued right now
	HighWater    int   // max queue depth observed at enqueue time
	BlockedPosts int64 // Post calls that found the queue full and had to wait
	BlockedNs    int64 // total nanoseconds Post callers spent blocked
}

// LoopStats returns a snapshot of the queue counters. Safe from any
// goroutine.
func (w *Wall) LoopStats() LoopStats {
	return LoopStats{
		Posted:       w.posted.Load(),
		Depth:        len(w.tasks),
		HighWater:    int(w.highWater.Load()),
		BlockedPosts: w.blockedPosts.Load(),
		BlockedNs:    w.blockedNs.Load(),
	}
}

// noteEnqueued updates Posted and HighWater after a successful enqueue.
func (w *Wall) noteEnqueued() {
	w.posted.Add(1)
	depth := int64(len(w.tasks))
	for {
		hw := w.highWater.Load()
		if depth <= hw || w.highWater.CompareAndSwap(hw, depth) {
			return
		}
	}
}

// NewWall creates a wall clock and starts its run loop.
func NewWall() *Wall {
	w := &Wall{
		epoch: time.Now(),
		tasks: make(chan func(), 4096),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go w.loop()
	return w
}

func (w *Wall) loop() {
	defer close(w.done)
	for {
		select {
		case fn := <-w.tasks:
			fn()
		case <-w.quit:
			// Drain tasks already queued so Post callers blocked on a
			// full channel are released, then stop without running them.
			for {
				select {
				case <-w.tasks:
				default:
					return
				}
			}
		}
	}
}

// Now implements Clock: microseconds of wall time since the clock was
// created.
func (w *Wall) Now() sim.Time {
	return sim.Time(time.Since(w.epoch) / time.Microsecond)
}

// Duration converts a sim.Time span to a wall-clock duration.
func Duration(d sim.Time) time.Duration {
	return time.Duration(d) * time.Microsecond
}

// Post enqueues fn onto the run loop and returns immediately. It reports
// false (and drops fn) once the clock is closed. Post blocks only when the
// loop has fallen a full queue behind; it must not be called from inside a
// loop callback in that state, so loop callbacks should call fn directly
// instead of posting to themselves.
func (w *Wall) Post(fn func()) bool {
	if w.closing.Load() {
		return false
	}
	// Fast path: queue has room.
	select {
	case w.tasks <- fn:
		w.noteEnqueued()
		return true
	case <-w.quit:
		return false
	default:
	}
	// Queue full: count the stall and how long it lasts.
	w.blockedPosts.Add(1)
	start := time.Now()
	defer func() { w.blockedNs.Add(time.Since(start).Nanoseconds()) }()
	select {
	case w.tasks <- fn:
		w.noteEnqueued()
		return true
	case <-w.quit:
		return false
	}
}

// Do runs fn on the loop and waits for it to finish. After Close it runs
// fn inline (the loop is gone, so there is nothing to race with). It must
// not be called from inside a loop callback — call fn directly there.
func (w *Wall) Do(fn func()) {
	ran := make(chan struct{})
	if !w.Post(func() { fn(); close(ran) }) {
		fn()
		return
	}
	select {
	case <-ran:
	case <-w.done:
		// Closed while queued; the drain dropped the task.
	}
}

// Close stops the run loop and waits for it to exit. Pending and future
// callbacks are discarded. Close is idempotent.
func (w *Wall) Close() {
	w.closing.Store(true)
	w.quitOnce.Do(func() { close(w.quit) })
	<-w.done
}

// --- timers ----------------------------------------------------------------

const (
	timerPending int32 = iota
	timerFired
	timerCancelled
)

type wallTimer struct {
	w     *Wall
	state atomic.Int32
	t     *time.Timer
}

// Schedule implements Clock. The callback runs on the loop.
func (w *Wall) Schedule(d sim.Time, fn func()) Timer {
	if d < 0 {
		panic("clock: negative delay")
	}
	if fn == nil {
		panic("clock: nil timer function")
	}
	t := &wallTimer{w: w}
	t.t = time.AfterFunc(Duration(d), func() {
		w.Post(func() {
			if t.state.CompareAndSwap(timerPending, timerFired) {
				fn()
			}
		})
	})
	return t
}

// Cancel implements Timer.
func (t *wallTimer) Cancel() bool {
	if t.state.CompareAndSwap(timerPending, timerCancelled) {
		t.t.Stop()
		return true
	}
	return false
}

// Active implements Timer.
func (t *wallTimer) Active() bool { return t.state.Load() == timerPending }

type wallTicker struct {
	w      *Wall
	period sim.Time
	fn     func()
	// run is tk.tick as a func value, built once: posting the method value
	// directly would allocate a closure on every firing.
	run func()

	stopped atomic.Bool
	fires   atomic.Uint64

	mu sync.Mutex
	t  *time.Timer
}

// EveryAfter implements Clock. The callback runs on the loop; as in the
// simulator, the next firing is scheduled only after the callback returns,
// so a slow callback delays the train instead of stacking up. A ticker
// owns one OS timer for its whole life and re-arms it with Reset: firing
// allocates nothing.
func (w *Wall) EveryAfter(initial, period sim.Time, fn func()) Ticker {
	if period <= 0 {
		panic("clock: non-positive ticker period")
	}
	if fn == nil {
		panic("clock: nil ticker function")
	}
	tk := &wallTicker{w: w, period: period, fn: fn}
	tk.run = tk.tick
	tk.mu.Lock()
	tk.t = time.AfterFunc(Duration(initial), func() { w.Post(tk.run) })
	tk.mu.Unlock()
	return tk
}

func (tk *wallTicker) tick() {
	if tk.stopped.Load() {
		return
	}
	tk.fires.Add(1)
	tk.fn()
	// Re-arm only now that fn has returned. The timer has fired, so Reset
	// schedules its func anew; under mu, so a concurrent Stop either sees
	// the re-armed timer and stops it or has set stopped already.
	tk.mu.Lock()
	if !tk.stopped.Load() { // fn may stop its own ticker
		tk.t.Reset(Duration(tk.period))
	}
	tk.mu.Unlock()
}

// Stop implements Ticker.
func (tk *wallTicker) Stop() {
	tk.stopped.Store(true)
	tk.mu.Lock()
	tk.t.Stop()
	tk.mu.Unlock()
}

// Active implements Ticker.
func (tk *wallTicker) Active() bool { return !tk.stopped.Load() }

// Fires implements Ticker.
func (tk *wallTicker) Fires() uint64 { return tk.fires.Load() }

// Compile-time interface checks.
var (
	_ Clock  = (*Wall)(nil)
	_ Timer  = (*wallTimer)(nil)
	_ Ticker = (*wallTicker)(nil)
)
