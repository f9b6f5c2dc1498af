package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The build host is a slice of a shared machine whose speed changes under
// the benchmark: a fixed single-threaded loop takes 80, 100 or 118 ms from
// one second to the next, and a run's CPU-bound numbers move with it by
// ±10-20 % whatever the program does (README, "Noise"). The calibrator
// measures that factor while the window is open, so that the CPU-bound
// metrics can be reported at one reference speed.
//
// Every calPeriod a thread of its own runs one fixed burst of float
// arithmetic (under 1 ms, 1.5 % of one CPU) and records the thread CPU time
// it took; slowdown(from, to) is the mean burst time in the interval over
// calRefNs. Thread CPU time leaves out the time the thread was preempted by
// the ring's own threads and keeps what a slower CPU adds.
const (
	calPeriod = 50 * time.Millisecond
	calSpins  = 3000
	// calRefNs is the burst's time on the build host at its median speed
	// (6 × 10 runs of every workload). It only fixes the scale.
	calRefNs = 775_000
)

type calibrator struct {
	stop, done chan struct{}
	stopOnce   sync.Once
	at         []int64   // nowNs at the end of each burst
	burstNs    []float64 // its thread CPU time
}

// threadCPUNs reads CLOCK_THREAD_CPUTIME_ID. getrusage(RUSAGE_THREAD) will
// not do: the kernel answers it from a reading up to a scheduler tick old.
func threadCPUNs() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec)*1e9 + float64(ts.Nsec)
}

func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	go c.run()
	return c
}

func (c *calibrator) run() {
	runtime.LockOSThread() // the CPU clock read is this thread's
	defer close(c.done)
	x := make([]float64, windowSize)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.1)
	}
	t := time.NewTicker(calPeriod)
	defer t.Stop()
	var acc float64
	for {
		select {
		case <-c.stop:
			keep(uint64(acc))
			return
		case <-t.C:
		}
		start := threadCPUNs()
		for i := 0; i < calSpins; i++ {
			for k := 0; k < windowSize; k += 8 {
				acc += x[k] * math.Cos(float64(i+k))
			}
		}
		c.burstNs = append(c.burstNs, threadCPUNs()-start)
		c.at = append(c.at, nowNs())
	}
}

// close stops the calibrator; slowdown may be called only afterwards.
func (c *calibrator) close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// slowdown returns how much slower than the reference the host ran between
// from and to (1.1: everything CPU-bound took 10 % longer), and the number
// of bursts behind the figure. With no burst in the interval it returns 1.
func (c *calibrator) slowdown(from, to int64) (float64, int) {
	var sum float64
	n := 0
	for i, at := range c.at {
		if at >= from && at <= to {
			sum += c.burstNs[i]
			n++
		}
	}
	if n == 0 {
		return 1, 0
	}
	return sum / float64(n) / calRefNs, n
}
