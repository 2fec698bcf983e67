// Package sim is a minimal deterministic discrete-event simulation engine:
// a virtual clock, a binary-heap event queue with stable FIFO ordering for
// simultaneous events, a seeded RNG, and a FIFO queueing Server primitive.
//
// The engine is single-threaded by design — determinism matters more than
// parallelism for reproducing latency figures — and uses time.Duration as
// virtual time (nanosecond resolution), so results are exact and free of GC
// or scheduler jitter.
package sim

import (
	"container/heap"
	"math/rand"
	"time"
)

// Engine is a discrete-event executor. Create with New.
type Engine struct {
	now    time.Duration
	events eventHeap
	seq    uint64
	rng    *rand.Rand
}

// New returns an engine with its virtual clock at zero and a deterministic
// RNG seeded with seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic RNG. Callers must only use it
// from event callbacks (the engine is single-threaded).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn at absolute virtual time t. Scheduling in the past panics:
// it always indicates a simulation bug.
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		panic("sim: scheduling into the past")
	}
	e.seq++
	heap.Push(&e.events, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn at now+d.
func (e *Engine) After(d time.Duration, fn func()) { e.At(e.now+d, fn) }

// Step executes the earliest pending event, advancing the clock. It reports
// whether an event was executed.
func (e *Engine) Step() bool {
	if e.events.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*event)
	e.now = ev.at
	ev.fn()
	return true
}

// Run executes events until the queue empties or the next event would pass
// `until`, then advances the clock to `until`. It returns the number of
// events executed.
func (e *Engine) Run(until time.Duration) int {
	n := 0
	for e.events.Len() > 0 && e.events[0].at <= until {
		e.Step()
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}

// RunAll executes events until none remain and returns the count. Useful in
// tests; production runs bound time with Run.
func (e *Engine) RunAll() int {
	n := 0
	for e.Step() {
		n++
	}
	return n
}

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq // FIFO among simultaneous events
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
