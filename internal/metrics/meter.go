package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Meter accumulates packet and byte counts over a measurement interval and
// converts them to rates. Time is supplied by the caller (virtual simulator
// time or wall-clock), which keeps the meter usable from both the
// discrete-event simulator and the live emulator. Safe for concurrent use.
type Meter struct {
	packets atomic.Uint64
	bytes   atomic.Uint64
	drops   atomic.Uint64

	mu    sync.Mutex
	start time.Duration // virtual time at Reset/creation
	end   time.Duration // last observed virtual time
}

// NewMeter returns a meter whose interval starts at the given virtual time.
func NewMeter(start time.Duration) *Meter {
	return &Meter{start: start, end: start}
}

// Observe records a delivered packet of size bytes at virtual time now.
func (m *Meter) Observe(bytes int, now time.Duration) {
	m.packets.Add(1)
	m.bytes.Add(uint64(bytes))
	m.mu.Lock()
	if now > m.end {
		m.end = now
	}
	m.mu.Unlock()
}

// ObserveN records a burst of packets delivered together at virtual time
// now: one atomic add per counter for the whole burst, the batched hot-path
// variant of Observe used by the burst dataplane.
func (m *Meter) ObserveN(packets, bytes uint64, now time.Duration) {
	if packets == 0 {
		return
	}
	m.packets.Add(packets)
	m.bytes.Add(bytes)
	m.mu.Lock()
	if now > m.end {
		m.end = now
	}
	m.mu.Unlock()
}

// Drop records a dropped packet at virtual time now.
func (m *Meter) Drop(now time.Duration) {
	m.drops.Add(1)
	m.mu.Lock()
	if now > m.end {
		m.end = now
	}
	m.mu.Unlock()
}

// DropN records a burst of n packets dropped together at virtual time now.
func (m *Meter) DropN(n uint64, now time.Duration) {
	if n == 0 {
		return
	}
	m.drops.Add(n)
	m.mu.Lock()
	if now > m.end {
		m.end = now
	}
	m.mu.Unlock()
}

// Packets returns the number of delivered packets.
func (m *Meter) Packets() uint64 { return m.packets.Load() }

// Bytes returns the number of delivered bytes.
func (m *Meter) Bytes() uint64 { return m.bytes.Load() }

// Drops returns the number of dropped packets.
func (m *Meter) Drops() uint64 { return m.drops.Load() }

// Elapsed returns the observed measurement interval.
func (m *Meter) Elapsed() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.end - m.start
}

// Gbps returns the delivered goodput in gigabits per second over the
// observed interval, or 0 if the interval is empty.
func (m *Meter) Gbps() float64 {
	el := m.Elapsed()
	if el <= 0 {
		return 0
	}
	return float64(m.bytes.Load()) * 8 / el.Seconds() / 1e9
}

// PPS returns delivered packets per second over the observed interval.
func (m *Meter) PPS() float64 {
	el := m.Elapsed()
	if el <= 0 {
		return 0
	}
	return float64(m.packets.Load()) / el.Seconds()
}

// LossRate returns drops/(drops+delivered), or 0 when nothing was offered.
func (m *Meter) LossRate() float64 {
	d := m.drops.Load()
	p := m.packets.Load()
	if d+p == 0 {
		return 0
	}
	return float64(d) / float64(d+p)
}

// Reset clears counters and restarts the interval at virtual time now.
func (m *Meter) Reset(now time.Duration) {
	m.packets.Store(0)
	m.bytes.Store(0)
	m.drops.Store(0)
	m.mu.Lock()
	m.start = now
	m.end = now
	m.mu.Unlock()
}

// String summarizes the meter for logs.
func (m *Meter) String() string {
	return fmt.Sprintf("pkts=%d drops=%d rate=%.3fGbps loss=%.1f%%",
		m.Packets(), m.Drops(), m.Gbps(), m.LossRate()*100)
}

// Counter is a simple atomic counter with a name, used for NF statistics.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v.Store(0) }

// Point is a single (time, value) observation in a TimeSeries.
type Point struct {
	T time.Duration
	V float64
}

// TimeSeries is an append-only sequence of timestamped observations, used to
// trace device utilization and chain throughput across a simulation run.
// Safe for concurrent appends.
type TimeSeries struct {
	mu  sync.Mutex
	pts []Point
}

// Append adds an observation.
func (ts *TimeSeries) Append(t time.Duration, v float64) {
	ts.mu.Lock()
	ts.pts = append(ts.pts, Point{T: t, V: v})
	ts.mu.Unlock()
}

// Points returns a copy of all observations in insertion order.
func (ts *TimeSeries) Points() []Point {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	cp := make([]Point, len(ts.pts))
	copy(cp, ts.pts)
	return cp
}

// Len returns the number of observations.
func (ts *TimeSeries) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.pts)
}

// Last returns the most recent observation and true, or a zero Point and
// false when the series is empty.
func (ts *TimeSeries) Last() (Point, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.pts) == 0 {
		return Point{}, false
	}
	return ts.pts[len(ts.pts)-1], true
}
