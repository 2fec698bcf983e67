package main

import (
	"encoding/binary"
	"sync/atomic"
	"time"
)

// epoch anchors the bench clock; every timestamp in the harness is
// nanoseconds since it, read from the monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// A stamped frame carries its due time in the last stampLen bytes of the
// payload: a two-byte magic then the due time in bench-clock nanoseconds.
// Ten bytes is what the smallest workload frame (64 B TCP) has as payload.
// Unstamped frames keep the synthesizer's payload pattern there, whose
// consecutive bytes differ by one and so never match the magic.
const (
	stampLen    = 10
	stampMagic0 = 0xA5
	stampMagic1 = 0x5A
)

func putStamp(frame []byte, due int64) {
	t := frame[len(frame)-stampLen:]
	t[0], t[1] = stampMagic0, stampMagic1
	binary.LittleEndian.PutUint64(t[2:], uint64(due))
}

func readStamp(frame []byte) (due int64, ok bool) {
	if len(frame) < stampLen {
		return 0, false
	}
	t := frame[len(frame)-stampLen:]
	if t[0] != stampMagic0 || t[1] != stampMagic1 {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(t[2:])), true
}

// latSample is one stamped frame seen at egress: when, and how long after
// its due time.
type latSample struct{ at, lat int64 }

// latencyTap collects egress-minus-due latencies from the runtime's egress
// tap, which pool workers call concurrently: a preallocated buffer indexed
// by an atomic counter, so recording is one add and one store. It counts
// every stamped frame and records one in every: the closed loops deliver
// 160k stamped frames a second, and thirty seconds of those would be more
// resident memory than the system under test has.
type latencyTap struct {
	buf   []latSample
	every int64
	n     atomic.Int64
}

// newLatencyTap makes a tap that records one stamped frame in every, up to
// capacity of them. The buffer is written once here so its pages are
// resident before any window starts and rss_mb does not climb as the tap
// fills.
func newLatencyTap(capacity, every int) *latencyTap {
	l := &latencyTap{buf: make([]latSample, capacity), every: int64(every)}
	for i := range l.buf {
		l.buf[i].at = 1
	}
	return l
}

// observe is the emul egress tap.
func (l *latencyTap) observe(_ int, frame []byte) {
	due, ok := readStamp(frame)
	if !ok {
		return
	}
	i := l.n.Add(1) - 1
	if i%l.every != 0 {
		return
	}
	if i /= l.every; int(i) < len(l.buf) {
		now := nowNs()
		l.buf[i] = latSample{at: now, lat: now - due}
	}
}

// seen is how many stamped frames have reached the tap since the last reset.
func (l *latencyTap) seen() int64 { return l.n.Load() }

// reset discards everything recorded so far (called after warm-up, with the
// pipeline drained).
func (l *latencyTap) reset() { l.n.Store(0) }

// samples returns what was recorded, in arrival order per worker.
func (l *latencyTap) samples() []latSample {
	n := int((l.n.Load() + l.every - 1) / l.every)
	if n > len(l.buf) {
		n = len(l.buf)
	}
	return l.buf[:n]
}

// latencyStats summarises tap samples. Each whole second of the window gets
// its own p50, p90 and p99, and the run's figure is fastSide of those, so a
// stall that hits a few seconds in ten — the sandbox descheduling the
// process for tens of milliseconds — does not decide the run's tail, while a
// tail that is there every second does. all holds every latency in µs,
// sorted.
type latencyStats struct {
	p50, p90, p99 float64
	slices        int
	all           []float64
}

func summarize(samples []latSample, start int64) latencyStats {
	st := latencyStats{all: make([]float64, len(samples))}
	bySec := map[int64][]float64{}
	for i, s := range samples {
		us := float64(s.lat) / 1e3
		st.all[i] = us
		sec := (s.at - start) / int64(time.Second)
		bySec[sec] = append(bySec[sec], us)
	}
	st.all = sorted(st.all)
	var p50s, p90s, p99s []float64
	for _, v := range bySec {
		if len(v) < 1000 { // a partial second (the window's end, the drain)
			continue
		}
		v = sorted(v)
		p50s, p90s, p99s = append(p50s, quantile(v, 0.5)), append(p90s, quantile(v, 0.9)), append(p99s, quantile(v, 0.99))
	}
	if st.slices = len(p50s); st.slices == 0 {
		st.p50, st.p90, st.p99 = quantile(st.all, 0.5), quantile(st.all, 0.9), quantile(st.all, 0.99)
		return st
	}
	st.p50, st.p90, st.p99 = fastSide(p50s, false), fastSide(p90s, false), fastSide(p99s, false)
	return st
}
