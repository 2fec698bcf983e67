package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/emul"
)

const (
	// pollEvery is the control plane's sampling period (the canonical
	// LiveParams.PollEvery): the sender runs the workload's poll hook at
	// this period, as a live deployment's control loop would.
	pollEvery = 25 * time.Millisecond
	// sendSpanEvery samples the traced run's per-SendChain spans: one in
	// this many, so spans stay in memory at over a million sends a second.
	// Prime, so the sampled sends fall anywhere in a tick (one in 64 would
	// time the first send of every 64-frame tick, the one that wakes the
	// workers: 13.5 µs instead of 0.4).
	sendSpanEvery = 61
)

// load is one window of generated load, sent by the calling goroutine — the
// harness's single sender.
type load struct {
	window time.Duration
	// rate is the open-loop offered rate in frames per second; zero selects
	// the closed loop, which offers the next frame as soon as the previous
	// one is accepted: as fast as inFlightCap lets it, or, without one, as
	// backpressure does.
	rate int
	// tick is the open loop's pacing period: every tick the frames that fell
	// due since the last one are sent back to back, all stamped with the
	// tick's due time.
	tick time.Duration
	// stampEvery stamps one frame in this many with its due time.
	stampEvery uint64
	// prep builds frame k (acquire, copy the template) and says where it
	// goes; offer hands it to the system under test.
	prep  func(k uint64) (route int, frame []byte)
	offer func(route int, frame []byte) bool
	// refused, when set, takes back the buffer of a frame the open loop's
	// offer rejected, and the frame counts as failed. When nil the open loop
	// holds a rejected frame and offers it again, as the closed loop does:
	// the frame is late, not lost, and its latency still runs from its due
	// time.
	refused func(frame []byte)
	// stampedSeen, when set, returns how many stamped frames have left the
	// system; the sender then holds a stamped frame back while inFlightCap
	// or more frames are still inside. It is the closed loop's client count,
	// and below the ingress rings' space it keeps an open loop from
	// overflowing a ring however long a stall the sender catches up from.
	stampedSeen func() int64
	inFlightCap int
	// onPoll runs every pollEvery, onSecond every second of the window.
	onPoll   func()
	onSecond func()
	tr       *tracer
}

// loadStats is what the sender saw.
type loadStats struct {
	sent     uint64  // distinct frames offered
	refused  uint64  // open loop: frames the ingress rejected
	attempts uint64  // offer calls, retries included
	held     uint64  // yields spent waiting under the in-flight cap
	late     []int64 // open loop: how late each tick started, ns
	elapsed  time.Duration
}

// rejectRatio is the share of offer calls the ingress turned down:
// backpressure retries, or refusals where the workload counts them as failed.
func (st loadStats) rejectRatio() float64 {
	return float64(st.attempts-st.sent+st.refused) / float64(st.attempts)
}

// lateP99 is the 99th percentile of how late the pacer started a tick, µs.
func (st loadStats) lateP99() float64 { return quantile(sorted(scaled(st.late, 1e3)), 0.99) }

// spares holds the buffers of frames the ingress refused, which stay with the
// caller; frame reuses them before drawing on the runtime's pool.
type spares [][]byte

func (s *spares) put(f []byte) { *s = append(*s, f) }

// frame returns a pooled buffer holding a copy of the template.
func (s *spares) frame(rt *emul.Runtime, tmpl []byte) []byte {
	var f []byte
	if n := len(*s); n > 0 {
		f, *s = (*s)[n-1][:len(tmpl)], (*s)[:n-1]
	} else {
		f = rt.AcquireFrame(len(tmpl))
	}
	copy(f, tmpl)
	return f
}

func (l *load) run() loadStats {
	var st loadStats
	start := nowNs()
	end := start + int64(l.window)
	nextPoll, nextSec := start+int64(pollEvery), start+int64(time.Second)
	hooks := func(now int64) {
		for now >= nextPoll {
			if l.onPoll != nil {
				l.onPoll()
			}
			nextPoll += int64(pollEvery)
		}
		for now >= nextSec {
			if l.onSecond != nil {
				l.onSecond()
			}
			nextSec += int64(time.Second)
		}
	}
	var stamped int64
	send := func(k uint64, due int64) bool {
		route, f := l.prep(k)
		if l.stampEvery > 0 && k%l.stampEvery == 0 {
			if l.stampedSeen != nil {
				for (stamped-l.stampedSeen())*int64(l.stampEvery) >= int64(l.inFlightCap) {
					st.held++
					runtime.Gosched()
				}
			}
			stamped++
			putStamp(f, due)
		}
		for {
			st.attempts++
			var ok bool
			if l.tr != nil && k%sendSpanEvery == 0 {
				s := l.tr.begin("emul.send", -1, int64(k))
				ok = l.offer(route, f)
				l.tr.end(s)
			} else {
				ok = l.offer(route, f)
			}
			if ok {
				return true
			}
			if l.refused != nil {
				l.refused(f)
				return false
			}
			runtime.Gosched() // ingress full: the sender waits its turn
		}
	}

	if l.rate == 0 {
		// Closed loop. The clock is read once per stamped frame, which also
		// paces the hooks and the end-of-window check.
		every := l.stampEvery
		if every == 0 {
			every = 16
		}
		now := start
		for k := uint64(0); ; k++ {
			if k%every == 0 {
				if now = nowNs(); now >= end {
					break
				}
				hooks(now)
			}
			send(k, now)
			st.sent++
		}
		st.elapsed = time.Duration(nowNs() - start)
		return st
	}

	// Open loop: frame k is due at tick k*tick*rate/1s; a tick that starts
	// late still sends everything that fell due, so a stall shows as latency
	// on the stalled frames and is reported as generator lateness.
	var k uint64
	st.late = make([]int64, 0, int(l.window/l.tick)+1)
	for t := int64(1); ; t++ {
		due := start + t*int64(l.tick)
		if due > end {
			break
		}
		for nowNs() < due {
		}
		st.late = append(st.late, nowNs()-due)
		owed := uint64(t * int64(l.tick) * int64(l.rate) / int64(time.Second))
		for ; k < owed; k++ {
			if !send(k, due) {
				st.refused++
			}
			st.sent++
		}
		hooks(due)
		// Yield once per tick so the workers just woken run at once on this
		// processor, then wait for the next tick without yielding: on two
		// processors a sender that yields in its wait loop thrashes the
		// scheduler into multi-millisecond stalls, and Go's sleep rounds a
		// sub-millisecond wait up to a millisecond.
		runtime.Gosched()
	}
	st.elapsed = time.Duration(nowNs() - start)
	return st
}

// every calls fn(i) at start+i*period, plus a seeded random offset within a
// millisecond, for i = 1, 2, … while that instant is before the end of the
// window; it is the body of the harness's control goroutine. It sleeps to
// within two milliseconds of the instant and yields its way through the
// rest. Waking straight from a sleep would not do: with the sender spinning,
// Go fires timers where the sender yields — just after a tick's frames went
// in — so in some runs every control operation would meet frames in flight
// and in others none would (fleet handoffs: 0.25 ms or 2.3 ms, by the run).
func every(period, window time.Duration, seed int64, fn func(i int)) {
	rng := rand.New(rand.NewSource(seed))
	start := nowNs()
	for i := 1; ; i++ {
		at := start + int64(i)*int64(period)
		if at >= start+int64(window) {
			return
		}
		at += rng.Int63n(int64(time.Millisecond))
		if d := at - nowNs() - int64(2*time.Millisecond); d > 0 {
			time.Sleep(time.Duration(d))
		}
		for nowNs() < at {
			runtime.Gosched()
		}
		fn(i)
	}
}
