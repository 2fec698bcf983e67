package emul

// Shared per-device capacity gates. Before this file existed every element
// throttled at its own θd_i/Scale token bucket, so co-resident elements
// could *each* run at full capacity simultaneously — a summed-utilization
// hot spot showed up in the LoadSampler's arithmetic but never as real
// slowdown. The deviceGate inverts that model: one token bucket per device
// instance, denominated in normalized device-seconds, shared by every
// resident element across all hosted chains. A burst of B bytes at an
// element whose scaled capacity is R bytes/s costs B/R seconds of the
// device's budget, and the device accrues exactly 1.0 device-second per
// wall-clock second — so a lone element is capped at its own θd_i (it can
// never consume more than one device-second per second), while Σ demand > 1
// physically collapses every resident's delivered throughput, which is the
// premise PAM reacts to.
//
// The gate is two-tier. The *fast path* keeps the balance in an
// atomic.Int64 of nano-units (1 unit = 1e9 nano-units) and grants an
// uncontended burst with one CAS — no mutex, no condition variable, no
// clock read unless the balance has run dry. Every burst of every chain
// crosses a gate, so this path bounds the whole dataplane's throughput.
// The *slow path* is a FIFO queue of pooled waiter nodes under the mutex:
// takers fall back to it when the balance cannot cover them (token
// exhaustion — the contended regime where fairness matters) or when the
// rate is non-positive (zero-rate parking). Grants are FIFO by queue
// position so co-resident elements share the budget burst-by-burst, and
// wakeups are targeted — a grant signals only the next head, setRate only
// the current one — instead of the historic cond.Broadcast thundering herd
// (O(waiters) spurious wakeups per grant). The nodes and their channels
// come from a sync.Pool, so a saturated gate churning through thousands of
// slow-path grants allocates nothing in steady state; while any waiter is
// queued, the fast path stands down so newcomers cannot barge past the
// queue.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
)

// gateEpoch anchors the gates' monotonic clock: balances accrue against
// time.Since(gateEpoch), which reads the runtime's monotonic clock without
// allocating.
var gateEpoch = time.Now()

// gateNanos is the gates' monotonic clock in nanoseconds.
func gateNanos() int64 { return int64(time.Since(gateEpoch)) }

// nanoUnits converts a unit quantity (device-seconds, link-seconds, bytes —
// the gate is unit-agnostic) into the int64 nano-unit fixed point the fast
// path CASes on. Rounding up means a grant can never admit more than was
// asked cheaper than budgeted — the gate may overcharge by at most one
// nano-unit (1e-9 device-seconds) per burst, never undercharge.
func nanoUnits(n float64) int64 {
	return int64(math.Ceil(n * 1e9))
}

// gate is a token bucket over abstract units (bytes for the legacy
// per-element form, normalized device-seconds for deviceGate, link-seconds
// for dmaGate). take blocks until the requested units are available. Three
// historic bugs remain fixed here and guarded by regression tests:
//
//  1. take with rate == 0 (a gate constructed before its first setRate)
//     divided by zero — time.Duration(+Inf) overflows to a negative sleep,
//     degenerating the wait loop into a busy spin. A non-positive rate now
//     parks the waiter on the slow path's condition until setRate supplies
//     one.
//  2. setRate did not clamp an existing token balance to the new burst: a
//     gate retargeted fast→slow carried the old rate's accumulated tokens
//     and admitted a full old-rate burst before throttling, corrupting the
//     first post-change measurement window.
//  3. Close could hang on workers parked in a zero-rate wait (fixed at the
//     element layer; the gate's park is always wakeable by broadcast).
//
// Invariants the fast path must preserve (see DESIGN §4):
//   - No minting: the balance only grows through refill, and refill is
//     serialized by a CAS on the last-accrual timestamp — exactly one
//     winner credits each elapsed interval, capped at the limit.
//   - FIFO under contention: tryTake declines whenever waiters > 0, so the
//     ticket queue drains in arrival order (modulo the benign race of a
//     taker that passed the waiter check just before the first ticket was
//     issued — bounded to one burst).
//   - Zero-rate and clamp semantics are unchanged: both live behind the
//     slow path and setRate, which the fast path never bypasses (a
//     non-positive rate fails the fast path's rate check).
type gate struct {
	// Fast-path state: everything the uncontended grant touches is atomic.
	balance atomic.Int64  // banked budget, nano-units
	lastAcc atomic.Int64  // gateNanos() at the last refill accrual
	limitN  atomic.Int64  // refill cap, nano-units: the burst, or an oversized head request
	burstN  atomic.Int64  // configured burst, nano-units (limitN's resting value)
	rateB   atomic.Uint64 // math.Float64bits of the rate in units/s
	granted atomic.Int64  // cumulative nano-units granted, net of returned leases
	waiters atomic.Int32  // slow-path FIFO population; fast path stands down when > 0

	mu     sync.Mutex
	seeded bool // first setRate seeds the bucket full

	// FIFO waiter queue: an intrusive list of pooled nodes, head served
	// first. Guarded by mu.
	qHead, qTail *gateWaiter
}

// gateWaiter is one slow-path waiter's parking spot. ready (capacity 1)
// carries both wakeup kinds a waiter can receive: promotion to head when
// the previous head is granted, and a setRate nudge while the head parks on
// a non-positive rate. Nodes recycle through waiterPool; the buffered
// channel makes signals non-blocking and a stale token is drained before
// the node is pooled again.
type gateWaiter struct {
	ready chan struct{}
	next  *gateWaiter
}

// waiterPool recycles slow-path waiter nodes so a contended gate's FIFO
// queue allocates nothing in steady state.
var waiterPool = sync.Pool{
	New: func() any { return &gateWaiter{ready: make(chan struct{}, 1)} },
}

// signal nudges the waiter; a non-blocking send because ready is never
// read-raced by more than its owner and a buffered token is never lost.
func (w *gateWaiter) signal() {
	select {
	case w.ready <- struct{}{}:
	default:
	}
}

// loadRate reads the configured rate without the mutex.
func (g *gate) loadRate() float64 { return math.Float64frombits(g.rateB.Load()) }

// setRate retargets the bucket to rate units/s with the given burst cap.
// The first call seeds the bucket full; later calls clamp any accumulated
// balance to the new burst (bugfix 2) and wake waiters blocked on a zero
// rate or sleeping against the old one (a rate raised mid-wait takes effect
// within maxGateSleep).
//
//pam:slowpath
func (g *gate) setRate(rate, burst float64) {
	g.mu.Lock()
	g.rateB.Store(math.Float64bits(rate))
	bn := nanoUnits(burst)
	g.burstN.Store(bn)
	g.limitN.Store(bn)
	if !g.seeded {
		g.seeded = true
		g.lastAcc.Store(gateNanos())
		g.balance.Store(bn)
	}
	for {
		b := g.balance.Load()
		if b <= bn || g.balance.CompareAndSwap(b, bn) {
			break
		}
	}
	// Only the queue head ever waits on the rate (the rest wait on
	// promotion), so a targeted signal replaces the historic broadcast;
	// a head sleeping against the old rate's deficit re-checks within
	// maxGateSleep on its own.
	if g.qHead != nil {
		g.qHead.signal()
	}
	g.mu.Unlock()
}

// maxGateSleep bounds one throttling sleep so that a rate raised mid-wait
// (a live migration to a faster device) takes effect within milliseconds
// instead of after the full deficit computed at the old rate.
const maxGateSleep = 5 * time.Millisecond

// refill credits the balance with the budget accrued since the last refill,
// capped at the current limit. Lock-free: the CAS on lastAcc elects exactly
// one winner per elapsed interval, so concurrent refills cannot credit the
// same nanoseconds twice (no minting); the balance CAS loop tolerates
// concurrent grants and lease returns.
//
//pam:hotpath
func (g *gate) refill() {
	now := gateNanos()
	last := g.lastAcc.Load()
	if now <= last || !g.lastAcc.CompareAndSwap(last, now) {
		return
	}
	rate := g.loadRate()
	if rate <= 0 {
		return // the interval accrues nothing; rate checks park takers
	}
	lim := g.limitN.Load()
	for {
		b := g.balance.Load()
		if b >= lim {
			return
		}
		// Float math bounds the credit before it meets int64: a gate idle
		// for hours at a high unit rate must saturate at the limit, not
		// overflow.
		nb := float64(b) + rate*float64(now-last)
		if nb > float64(lim) {
			nb = float64(lim)
		}
		if g.balance.CompareAndSwap(b, int64(nb)) {
			return
		}
	}
}

// casTake debits need nano-units iff the balance covers them.
//
//pam:hotpath
func (g *gate) casTake(need int64) bool {
	for {
		b := g.balance.Load()
		if b < need {
			return false
		}
		if g.balance.CompareAndSwap(b, b-need) {
			return true
		}
	}
}

// tryTake is the lock-free fast path: grant need nano-units now or report
// false. It declines whenever FIFO waiters are queued (fairness: newcomers
// must not barge past the ticket queue) or the rate is non-positive
// (zero-rate parking lives on the slow path). The clock is read only when
// the banked balance has run dry — the steady-state grant is balance check,
// CAS, grant counter: three uncontended atomics.
//
//pam:hotpath
func (g *gate) tryTake(need int64) bool {
	if g.waiters.Load() != 0 || g.loadRate() <= 0 {
		return false
	}
	if g.casTake(need) {
		g.granted.Add(need)
		return true
	}
	g.refill()
	if g.casTake(need) {
		g.granted.Add(need)
		return true
	}
	return false
}

// take blocks until n units of budget are available: the CAS fast path when
// the banked balance covers the burst, the FIFO slow path on exhaustion.
// Requests larger than the configured burst (a big batch at a slow device)
// are still admissible: the slow path raises the refill cap to the request
// size while it is at the head of the queue.
func (g *gate) take(n float64) {
	if n <= 0 {
		return
	}
	g.takeNanos(nanoUnits(n))
}

// takeNanos is take in the fixed-point form the lease machinery uses.
//
//pam:hotpath
func (g *gate) takeNanos(need int64) {
	if need <= 0 {
		return
	}
	if g.tryTake(need) {
		return
	}
	g.slowTake(need)
}

// slowTake is the contended path: a FIFO queue of pooled waiter nodes
// under the mutex, bounded sleeps against the deficit, parking on the
// node's channel while not yet at the head or while the rate is
// non-positive (bugfix 1). Token accounting still goes through the shared
// atomic balance, so the fast and slow paths can never double-spend.
// Wakeups are targeted: the grant promotes exactly the next waiter and
// setRate nudges exactly the head, so a grant is O(1) regardless of queue
// population. A stale token on the node's channel (a setRate nudge that
// raced a grant, say) at worst causes one spurious loop iteration and is
// drained before the node returns to the pool.
//
//pam:slowpath
func (g *gate) slowTake(need int64) {
	w := waiterPool.Get().(*gateWaiter)
	g.mu.Lock()
	g.waiters.Add(1)
	if g.qTail == nil {
		g.qHead, g.qTail = w, w
	} else {
		g.qTail.next = w
		g.qTail = w
	}
	for g.qHead != w {
		g.mu.Unlock()
		<-w.ready
		g.mu.Lock()
	}
	for {
		for g.loadRate() <= 0 {
			g.mu.Unlock()
			<-w.ready // setRate signals the head
			g.mu.Lock()
		}
		// An oversized request (need > burst) raises the refill cap while
		// it is being served; only the FIFO head mutates limitN, and the
		// grant below restores it.
		if need > g.limitN.Load() {
			g.limitN.Store(need)
		}
		g.refill()
		if g.casTake(need) {
			g.granted.Add(need)
			if bn := g.burstN.Load(); need > bn {
				g.limitN.Store(bn)
			}
			g.qHead = w.next
			if g.qHead == nil {
				g.qTail = nil
			} else {
				g.qHead.signal() // promote the next waiter
			}
			g.waiters.Add(-1)
			g.mu.Unlock()
			w.next = nil
			select { // drain a stale nudge before pooling the node
			case <-w.ready:
			default:
			}
			waiterPool.Put(w)
			return
		}
		deficit := need - g.balance.Load()
		wait := time.Duration(float64(deficit) / g.loadRate())
		if wait > maxGateSleep || wait <= 0 {
			wait = maxGateSleep
		}
		g.mu.Unlock()
		time.Sleep(wait)
		g.mu.Lock()
	}
}

// returnNanos banks an unused lease remainder back into the balance, capped
// at the current limit (tokens above the cap are forfeited, never minted),
// and credits the grant counter by exactly the amount banked — so
// grantedUnits stays an upper bound on real accrual and, once every lease
// is returned, an exact account of budget actually consumed. Lock-free; a
// FIFO waiter sleeping against an empty bucket re-checks the balance within
// maxGateSleep.
//
//pam:hotpath
func (g *gate) returnNanos(n int64) {
	if n <= 0 {
		return
	}
	var banked int64
	for {
		b := g.balance.Load()
		room := g.limitN.Load() - b
		if room <= 0 {
			return
		}
		banked = n
		if banked > room {
			banked = room
		}
		if g.balance.CompareAndSwap(b, b+banked) {
			break
		}
	}
	g.granted.Add(-banked)
}

// grantedUnits returns the cumulative units granted so far, net of returned
// leases; the LoadSampler differences it between windows into a grant rate.
func (g *gate) grantedUnits() float64 {
	return float64(g.granted.Load()) / 1e9
}

// leaseDiv sets the lease quantum: each worker's local bank is at most
// burst/(leaseDiv·residents), so even with every resident worker holding a
// full lease the outstanding budget stays a fraction of the fairness burst
// and a newly contended gate reaches the FIFO path within one quantum.
const leaseDiv = 8

// deviceGate is one emulated device instance's shared capacity: a gate in
// normalized device-seconds at a fixed rate of 1.0 (one device-second per
// wall-clock second — Config.Scale is already folded into each element's
// byte rate, so no further scaling applies here). Elements attach on
// placement and re-attach on live migration; attach/detach is pure
// bookkeeping and never creates or destroys banked budget, so a migration
// freeze cannot leak device time.
type deviceGate struct {
	kind device.Kind
	gate
	residents atomic.Int32
}

// deviceBurst is each shared gate's fairness burst — the device gates' and
// the DMA engine's — expressed as bankable device time. An idle device
// accumulates up to this much budget, so a fresh burst is admitted
// immediately; under contention it bounds how long one element can
// monopolize the device between grants. DESIGN.md §5 calibrates the
// scenarios' windows against it.
const deviceBurst = 10 * time.Millisecond

// newDeviceGate builds the gate for one device instance.
func newDeviceGate(kind device.Kind) *deviceGate {
	dg := &deviceGate{kind: kind}
	dg.setRate(1.0, deviceBurst.Seconds())
	return dg
}

func (dg *deviceGate) attach()       { dg.residents.Add(1) }
func (dg *deviceGate) detach()       { dg.residents.Add(-1) }
func (dg *deviceGate) resident() int { return int(dg.residents.Load()) }

// drawLease grants need nano-units plus a small lease quantum the calling
// worker banks locally and charges later bursts against without touching
// the gate — the amortization that makes the steady uncontended path free
// of shared-memory traffic. Strictly non-blocking and fast-path-only: under
// contention (waiters queued, balance dry) it declines entirely so the
// caller falls back to the blocking FIFO take and fairness is preserved.
//
// Leases are drawn only while the bucket is healthy: the draw must leave at
// least half the burst banked. Near saturation a pocketed lease would let a
// worker serve bursts out of tokens granted in an earlier telemetry window,
// smoothing the very collapse the shared gate exists to produce (and
// spiking served/θ past the window's grants) — so an unhealthy bucket
// degrades to per-burst grants with exactly the pre-lease FIFO dynamics.
// The balance check races with concurrent takers, but it only ever errs by
// declining a lease or dipping one quantum past the watermark: no tokens
// are minted either way.
//
// extra is the lease actually drawn (0 when only the burst itself fit).
//
//pam:hotpath
func (dg *deviceGate) drawLease(need int64) (extra int64, ok bool) {
	res := int64(dg.residents.Load())
	if res < 1 {
		res = 1
	}
	quantum := dg.burstN.Load() / (leaseDiv * res)
	if quantum > 0 && dg.balance.Load() >= need+quantum+dg.burstN.Load()/2 &&
		dg.tryTake(need+quantum) {
		return quantum, true
	}
	if dg.tryTake(need) {
		return 0, true
	}
	return 0, false
}

// newDeviceGates builds the runtime's registry: one shared gate per device
// kind. All kinds are materialized upfront so a live migration can target a
// device no element started on. The list comes from device.Kinds — the
// registry used to hard-code three kinds, so a kind added to the device
// package was silently absent here and the first placement on it
// dereferenced a nil gate.
func newDeviceGates() map[device.Kind]*deviceGate {
	gates := make(map[device.Kind]*deviceGate, len(device.Kinds()))
	for _, k := range device.Kinds() {
		gates[k] = newDeviceGate(k)
	}
	return gates
}

// UnknownDeviceKindError reports a placement or migration that targets a
// device kind the gate registry does not carry — a kind outside
// device.Kinds. Callers get a typed error instead of a nil-gate panic.
type UnknownDeviceKindError struct {
	Kind device.Kind
}

// Error implements error.
func (e *UnknownDeviceKindError) Error() string {
	return fmt.Sprintf("emul: no capacity gate for device kind %v (known kinds: %v)", e.Kind, device.Kinds())
}
