// Package emul is the execution-based emulation runtime: real serialized
// frames flow through the real NF implementations (internal/nf) on a
// run-to-completion worker pool, throttled by one shared capacity gate per
// emulated device — a token bucket in normalized device-seconds that
// reproduces both the Table-1 capacity asymmetry between SmartNIC and CPU
// and the paper's linear contention model (co-resident vNFs whose summed
// demand exceeds the device budget physically collapse each other's
// throughput) — with PCIe crossings drawing on one shared DMA-engine budget
// in link-seconds (so simultaneous crossings contend for the interconnect
// just as co-resident vNFs contend for a device) and live UNO-style
// migration (freeze → state transfer → restore → replay) while traffic
// flows.
//
// The dataplane is batch-granular, in the style of a DPDK burst loop.
// Config.Workers pool goroutines (default GOMAXPROCS) each own a stable
// subset of per-(element, shard) lock-free MPSC ring queues and poll them
// in round-robin, draining up to Config.BatchSize frames per visit. A burst
// shares one token-bucket transaction, one PCIe propagation charge, and one
// ProcessBatch call; when the burst's survivors continue to a successor
// element whose shard the same worker owns and whose ring is empty, they are
// processed run-to-completion in the same visit, with no re-queue hop —
// across a PCIe crossing too, which the carried burst pays for exactly as a
// popped one does.
// Frames are distributed to shards by an RSS-style flow hash, so per-flow
// FIFO order is preserved end to end. With Config.PoolFrames, delivered and
// dropped frame buffers are recycled into the pool AcquireFrame draws from:
// each worker fills a 32-buffer magazine of its own and trades it with the
// pool when full (packet.FramePool), and NF verdicts for a burst without a
// drop are a shared read-only slice, so steady-state emulation allocates
// nothing per frame.
//
// One runtime hosts N service chains sharing the same emulated SmartNIC and
// CPU — the multi-tenant setting of a real NFV server. Each chain owns its
// elements, its ingress (SendChain) and its egress accounting; devices are
// shared *physically*: every element resident on a device draws on that
// device's one capacity gate, so a summed-demand hot spot slows every
// co-resident tenant down, and the control plane's LoadSampler reports
// both the offered demand (which keeps climbing) and the granted share
// (which the gate caps) per device across chains. Migration is
// chain-scoped: a push-aside freezes only the migrating element's rings,
// so every other tenant keeps forwarding — even tenants whose rings are
// polled by the same pool worker — while one tenant's vNF moves across
// PCIe and re-attaches to its new device's gate.
//
// The emulator complements the discrete-event simulator: chainsim produces
// the paper's figures with virtual-clock precision; emul demonstrates that
// the same control decisions work against actual packet-processing code
// with actual migratable state. Rates are scaled down by Config.Scale so a
// development machine can saturate the emulated devices.
package emul

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chain"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/migrate"
	"repro/internal/nf"
	"repro/internal/packet"
	"repro/internal/pcie"
)

// Config parameterizes a Runtime.
type Config struct {
	// Chains hosts the tenants' service chains on the same emulated
	// SmartNIC+CPU pair. Chain names must be unique; element names must be
	// unique within a chain (and should be unique across chains so that
	// Migrate-by-name stays unambiguous).
	Chains  []*chain.Chain
	Catalog device.Catalog
	// Link models PCIe crossings. Every crossing burst draws
	// PropDelay + scaled serialization from the runtime's one shared
	// DMA-engine budget (see dmagate.go), so concurrent crossings contend
	// for the link instead of each seeing it unloaded; a zero Link makes
	// crossings free. SleepPCIe additionally sleeps the unloaded latency.
	Link pcie.Link
	// Scale divides catalog rates so the host can saturate them: an NF with
	// θ = 2 Gbps and Scale = 1000 is throttled to 2 Mbps. Default 1000.
	Scale float64
	// QueueDepth bounds each NF's input queue in frames (default 256); the
	// queue doubles as the migration freeze buffer. Sharded elements split
	// the depth across their shards; each shard's ring rounds its share up
	// to the next power of two (minimum 8).
	QueueDepth int
	// BatchSize caps how many frames a worker drains and processes per ring
	// visit (default 32, clamped to QueueDepth). The burst shares one
	// token-bucket transaction, one PCIe propagation charge and one
	// ProcessBatch call.
	BatchSize int
	// Workers sizes the run-to-completion worker pool: this many goroutines
	// total serve every element of every hosted chain (default GOMAXPROCS).
	// An element whose NF reports ConcurrencySafe is sharded into Workers
	// flow-hash shards, shard i owned by pool worker i; a non-safe element
	// keeps a single shard, owned by worker chainIndex mod Workers so
	// single-shard tenants spread across the pool. Frames are assigned to
	// shards by flow-key hash, preserving per-flow FIFO order.
	Workers int
	// PoolFrames recycles every delivered or dropped frame's buffer into
	// the runtime's frame pool. Callers should then obtain frames with
	// AcquireFrame and must not retain frames in an egress tap beyond the
	// call. Off by default: frames are left to the GC.
	PoolFrames bool
	// SleepPCIe enables real sleeps for the unloaded PCIe crossing latency
	// on top of the shared DMA-engine charge (which models occupancy and
	// contention, not the latency floor). Off, crossings cost only their
	// engine budget.
	SleepPCIe bool
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Chains) == 0 {
		return c, errors.New("emul: no chains")
	}
	names := make(map[string]bool, len(c.Chains))
	for i, ch := range c.Chains {
		if ch == nil {
			return c, fmt.Errorf("emul: chain %d is nil", i)
		}
		if err := ch.Validate(); err != nil {
			return c, err
		}
		if len(c.Chains) > 1 && names[ch.Name] {
			return c, fmt.Errorf("emul: duplicate chain name %q", ch.Name)
		}
		names[ch.Name] = true
	}
	if c.Catalog == nil {
		return c, errors.New("emul: nil catalog")
	}
	// chainsim validates its link up front; the emulator historically did
	// not, silently accepting a negative PropDelay or bandwidth that later
	// produced negative sleeps and negative gate costs.
	if err := c.Link.Validate(); err != nil {
		return c, fmt.Errorf("emul: %w", err)
	}
	if c.Scale <= 0 {
		c.Scale = 1000
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.BatchSize > c.QueueDepth {
		c.BatchSize = c.QueueDepth
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c, nil
}

// job is one frame in flight.
type job struct {
	frame    []byte
	hash     uint64 // RSS-style flow hash, computed once at ingress
	ingress  time.Duration
	crossing bool // the frame crossed PCIe to reach this element
}

// tenantChain is one hosted service chain: its elements, its egress
// accounting, and its ingress counters. Chains share the runtime's emulated
// devices but nothing else — freezing one chain's element never blocks
// another chain's traffic.
type tenantChain struct {
	idx   int
	name  string
	spec  *chain.Chain
	elems []*element

	latency *metrics.Histogram
	// meter carries egress deliveries + this chain's drops, sharded into
	// per-pool-worker cells (cell 0 for writers without a worker identity)
	// so the tail writers never contend on one counter line.
	meter        *metrics.ShardedMeter
	ingressDrops atomic.Uint64 // SendChain rejections (first queue full)

	// inflight counts this chain's admission tickets: one per frame inside
	// the pipeline, plus any SendChain between taking its ticket and
	// learning whether the chain admits it. Drain, Close and DrainChain wait
	// for it to reach zero (see SendChain for why none of them can miss a
	// frame).
	inflight atomic.Int64
	// quiesced closes this chain's ingress: SendChain rejects without
	// metering, so a chain parked after its tenant migrated away neither
	// accepts traffic nor pollutes the source server's demand telemetry.
	quiesced atomic.Bool
}

// element is one chain position: its NF instance, current placement, input
// shards and its attachment to the shared device gate.
type element struct {
	name string
	typ  string

	// inst is the element's live NF instance, published as an atomic
	// pointer: processBurst loads it once per burst with no lock, and
	// doMigrate swaps it only while the element is frozen, so no burst of
	// this element is in flight anywhere during the store.
	inst atomic.Pointer[nf.NF]
	loc  atomic.Int32 // device.Kind

	// placed is the element's position on the shared capacity model,
	// published as one immutable placement value so the per-burst read
	// (chargeFor) is a single atomic load with no torn rate/device/
	// generation triple. rateMu and rateCond exist only for the zero-rate
	// park: a worker that loads a non-positive rate parks in awaitRate
	// until place — or Close — broadcasts.
	placed   atomic.Pointer[placement]
	rateMu   sync.Mutex
	rateCond *sync.Cond

	// paused freezes the element for a live migration: owning workers skip
	// its rings (which then buffer arrivals — the freeze buffer) and never
	// process it inline. Set by the migration coordinator before the pause
	// rendezvous, cleared after the swap.
	paused atomic.Bool

	shards []*shard
	// owners is the deduplicated set of pool workers owning at least one of
	// this element's shards — the rendezvous set for a migration freeze.
	owners []*worker
	drops  atomic.Uint64
	parent *Runtime
	ch     *tenantChain
	pos    int // position within ch.elems

	// meter measures this element's served load: ObserveN counts every burst
	// the element actually processed (its granted rate), Drop/DropN every
	// frame lost entering its queues. It is sharded into per-pool-worker
	// cells (worker w writes cell w+1; cell 0 takes ingress-side writes),
	// folded only when the LoadSampler samples.
	// offeredBytes/offeredPkts count every frame that *arrived* at the
	// element's queues — including frames the full queue rejected — so the
	// LoadSampler can report offered demand separately from the device
	// gate's grant.
	meter        *metrics.ShardedMeter
	offeredBytes atomic.Uint64
	offeredPkts  atomic.Uint64

	// epochMu guards epochs: the element's cumulative meter totals at each
	// past migration, recorded while the element is frozen. A LoadSampler
	// splits its window at these cuts so the slice served on the old device
	// is attributed to — and priced at the catalog capacity of — that
	// device, instead of the whole window being charged to wherever the
	// element sits at sample time. Append-only (migrations are rare and
	// cooldown-bounded); samplers keep their own consumption cursor.
	epochMu sync.Mutex
	epochs  []locEpoch

	migMu sync.Mutex // serializes migrations of this element
}

// placement is one immutable position of an element on the shared capacity
// model: bps its catalog capacity on the current device scaled to bytes/s
// (the divisor that converts a burst's bytes into normalized
// device-seconds), dev the device gate those seconds are charged to, and
// gen a generation counter place bumps on every retarget — a worker
// holding a token lease from an older generation must return it to the
// gate it was drawn from instead of spending stale budget. place publishes
// a fresh value on every change; readers treat a loaded placement as
// read-only.
type placement struct {
	bps float64
	gen uint64
	dev *deviceGate
}

// chargeFor returns the burst's cost in normalized device-seconds, the
// gate to charge it to and the placement generation the cost was computed
// under (a lease drawn for this burst is valid only while that generation
// holds). The placed regime is one atomic load and a division; a
// non-positive rate falls through to awaitRate's park. It reports ok=false
// when the runtime closed while the worker was parked: an abandoned park
// must release its burst instead of stranding Drain on frames nobody will
// ever serve.
//
//pam:hotpath
func (el *element) chargeFor(totalBytes int) (cost float64, dev *deviceGate, gen uint64, ok bool) {
	p := el.placed.Load()
	if p == nil || p.bps <= 0 {
		if p, ok = el.awaitRate(); !ok {
			return 0, nil, 0, false
		}
	}
	return float64(totalBytes) / p.bps, p.dev, p.gen, true
}

// awaitRate parks until place publishes a positive rate (an element
// observed before its first placement must park, not spin), reporting
// ok=false when the runtime closed while parked: Close broadcasts the rate
// conditions after setting closed. The re-check-under-lock pairs with
// place, which publishes the new placement before taking rateMu to
// broadcast — a parked worker either sees the fresh rate or receives the
// wakeup.
//
//pam:slowpath
func (el *element) awaitRate() (*placement, bool) {
	el.rateMu.Lock()
	defer el.rateMu.Unlock()
	for {
		if p := el.placed.Load(); p != nil && p.bps > 0 {
			return p, true
		}
		if el.parent.closed.Load() {
			return nil, false
		}
		el.rateCond.Wait()
	}
}

// place points the element at a device gate with its scaled catalog rate
// there, moving the resident bookkeeping. Attach/detach never touches the
// gates' banked tokens, so re-placement (a live migration) cannot leak or
// mint device budget. Bumping the generation invalidates every worker's
// outstanding token lease: a lease drawn under the old rate (or from the
// old gate) is returned, never spent — the lease form of the setRate
// fast→slow clamp guarantee. The broadcast releases any worker parked on a
// zero-rate element. Callers are serialized (the constructor, then
// migrations under migMu), so the load-then-store pair cannot lose an
// update.
func (el *element) place(dev *deviceGate, bps float64) {
	old := el.placed.Load()
	gen := uint64(1)
	if old != nil {
		gen = old.gen + 1
	}
	if old == nil || old.dev != dev {
		if old != nil && old.dev != nil {
			old.dev.detach()
		}
		dev.attach()
	}
	el.placed.Store(&placement{bps: bps, gen: gen, dev: dev})
	el.rateMu.Lock()
	el.rateCond.Broadcast()
	el.rateMu.Unlock()
}

// shard is one input queue of an element: a lock-free MPSC ring (which
// doubles as the migration freeze buffer) statically owned by one pool
// worker — the single consumer.
type shard struct {
	el    *element
	idx   int // shard index within the element
	q     *ring
	owner *worker
}

// shardFor maps a flow hash to the element's shard, pinning each flow to
// one shard (and therefore one owning worker).
func (el *element) shardFor(h uint64) *shard {
	if len(el.shards) == 1 {
		return el.shards[0]
	}
	return el.shards[h%uint64(len(el.shards))]
}

// pauseReq is the migration coordinator's rendezvous with one owning
// worker: the worker signals acked once it is between bursts (its token
// lease returned). There is no resume barrier — the worker keeps draining
// every non-paused ring it owns while the frozen element migrates.
type pauseReq struct {
	acked chan struct{}
}

// worker is one goroutine of the run-to-completion pool. It owns a static
// subset of every element's shards and polls their rings round-robin in
// chain, then position order, so upstream elements of a chain are visited
// before downstream ones and every tenant gets one burst opportunity per
// sweep.
type worker struct {
	idx int
	r   *Runtime

	shards []*shard // owned rings, in visit order

	// Parking: a worker with no runnable work sets sleeping, re-checks its
	// rings (producers push first and read sleeping second, so one of the
	// two sides always observes the other) and blocks on wake. Producers
	// signal wake — capacity 1, non-blocking send — after a push.
	wake     chan struct{}
	sleeping atomic.Bool

	// ctrl carries migration pause rendezvous; ctrlPending lets the hot
	// loop test for pending control work with one atomic load instead of a
	// channel poll per burst.
	ctrl        chan *pauseReq
	ctrlPending atomic.Int32

	// The worker's token lease: device budget drawn from leaseDev in bulk
	// (drawLease) and charged burst-by-burst with plain local arithmetic —
	// the amortization that keeps the steady uncontended path free of
	// shared-memory traffic. Owned exclusively by the worker goroutine
	// (the pause rendezvous and the run loop's exit both execute on it),
	// so no synchronization applies. leaseGen pins the placement generation
	// the lease was drawn under; a stale lease is returned to leaseDev,
	// never spent.
	leaseDev   *deviceGate
	leaseGen   uint64
	leaseNanos int64

	// mag is the worker's loaded frame magazine (Config.PoolFrames): finished
	// frames' buffers are stored into it with no synchronization and it is
	// traded for an empty one when full. Owned by the worker goroutine, which
	// flushes it to the pool before parking and on exit so that no buffer
	// idles out of AcquireFrame's (and the collector's) reach.
	mag *packet.Magazine
}

// charge admits a burst of cost device-seconds against dev: first from the
// worker's local lease (free), then by drawing a fresh lease on the CAS
// fast path, and only on exhaustion through the gate's blocking FIFO path.
// gen is the placement generation the cost was computed under; a lease
// from any other generation (element migrated, rate retargeted) is
// returned to its own gate first so stale budget is never spent.
//
//pam:hotpath
func (w *worker) charge(cost float64, dev *deviceGate, gen uint64) {
	need := nanoUnits(cost)
	if w.leaseDev == dev && w.leaseGen == gen {
		if w.leaseNanos >= need {
			w.leaseNanos -= need
			return
		}
		// Spend the remainder toward this burst; the rest comes fresh.
		need -= w.leaseNanos
		w.leaseNanos = 0
	} else if w.leaseDev != nil {
		w.releaseLease()
	}
	if extra, ok := dev.drawLease(need); ok {
		w.leaseDev, w.leaseGen, w.leaseNanos = dev, gen, extra
		return
	}
	// Token exhaustion: the contended regime. Block on the FIFO path with
	// no lease — under contention per-burst grants are what keeps
	// co-resident elements sharing the budget fairly.
	dev.takeNanos(need)
}

// releaseLease returns the worker's unspent lease to the gate it was drawn
// from. Called on migration freeze, on a stale generation, and on worker
// exit, so banked budget can never outlive the placement it was drawn
// under — gate budget conservation stays exact.
func (w *worker) releaseLease() {
	if w.leaseDev != nil && w.leaseNanos > 0 {
		w.leaseDev.returnNanos(w.leaseNanos)
	}
	w.leaseDev, w.leaseGen, w.leaseNanos = nil, 0, 0
}

// wakeIfSleeping nudges a parked worker. Callers first make their work
// visible (ring publish, ctrlPending increment, paused clear); the
// worker's park sequence stores sleeping before its final work re-check,
// so either the producer sees sleeping and signals, or the worker sees the
// work — a lost wakeup requires both loads to precede both stores, which
// the total order on sequentially consistent atomics forbids.
//
//pam:hotpath
func (w *worker) wakeIfSleeping() {
	if w.sleeping.Load() {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// Runtime is a running emulated multi-chain dataplane.
type Runtime struct {
	cfg    Config
	chains []*tenantChain

	// gates is the shared-capacity registry: one token bucket per device
	// instance, keyed by device.Kind, shared by every resident element
	// across all hosted chains. Built once in New; the map is immutable.
	gates map[device.Kind]*deviceGate
	// dma is the shared DMA-engine budget every PCIe crossing of every
	// chain draws on — the interconnect analogue of the per-device gates.
	dma *dmaGate

	workers  []*worker
	stop     chan struct{} // closed by Close after Drain: workers exit
	workerWG sync.WaitGroup

	start   time.Time
	started atomic.Bool
	closed  atomic.Bool
	closeMu sync.RWMutex // excludes Migrate and the handoff hooks against Close

	frames   *packet.FramePool
	decoders *packet.DecoderPool

	egress func(chainIdx int, frame []byte) // optional tap for tests
}

// New builds a runtime with default-configured NF instances per element.
func New(cfg Config) (*Runtime, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		cfg:      cfg,
		gates:    newDeviceGates(),
		dma:      newDMAGate(cfg.Link, cfg.Scale),
		stop:     make(chan struct{}),
		frames:   packet.NewFramePool(),
		decoders: packet.NewDecoderPool(),
	}
	r.workers = make([]*worker, cfg.Workers)
	for i := range r.workers {
		r.workers[i] = &worker{
			idx:  i,
			r:    r,
			wake: make(chan struct{}, 1),
			ctrl: make(chan *pauseReq, 4),
		}
	}
	for ci, spec := range cfg.Chains {
		tc := &tenantChain{
			idx:     ci,
			name:    spec.Name,
			spec:    spec.Clone(),
			latency: metrics.NewHistogram(),
			meter:   metrics.NewShardedMeter(cfg.Workers+1, 0),
		}
		for i, e := range spec.Elems {
			inst, err := nf.New(e.Name, e.Type)
			if err != nil {
				return nil, fmt.Errorf("emul: chain %q element %d: %w", spec.Name, i, err)
			}
			rate, err := cfg.Catalog.Lookup(e.Type, e.Loc)
			if err != nil {
				return nil, fmt.Errorf("emul: chain %q element %d: %w", spec.Name, i, err)
			}
			el := &element{
				name:   e.Name,
				typ:    e.Type,
				parent: r,
				ch:     tc,
				pos:    i,
				meter:  metrics.NewShardedMeter(cfg.Workers+1, 0),
			}
			el.inst.Store(&inst)
			el.loc.Store(int32(e.Loc))
			el.rateCond = sync.NewCond(&el.rateMu)
			gate, err := r.gateFor(e.Loc)
			if err != nil {
				return nil, fmt.Errorf("emul: chain %q element %d: %w", spec.Name, i, err)
			}
			el.place(gate, bytesPerSec(rate, cfg.Scale))
			nshards := 1
			if inst.ConcurrencySafe() {
				nshards = cfg.Workers
			}
			depth := (cfg.QueueDepth + nshards - 1) / nshards
			for s := 0; s < nshards; s++ {
				// Static shard→worker ownership: a sharded element's shard i
				// belongs to worker i (flows hash straight to their worker);
				// a single-shard element belongs to worker chainIdx mod
				// Workers, spreading single-shard tenants across the pool.
				oi := s
				if nshards == 1 {
					oi = ci
				}
				ow := r.workers[oi%cfg.Workers]
				sh := &shard{el: el, idx: s, q: newRing(depth), owner: ow}
				el.shards = append(el.shards, sh)
				ow.shards = append(ow.shards, sh)
			}
			for _, sh := range el.shards {
				seen := false
				for _, ow := range el.owners {
					if ow == sh.owner {
						seen = true
						break
					}
				}
				if !seen {
					el.owners = append(el.owners, sh.owner)
				}
			}
			tc.elems = append(tc.elems, el)
		}
		r.chains = append(r.chains, tc)
	}
	return r, nil
}

// bytesPerSec converts a catalog rate to the emulated throttle rate — the
// named gbps → bytes/s conversion helper the unitcheck analyzer requires.
//
//pam:unitconv
func bytesPerSec(g device.Gbps, scale float64) float64 {
	return float64(g) * 1e9 / 8 / scale
}

// gateFor resolves the shared capacity gate of a device kind, returning a
// typed *UnknownDeviceKindError instead of a nil gate for a kind outside
// device.Kinds (the registry is built from that list, so this only trips
// when a caller fabricates a Kind value).
func (r *Runtime) gateFor(k device.Kind) (*deviceGate, error) {
	if g, ok := r.gates[k]; ok {
		return g, nil
	}
	return nil, &UnknownDeviceKindError{Kind: k}
}

// Start launches the worker pool. It must be called once before Send.
func (r *Runtime) Start() {
	if r.closed.Load() || !r.started.CompareAndSwap(false, true) {
		return
	}
	r.start = time.Now()
	for _, w := range r.workers {
		r.workerWG.Add(1)
		go w.run()
	}
}

// now returns emulation time (wall-clock since Start).
func (r *Runtime) now() time.Duration { return time.Since(r.start) }

// AcquireFrame returns a frame buffer of length n from the runtime's pool.
// With Config.PoolFrames set, every delivered or dropped frame's buffer is
// recycled into the same pool, so steady-state traffic generated through
// AcquireFrame allocates nothing.
func (r *Runtime) AcquireFrame(n int) []byte { return r.frames.Get(n) }

// recycle returns a finished frame's buffer to the pool when pooling is on:
// a store into the worker's own magazine, and one trade with the pool per
// full magazine.
func (w *worker) recycle(frame []byte) {
	if !w.r.cfg.PoolFrames {
		return
	}
	if !w.mag.Put(frame) {
		w.mag = w.r.frames.Exchange(w.mag)
		w.mag.Put(frame)
	}
}

// flushFrames hands the buffers in the worker's magazine to the pool.
func (w *worker) flushFrames() {
	if w.mag != nil {
		w.mag = w.r.frames.Exchange(w.mag)
	}
}

// SendChain offers one frame to the given chain's ingress. It reports false
// when the chain index is out of range or the first element's queue is full
// (ingress drop). The frame is owned by the runtime once accepted; a
// rejected frame stays with the caller. The push itself is one lock-free
// ring publish plus (only when the owning worker is parked) one wake
// signal: zero allocations in steady state.
//
// Admission is ticket-then-check: the sender takes its ticket on the chain's
// inflight count first and reads started, closed and quiesced second, backing
// the ticket out on refusal. Close and QuiesceChain do the mirror image —
// store the flag, then wait for inflight to reach zero — and both sides use
// sequentially consistent atomics, so either the sender's load sees the flag
// (the frame is refused) or the waiter's load sees the ticket (the frame is
// waited for). No lock is taken and no frame can slip between a flag check
// and its own increment.
//
//pam:hotpath
func (r *Runtime) SendChain(ci int, frame []byte) bool {
	if ci < 0 || ci >= len(r.chains) {
		return false
	}
	tc := r.chains[ci]
	tc.inflight.Add(1)
	if !r.started.Load() || r.closed.Load() || tc.quiesced.Load() {
		// A quiesced chain's ingress is closed for a cross-server handoff:
		// rejected without metering — these frames belong to the
		// destination server now.
		tc.inflight.Add(-1)
		return false
	}
	first := tc.elems[0]
	// Offered demand is metered before the queue decides: an ingress-dropped
	// frame still arrived, and the LoadSampler's demand utilization must see
	// it even when the shared device gate cannot grant it.
	first.offeredPkts.Add(1)
	first.offeredBytes.Add(uint64(len(frame)))
	headCPU := device.Kind(first.loc.Load()) == device.KindCPU
	if headCPU {
		// DMA demand is metered at arrival too: this frame must cross to
		// reach the CPU-resident head, and — when the head is also the tail —
		// cross back on egress, whether or not the engine ever grants it.
		r.dma.offer(dmaToCPU, uint64(len(frame)))
		if len(tc.elems) == 1 {
			r.dma.offer(dmaToNIC, uint64(len(frame)))
		}
	}
	j := job{
		frame:    frame,
		hash:     packet.FlowHash(frame),
		ingress:  r.now(),
		crossing: headCPU, // NIC ingress → CPU
	}
	s := first.shardFor(j.hash)
	if s.q.push(j) {
		s.owner.wakeIfSleeping()
		return true
	}
	tc.inflight.Add(-1)
	tc.ingressDrops.Add(1)
	now := r.now()
	// Senders have no worker identity: ingress drops land in cell 0.
	tc.meter.Cell(0).Drop(now)
	first.meter.Cell(0).Drop(now)
	return false
}

// Drain blocks until every accepted frame has left the pipeline: every
// chain's inflight count has been seen at zero. With senders still running
// that is one instant per chain, not one for the whole runtime.
func (r *Runtime) Drain() {
	for _, tc := range r.chains {
		tc.awaitIdle(time.Time{})
	}
}

// awaitIdle waits for the chain's inflight count to reach zero, reporting
// false if the deadline (none when zero) passes first. The pipeline normally
// empties within a few bursts, so the wait yields the processor before it
// falls back to short sleeps.
func (tc *tenantChain) awaitIdle(deadline time.Time) bool {
	for spins := 0; tc.inflight.Load() != 0; spins++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return false
		}
		if spins < 256 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
	return true
}

// Close shuts the pipeline down after draining. The runtime cannot be
// restarted. Safe to call concurrently with SendChain: closed is stored
// before the drain reads any chain's inflight count, so a send either sees
// it and is rejected or holds a ticket the drain waits for — every accepted
// frame is drained before Close returns and none is accepted after. closeMu
// only makes Close wait out a migration or handoff hook in progress.
func (r *Runtime) Close() {
	r.closeMu.Lock()
	if !r.closed.CompareAndSwap(false, true) {
		r.closeMu.Unlock()
		return
	}
	r.closeMu.Unlock()
	// Wake any worker parked on a non-positive rate: chargeFor re-checks
	// closed on wakeup and abandons its burst, so Drain below cannot hang on
	// frames a rate-less element will never serve.
	for _, tc := range r.chains {
		for _, el := range tc.elems {
			el.rateMu.Lock()
			el.rateCond.Broadcast()
			el.rateMu.Unlock()
		}
	}
	r.Drain()
	close(r.stop)
	r.workerWG.Wait()
}

// SetChainEgressTap installs fn to receive every delivered frame with the
// delivering chain's index. Must be set before Start. With Config.Workers > 1
// different chains' tails may be served by different pool workers, in which
// case fn is called concurrently from several goroutines and must
// synchronize internally. With Config.PoolFrames the frame buffer is
// recycled when fn returns, so fn must copy anything it keeps.
func (r *Runtime) SetChainEgressTap(fn func(chainIdx int, frame []byte)) { r.egress = fn }

// run is the pool worker's goroutine body: allocate the per-worker batch
// scratch once (job slices, context arrays, one decoder per context), then
// enter the polling loop. The split keeps every allocation in this prologue
// so the loop itself is provably allocation-free.
func (w *worker) run() {
	r := w.r
	defer r.workerWG.Done()
	batch := r.cfg.BatchSize
	ctxs := make([]nf.Ctx, batch)
	ptrs := make([]*nf.Ctx, batch)
	for i := range ctxs {
		ctxs[i].Decoder = r.decoders.Get()
		ptrs[i] = &ctxs[i]
	}
	// Worker exit returns any banked device budget and every recycled buffer.
	defer w.releaseLease()
	defer func() {
		w.flushFrames()
		w.mag = nil
	}()
	defer func() {
		for i := range ctxs {
			r.decoders.Put(ctxs[i].Decoder)
		}
	}()
	jobs := make([]job, batch)
	inline := make([]job, 0, batch)
	lats := make([]int64, 0, batch)
	w.loop(jobs, inline, ctxs, ptrs, lats)
}

// loop polls every owned ring round-robin, draining and processing up to
// one burst per visit; it handles migration pause rendezvous between
// bursts and parks when a full sweep finds no work.
//
//pam:hotpath
func (w *worker) loop(jobs, inline []job, ctxs []nf.Ctx, ptrs []*nf.Ctx, lats []int64) {
	r := w.r
	for {
		if w.ctrlPending.Load() != 0 {
			w.handleCtrl()
		}
		did := false
		for _, s := range w.shards {
			if s.el.paused.Load() {
				continue // frozen: the ring buffers arrivals
			}
			n := s.q.popBatch(jobs)
			if n == 0 {
				continue
			}
			did = true
			w.processBurst(s.el, jobs[:n], &inline, ctxs, ptrs, &lats)
			if w.ctrlPending.Load() != 0 {
				w.handleCtrl()
			}
		}
		if did {
			continue
		}
		// Park, with nothing kept back: a sender that wakes this worker must
		// find the buffers it recycled. The order is load-bearing: set
		// sleeping, then re-check for work published before the flag flip —
		// producers publish first and read sleeping second, so one side
		// always sees the other.
		w.flushFrames()
		w.sleeping.Store(true)
		if w.anyWork() {
			w.sleeping.Store(false)
			continue
		}
		select { //pam:slowpath-ok the park itself: blocking here is the point
		case <-w.wake:
		case req := <-w.ctrl:
			w.ackPause(req)
		case <-r.stop:
			w.sleeping.Store(false)
			return
		}
		w.sleeping.Store(false)
	}
}

// anyWork reports whether any owned ring holds runnable frames or a pause
// rendezvous is pending — the park's final re-check.
func (w *worker) anyWork() bool {
	if w.ctrlPending.Load() != 0 {
		return true
	}
	for _, s := range w.shards {
		if !s.el.paused.Load() && !s.q.empty() {
			return true
		}
	}
	return false
}

// handleCtrl acks every pending pause rendezvous. Called only between
// bursts, so an ack guarantees no burst of the pausing element is in
// flight on this worker.
//
//pam:slowpath
func (w *worker) handleCtrl() {
	for {
		select {
		case req := <-w.ctrl:
			w.ackPause(req)
		default:
			return
		}
	}
}

// ackPause completes one pause rendezvous: the lease goes back first so a
// frozen element's banked budget flows to the gate where co-resident
// tenants can use it, then the ack unblocks the migration coordinator.
//
//pam:slowpath
func (w *worker) ackPause(req *pauseReq) {
	w.ctrlPending.Add(-1)
	w.releaseLease()
	req.acked <- struct{}{}
}

// processBurst runs one burst through an element's NF and forwards it:
// one gate transaction, one PCIe propagation charge, one ProcessBatch call
// and batched metering for the whole burst. Survivors whose successor
// element sits in a shard this worker owns, unpaused and with an empty
// ring, are processed run-to-completion in the same visit — the loop
// continues with the successor instead of paying a re-queue hop. That
// includes a successor on the other device: the carried jobs are marked
// crossing, so the top of the loop charges them to the DMA gate (and sleeps
// the SleepPCIe floor) and to the successor's device gate exactly as it
// would a burst popped from the ring. Foreign-owner shards and frozen or
// backlogged successors enqueue to the destination ring; either way gate
// charging happens where the frames are consumed.
//
// A frame is decoded and keyed once per ring hop: ctxs[i] belongs to
// jobs[i] (ptrs[i] points at it, each owning one decoder), and a survivor
// continued inline takes its context along, so the successor decodes only
// what its predecessor marked Rewritten.
//
//pam:hotpath
func (w *worker) processBurst(el *element, jobs []job, inline *[]job, ctxs []nf.Ctx, ptrs []*nf.Ctx, lats *[]int64) {
	r := w.r
	for carried := false; ; carried = true {
		n := len(jobs)

		// Emulate the shared device capacity: the burst's bytes are converted
		// into normalized device-seconds at the element's catalog rate and
		// admitted through the *device's* gate in a single transaction — one
		// budget shared by every resident element across all hosted chains, so
		// co-resident overload physically slows this element down.
		total := 0
		crossBytes, crossed := 0, false
		for i := range jobs {
			total += len(jobs[i].frame)
			if jobs[i].crossing {
				crossed = true
				crossBytes += len(jobs[i].frame)
			}
		}
		cost, dev, gen, ok := el.chargeFor(total)
		if !ok {
			// Runtime closed while this burst was parked on a rate-less
			// element: abandon it so Close's Drain completes. The frames are
			// accounted as this element's queue drops — they were accepted
			// but never served.
			dropNow := r.now()
			el.drops.Add(uint64(n))
			el.meter.Cell(w.idx+1).DropN(uint64(n), dropNow)
			el.ch.meter.Cell(w.idx+1).DropN(uint64(n), dropNow)
			for i := range jobs {
				w.recycle(jobs[i].frame)
			}
			el.ch.inflight.Add(int64(-n))
			return
		}
		w.charge(cost, dev, gen)

		// PCIe crossings to reach this element draw on the runtime's shared
		// DMA-engine budget — one charge per burst (descriptors are posted
		// back-to-back, so the fixed overhead is paid once; serialization is
		// per crossing byte). Contention blocks here, which is how N workers
		// or N tenant chains crossing at once physically share one link.
		// SleepPCIe additionally sleeps the unloaded crossing latency (the
		// gate models occupancy and queueing, not the latency floor).
		if crossed {
			r.dma.cross(dirTo(device.Kind(el.loc.Load())), crossBytes)
			if r.cfg.SleepPCIe {
				// The latency-floor sleep is opt-in emulation fidelity, not a
				// dataplane stall.
				time.Sleep(r.cfg.Link.PropDelay + r.cfg.Link.SerializationTime(crossBytes)) //pam:slowpath-ok SleepPCIe latency floor
			}
		}

		now := r.now()
		el.meter.Cell(w.idx+1).ObserveN(uint64(n), uint64(total), now)
		for i := range jobs {
			c := &ctxs[i]
			c.Now = now
			if carried && !c.Rewritten {
				continue
			}
			c.Frame, c.Rewritten = jobs[i].frame, false
			// Decode is allocation-free on well-formed frames; its malformed-
			// frame error path formats, which NFs tolerate and never hit in
			// steady state.
			_, _ = c.Decoder.Decode(c.Frame) //pam:slowpath-ok decode error path formats
			c.HasFlow = c.FlowKey.Fill(c.Decoder)
		}
		inst := *el.inst.Load()
		verdicts := inst.ProcessBatch(ptrs[:n])

		if el.pos == len(el.ch.elems)-1 {
			w.egressBatch(el, jobs, verdicts, lats)
			return
		}

		// Forward survivors to the next element's shard for their flow. The
		// next element's offered meters count every forwarded frame —
		// inlined, accepted or queue-dropped — so its demand reflects
		// arrivals, not grants.
		next := el.ch.elems[el.pos+1]
		crossingNext := el.loc.Load() != next.loc.Load()
		finished, qdrops := 0, 0
		fwdPkts, fwdBytes := uint64(0), uint64(0)
		keep := (*inline)[:0]
		for i := range jobs {
			if i < len(verdicts) && verdicts[i] == nf.VerdictPass {
				j := jobs[i]
				j.crossing = crossingNext
				fwdPkts++
				fwdBytes += uint64(len(j.frame))
				ns := next.shardFor(j.hash)
				// Run-to-completion: a successor in a shard this worker owns is
				// processed in this visit — but only when its ring is empty,
				// so a frame buffered there (across a freeze, say) can never
				// be overtaken by a newer frame of its flow.
				if ns.owner == w && !next.paused.Load() && ns.q.empty() {
					// The context travels with the frame: slot len(keep) ≤ i
					// holds a frame that is not continuing, so swapping
					// compacts the contexts exactly as keep compacts the jobs.
					if k := len(keep); k != i {
						ctxs[k], ctxs[i] = ctxs[i], ctxs[k]
					}
					keep = append(keep, j)
					continue
				}
				if ns.q.push(j) {
					if ns.owner != w {
						ns.owner.wakeIfSleeping()
					}
					continue
				}
				next.drops.Add(1)
				qdrops++
			}
			finished++
			w.recycle(jobs[i].frame)
		}
		if fwdPkts > 0 {
			next.offeredPkts.Add(fwdPkts)
			next.offeredBytes.Add(fwdBytes)
			// Crossing demand at arrival, queue-dropped frames included: the
			// hop to a cross-device neighbour, plus the egress hop a
			// CPU-resident tail will owe.
			nextLoc := device.Kind(next.loc.Load())
			if crossingNext {
				r.dma.offer(dirTo(nextLoc), fwdBytes)
			}
			if next.pos == len(el.ch.elems)-1 && nextLoc == device.KindCPU {
				r.dma.offer(dmaToNIC, fwdBytes)
			}
		}
		if qdrops > 0 {
			dropNow := r.now()
			el.ch.meter.Cell(w.idx+1).DropN(uint64(qdrops), dropNow)
			next.meter.Cell(w.idx+1).DropN(uint64(qdrops), dropNow)
		}
		if finished > 0 {
			el.ch.inflight.Add(int64(-finished))
		}
		*inline = keep
		if len(keep) == 0 {
			return
		}
		jobs = keep
		el = next
	}
}

// egressBatch completes a burst at the chain tail: one PCIe charge back to
// the NIC when the tail runs on the CPU, one histogram critical section for
// the burst's latencies, one meter update for its packets and bytes.
//
//pam:hotpath
func (w *worker) egressBatch(el *element, jobs []job, verdicts []nf.Verdict, lats *[]int64) {
	r := w.r
	if device.Kind(el.loc.Load()) == device.KindCPU {
		bytes := 0
		for i := range jobs {
			if i < len(verdicts) && verdicts[i] == nf.VerdictPass {
				bytes += len(jobs[i].frame)
			}
		}
		// The egress hop back to the NIC draws on the same shared DMA-engine
		// budget as every other crossing (demand was metered when the frames
		// arrived at this tail).
		if bytes > 0 {
			r.dma.cross(dmaToNIC, bytes)
			if r.cfg.SleepPCIe {
				time.Sleep(r.cfg.Link.PropDelay + r.cfg.Link.SerializationTime(bytes)) //pam:slowpath-ok SleepPCIe latency floor
			}
		}
	}
	now := r.now()
	var delivered, deliveredBytes uint64
	*lats = (*lats)[:0]
	for i := range jobs {
		if i < len(verdicts) && verdicts[i] == nf.VerdictPass {
			*lats = append(*lats, int64(now-jobs[i].ingress))
			delivered++
			deliveredBytes += uint64(len(jobs[i].frame))
			if r.egress != nil {
				r.egress(el.ch.idx, jobs[i].frame)
			}
		}
		w.recycle(jobs[i].frame)
	}
	// One histogram lock per burst, not per frame: amortized to the point
	// of vanishing from profiles, and the histogram has no lock-free form.
	el.ch.latency.RecordBatch(*lats) //pam:slowpath-ok amortized per-burst histogram lock
	el.ch.meter.Cell(w.idx+1).ObserveN(delivered, deliveredBytes, now)
	el.ch.inflight.Add(int64(-len(jobs)))
}

// freeze pauses the element: flag first (workers re-check paused before
// every burst and every inline hop), then rendezvous with each owning
// worker. Each owner acks at a burst boundary with its token lease
// returned, so once freeze returns, no burst of this element is in flight
// anywhere and the served meters are stable. Arriving frames accumulate in
// the element's bounded rings — the freeze buffer. The freeze is scoped to
// this element: the owning workers keep draining every other ring they
// own. Idempotent in effect (a second freeze just re-rendezvouses), but
// callers serialize via migMu or the fleet tier's suspended control loop.
func (el *element) freeze() {
	el.paused.Store(true)
	acked := make(chan struct{}, len(el.owners))
	req := &pauseReq{acked: acked}
	for _, ow := range el.owners {
		ow.ctrlPending.Add(1)
		ow.ctrl <- req
		ow.wakeIfSleeping()
	}
	for range el.owners {
		<-acked
	}
}

// unfreeze resumes a frozen element: clear the flag, then wake the owners —
// the frozen rings may hold buffered frames no future push would announce.
func (el *element) unfreeze() {
	el.paused.Store(false)
	for _, ow := range el.owners {
		ow.wakeIfSleeping()
	}
}

// doMigrate performs the UNO sequence over the freeze rendezvous (see
// element.freeze). Callers hold el.migMu.
func (el *element) doMigrate(to device.Kind) (migrate.Report, error) {
	r := el.parent
	if device.Kind(el.loc.Load()) == to {
		return migrate.Report{Element: el.name}, nil
	}
	rehome, err := el.rehome(to)
	if err != nil {
		return migrate.Report{}, err
	}
	fresh, err := nf.New(el.name, el.typ)
	if err != nil {
		return migrate.Report{}, err
	}

	el.freeze()
	defer el.unfreeze()

	tr := migrate.PCIeTransport{Link: r.cfg.Link, Setup: time.Millisecond}
	old := *el.inst.Load()
	rep, err := migrate.Move(old, fresh, tr)
	if err != nil {
		return migrate.Report{}, err
	}
	for _, s := range el.shards {
		rep.Buffered += s.q.pending()
	}
	if r.cfg.SleepPCIe {
		time.Sleep(rep.Transfer)
	}
	// The element is frozen (every owner acked), so no ProcessBatch call is
	// in flight anywhere: the swap is a plain publish.
	el.inst.Store(&fresh)
	rehome()
	rep.Replayed = rep.Buffered // FIFO consumption replays the queues
	return rep, nil
}

// rehome resolves the catalog rate and the shared gate the element would
// run at on device to, and returns the step that moves it there. Resolving
// first lets a caller fail before it touches any state. The step cuts the
// telemetry attribution before the placement flips: everything metered up
// to that instant was served on — and must be priced at the catalog
// capacity of — the old device. Callers hold el.migMu and run the step with
// the element frozen, so the served meters are stable; offered counters may
// tick from upstream forwarding into the freeze buffers, which only shifts
// frames neither device has served yet.
func (el *element) rehome(to device.Kind) (func(), error) {
	r := el.parent
	rate, err := r.cfg.Catalog.Lookup(el.typ, to)
	if err != nil {
		return nil, err
	}
	gate, err := r.gateFor(to)
	if err != nil {
		return nil, err
	}
	return func() {
		el.epochMu.Lock()
		el.epochs = append(el.epochs, locEpoch{
			loc:          device.Kind(el.loc.Load()),
			bytes:        el.meter.Bytes(),
			pkts:         el.meter.Packets(),
			drops:        el.meter.Drops(),
			offeredBytes: el.offeredBytes.Load(),
			offeredPkts:  el.offeredPkts.Load(),
		})
		el.epochMu.Unlock()
		el.loc.Store(int32(to))
		// Re-attach to the destination device's shared gate at the catalog
		// rate there. Attach/detach moves only the resident bookkeeping —
		// the gates' banked tokens are untouched, so the freeze window
		// neither leaks nor mints device budget; and because the
		// byte→device-second divisor changes with the rate, an element
		// migrated fast→slow cannot carry the old device's cheaper costing
		// into its first post-migration burst.
		el.place(gate, bytesPerSec(rate, r.cfg.Scale))
	}, nil
}

// MigrateChain live-moves the named element of the given chain to the
// device, returning the migration report. Only the migrating element
// freezes; other chains keep forwarding throughout the move. Loss-free:
// frames arriving during the move wait in the element's rings (up to
// QueueDepth in aggregate).
func (r *Runtime) MigrateChain(ci int, name string, to device.Kind) (migrate.Report, error) {
	// The read lock holds Close off for the duration: the pause rendezvous
	// with the pool workers requires them alive, so the closed check and
	// the rendezvous must be atomic with respect to Close.
	r.closeMu.RLock()
	defer r.closeMu.RUnlock()
	tc, err := r.findChain(ci)
	if err != nil {
		return migrate.Report{}, err
	}
	for _, el := range tc.elems {
		if el.name != name {
			continue
		}
		el.migMu.Lock()
		defer el.migMu.Unlock()
		return el.doMigrate(to)
	}
	return migrate.Report{}, fmt.Errorf("emul: no element %q in chain %q", name, tc.name)
}

// Scale returns the effective rate divisor the runtime was built with;
// multiplying a measured wall-clock rate by it recovers catalog (Table-1)
// units.
func (r *Runtime) Scale() float64 { return r.cfg.Scale }

// Elapsed returns emulation time: wall-clock since Start, or zero before it.
func (r *Runtime) Elapsed() time.Duration {
	if !r.started.Load() {
		return 0
	}
	return r.now()
}

// Placement returns chain 0's current placement as a chain. See Placements.
func (r *Runtime) Placement() *chain.Chain { return r.Placements()[0] }

// Placements returns every hosted chain's current placement, in chain-index
// order.
func (r *Runtime) Placements() []*chain.Chain {
	out := make([]*chain.Chain, len(r.chains))
	for ci, tc := range r.chains {
		c := tc.spec.Clone()
		for i, el := range tc.elems {
			c.SetLoc(i, device.Kind(el.loc.Load()))
		}
		out[ci] = c
	}
	return out
}

// statKey qualifies an element name with its chain when several chains are
// hosted, so per-name maps cannot collide across tenants.
func (r *Runtime) statKey(tc *tenantChain, name string) string {
	if len(r.chains) == 1 {
		return name
	}
	return tc.name + "/" + name
}

// NFStats returns the per-element NF statistics. With a single hosted chain
// keys are element names; with several, "chainName/elementName".
func (r *Runtime) NFStats() map[string]nf.Stats {
	out := make(map[string]nf.Stats)
	for _, tc := range r.chains {
		for _, el := range tc.elems {
			out[r.statKey(tc, el.name)] = (*el.inst.Load()).Stats()
		}
	}
	return out
}

// Instance returns the live NF instance for a name (tests inspect state),
// searching chains in index order.
func (r *Runtime) Instance(name string) (nf.NF, bool) {
	for _, tc := range r.chains {
		for _, el := range tc.elems {
			if el.name == name {
				return *el.inst.Load(), true
			}
		}
	}
	return nil, false
}

// Result summarizes the run so far. The accounting identity is
//
//	accepted Sends = Delivered + Σ NF verdict drops + Σ QueueDrops
//
// with ingress rejections (Send returning false) counted separately in
// IngressDrops.
type Result struct {
	Chain         string // chain name; "" for the aggregate of all chains
	Latency       metrics.Summary
	Offered       uint64
	Delivered     uint64
	Dropped       uint64 // all drops seen by the meter (ingress + queue)
	IngressDrops  uint64
	DeliveredGbps float64 // at emulated (scaled) rate
	QueueDrops    map[string]uint64
}

// result snapshots one chain's measurements. Map keys follow statKey.
func (r *Runtime) result(tc *tenantChain) Result {
	qd := make(map[string]uint64, len(tc.elems))
	for _, el := range tc.elems {
		qd[r.statKey(tc, el.name)] = el.drops.Load()
	}
	return Result{
		Chain:         tc.name,
		Latency:       tc.latency.Snapshot(),
		Offered:       tc.elems[0].offeredPkts.Load(),
		Delivered:     tc.meter.Packets(),
		Dropped:       tc.meter.Drops(),
		IngressDrops:  tc.ingressDrops.Load(),
		DeliveredGbps: tc.meter.Gbps(),
		QueueDrops:    qd,
	}
}

// ChainResults snapshots every hosted chain's measurements, in chain-index
// order.
func (r *Runtime) ChainResults() []Result {
	out := make([]Result, len(r.chains))
	for ci, tc := range r.chains {
		out[ci] = r.result(tc)
	}
	return out
}

// Results snapshots the runtime's aggregate measurements across all hosted
// chains (identical to the single chain's results when one chain is
// hosted).
func (r *Runtime) Results() Result {
	if len(r.chains) == 1 {
		res := r.result(r.chains[0])
		res.Chain = ""
		return res
	}
	agg := Result{QueueDrops: make(map[string]uint64)}
	merged := metrics.NewHistogram()
	for _, tc := range r.chains {
		res := r.result(tc)
		agg.Offered += res.Offered
		agg.Delivered += res.Delivered
		agg.Dropped += res.Dropped
		agg.IngressDrops += res.IngressDrops
		agg.DeliveredGbps += res.DeliveredGbps
		for k, v := range res.QueueDrops {
			agg.QueueDrops[k] += v
		}
		merged.Merge(tc.latency)
	}
	agg.Latency = merged.Snapshot()
	return agg
}
