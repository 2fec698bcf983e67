package emul

// The shared DMA-engine gate for PCIe crossings. Before this file existed
// every shard slept its crossings privately (and only with SleepPCIe set),
// so N workers or N tenant chains crossing simultaneously each saw the full
// link — a crossing-bound hot spot could never physically form, even though
// the paper's premise is that every traversal costs shared interconnect
// capacity. The dmaGate closes that gap exactly the way the deviceGate
// closed it for compute: ONE token bucket per runtime, denominated in
// link-seconds and refilled at 1.0 per wall-clock second, charged by every
// crossing burst of every chain.
//
// One shared engine, not one per direction (the DESIGN §4 decision): the
// discrete-event simulator models a single DMA server charged once per
// crossing, and NFP-class SmartNICs expose their DMA blocks as an aggregate
// pool serving both ring directions — a per-direction split would also hand
// a multi-tenant runtime twice the budget. Telemetry still attributes
// demand and grant per direction (NIC→CPU vs CPU→NIC) so a one-sided storm
// is visible as such.
//
// Costing: a burst of B crossing bytes occupies the engine for
// pcie.Link.EngineSeconds(B, Scale) — the fixed per-burst descriptor
// overhead (PropDelay) plus the serialization time at the link slowed by
// Config.Scale, mirroring how element bursts cost bytes/scaledRate
// device-seconds. Offered demand is metered separately at frame arrival
// (serialization share only, including frames a full queue later drops), so
// the LoadSampler can report crossing demand that keeps climbing while the
// engine's grant is pinned at ~1.0 link-second per second.
//
// Every counter on the crossing path — demand at frame arrival, grant at
// burst admission — is a lock-free atomic: an uncontended crossing costs
// the gate's CAS fast path plus two atomic adds, and the LoadSampler folds
// the cells only at window boundaries.

import (
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/pcie"
)

// dmaDir indexes the two crossing directions for telemetry attribution.
type dmaDir int

const (
	dmaToCPU dmaDir = iota // NIC/FPGA side → host CPU
	dmaToNIC               // host CPU → NIC side (including final egress)
)

// dirTo maps the receiving device of a crossing to its direction.
func dirTo(k device.Kind) dmaDir {
	if k == device.KindCPU {
		return dmaToCPU
	}
	return dmaToNIC
}

// dmaGate is the runtime's shared DMA-engine budget. The embedded gate runs
// at a fixed rate of 1.0 link-second per wall-clock second with the same
// bankable burst as the device gates; a zero link (no PropDelay, no
// bandwidth) makes every cost zero and the gate a no-op.
type dmaGate struct {
	gate
	link  pcie.Link
	scale float64

	// Offered demand is metered per frame on the ingress/forward hot paths;
	// the link-seconds form is derived in counters() (serialization is
	// linear in bytes). Grant accounting is per burst, in the gate's own
	// nano-unit fixed point, and equally lock-free: the crossing hot path
	// never takes a mutex.
	demandBytes [2]atomic.Uint64
	grantNanos  [2]atomic.Int64 // granted link-time per direction, nano-units
	grantBytes  [2]atomic.Uint64
}

// newDMAGate builds the shared engine for the runtime's link at its rate
// scale, with deviceBurst worth of bankable link time.
func newDMAGate(link pcie.Link, scale float64) *dmaGate {
	g := &dmaGate{link: link, scale: scale}
	g.setRate(1.0, deviceBurst.Seconds())
	return g
}

// offer meters crossing demand: bytes arrived at a queue from which they
// will cross in direction dir, counted whether or not the queue (or the
// engine) ever admits them. Only the size-proportional share is metered —
// the per-burst descriptor overhead is unknowable before bursts form. One
// atomic add: this sits on the per-frame Send path of every CPU-headed
// chain and must not contend with the gate's burst admissions.
//
//pam:hotpath
func (d *dmaGate) offer(dir dmaDir, bytes uint64) {
	d.demandBytes[dir].Add(bytes)
}

// serializationUnits converts cumulative crossing bytes into link-seconds —
// the float64 form of pcie.Link.SerializationSeconds, safe for counters
// beyond the int range.
func (d *dmaGate) serializationUnits(bytes uint64) float64 {
	if d.link.BandwidthGbps <= 0 {
		return 0
	}
	scale := d.scale
	if scale <= 0 {
		scale = 1
	}
	return float64(bytes) * 8 / (d.link.BandwidthGbps * 1e9) * scale
}

// cross charges one burst's crossing of bytes in direction dir against the
// shared engine budget, blocking until it is granted. A zero link costs
// nothing and never blocks; the byte counters still record the crossing.
//
//pam:hotpath
func (d *dmaGate) cross(dir dmaDir, bytes int) {
	cost := d.link.EngineSeconds(bytes, d.scale)
	if cost > 0 {
		need := nanoUnits(cost)
		d.takeNanos(need)
		d.grantNanos[dir].Add(need)
	}
	d.grantBytes[dir].Add(uint64(bytes))
}

// dmaCounters is a snapshot of the gate's cumulative per-direction
// accounting; the LoadSampler differences consecutive snapshots into a
// window's demand and grant rates.
type dmaCounters struct {
	demandUnits [2]float64
	demandBytes [2]uint64
	grantUnits  [2]float64
	grantBytes  [2]uint64
	granted     float64 // the gate's own total grant, link-seconds
}

// counters snapshots the cumulative accounting. Pure atomic loads — the
// cells are written lock-free on the hot path and folded here, at window
// boundaries only.
func (d *dmaGate) counters() dmaCounters {
	c := dmaCounters{granted: d.grantedUnits()}
	for i := range c.demandBytes {
		b := d.demandBytes[i].Load()
		c.demandBytes[i] = b
		c.demandUnits[i] = d.serializationUnits(b)
		c.grantUnits[i] = float64(d.grantNanos[i].Load()) / 1e9
		c.grantBytes[i] = d.grantBytes[i].Load()
	}
	return c
}
