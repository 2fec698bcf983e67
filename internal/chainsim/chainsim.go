// Package chainsim simulates an NFV service chain spanning the SmartNIC and
// host CPU with deterministic discrete-event precision. It is the
// measurement substrate for every figure in the reproduction: per-packet
// latency (ns resolution, no GC jitter), delivered throughput, drops, and
// device utilization, under a fixed chain placement and offered load. The
// selection policies choose the placements — internal/experiments runs one
// simulation per placement — while the closed control loop runs on the
// execution emulator (internal/orchestrator), not here.
//
// Model (DESIGN.md §5):
//
//   - Each device is a FIFO queueing server with a normalized resource
//     budget; a frame of L bits visiting vNF i on device d occupies the
//     server for L/θd_i seconds, which makes aggregate device saturation
//     coincide exactly with the paper's Σ θ/θd_i = 1 condition.
//   - Each vNF visit additionally adds a fixed pipeline latency
//     (virtualization overhead) that does not occupy the server.
//   - Each PCIe crossing occupies the SmartNIC's DMA engines — separate
//     hardware from the NPU microengines, modelled as their own server —
//     for L/θ_DMA seconds, then delays the packet by the link's
//     propagation + serialization time.
//   - The pipeline holds at most QueueCapacity frames at once (the NIC's
//     packet-buffer memory); arrivals beyond that are dropped at ingress,
//     which is how overload manifests as throughput loss. Dropping at
//     admission rather than mid-pipeline means no device work is wasted on
//     doomed frames, so measured saturation coincides with the fluid model.
package chainsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chain"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Config parameterizes a simulation.
type Config struct {
	Chain         *chain.Chain
	Catalog       device.Catalog
	NFOverhead    time.Duration // per-vNF pipeline latency
	Link          pcie.Link
	DMAEngineGbps float64 // separate DMA-engine capacity; 0 disables the stage
	QueueCapacity int     // max frames in flight (NIC buffer); 0 = unbounded
	Seed          int64
	Warmup        time.Duration // discard latency/throughput before this
	SampleEvery   time.Duration // telemetry period; 0 disables sampling
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Chain == nil {
		return errors.New("chainsim: nil chain")
	}
	if err := c.Chain.Validate(); err != nil {
		return err
	}
	if c.Catalog == nil {
		return errors.New("chainsim: nil catalog")
	}
	if err := c.Link.Validate(); err != nil {
		return err
	}
	if c.NFOverhead < 0 {
		return fmt.Errorf("chainsim: negative NF overhead %v", c.NFOverhead)
	}
	// Verify every element has a capacity on its device up front, so the
	// simulation cannot fail mid-run.
	for _, e := range c.Chain.Elems {
		if _, err := c.Catalog.Lookup(e.Type, e.Loc); err != nil {
			return fmt.Errorf("chainsim: %w", err)
		}
	}
	return nil
}

// Sim is a running chain simulation.
type Sim struct {
	cfg    Config
	eng    *sim.Engine
	placed *chain.Chain // the placement every frame runs under
	path   []hop        // placed compiled into hops, read-only

	nic *sim.Server
	cpu *sim.Server
	dma *sim.Server // the SmartNIC's DMA engines, separate hardware

	latency *metrics.Histogram
	meter   *metrics.Meter

	inFlight     int
	offeredBytes uint64
	offeredPkts  uint64
	ingressDrops uint64

	nicSeries *metrics.TimeSeries
	cpuSeries *metrics.TimeSeries
	thrSeries *metrics.TimeSeries

	lastNICBusy time.Duration
	lastCPUBusy time.Duration
	lastBytes   uint64
	lastSample  time.Duration
}

// New builds a simulation. The configured chain is cloned, so the caller
// may reuse it.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.New(cfg.Seed)
	placed := cfg.Chain.Clone()
	s := &Sim{
		cfg:       cfg,
		eng:       eng,
		placed:    placed,
		path:      buildPath(placed),
		nic:       sim.NewServer(eng, 0), // admission is bounded globally
		cpu:       sim.NewServer(eng, 0),
		dma:       sim.NewServer(eng, 0),
		latency:   metrics.NewHistogram(),
		meter:     metrics.NewMeter(cfg.Warmup),
		nicSeries: &metrics.TimeSeries{},
		cpuSeries: &metrics.TimeSeries{},
		thrSeries: &metrics.TimeSeries{},
	}
	if cfg.SampleEvery > 0 {
		eng.After(cfg.SampleEvery, s.sample)
	}
	return s, nil
}

// Inject schedules a traffic source's arrivals. Arrivals are pulled lazily,
// one event ahead, so even unbounded sources cost O(1) queued events.
func (s *Sim) Inject(src traffic.Source) {
	a, ok := src.Next()
	if !ok {
		return
	}
	s.scheduleArrival(src, a)
}

func (s *Sim) scheduleArrival(src traffic.Source, a traffic.Arrival) {
	at := a.At
	if at < s.eng.Now() {
		at = s.eng.Now()
	}
	s.eng.At(at, func() {
		s.admit(a)
		if next, ok := src.Next(); ok {
			s.scheduleArrival(src, next)
		}
	})
}

// admit starts one frame's journey along the placement, or drops it at
// ingress when the pipeline is full.
func (s *Sim) admit(a traffic.Arrival) {
	s.offeredPkts++
	s.offeredBytes += uint64(a.Size)
	if s.cfg.QueueCapacity > 0 && s.inFlight >= s.cfg.QueueCapacity {
		s.ingressDrops++
		if s.eng.Now() >= s.cfg.Warmup {
			s.meter.Drop(s.eng.Now())
		}
		return
	}
	s.inFlight++
	p := &journey{sim: s, arrived: s.eng.Now(), size: a.Size}
	p.step(0)
}

// hop is one stage of a frame's path: either a visit to the device hosting
// a contiguous run of vNFs (positions [start, end] of the placement) or a
// PCIe crossing.
type hop struct {
	kind       hopKind
	side       device.Kind
	start, end int
}

type hopKind uint8

const (
	hopDevice hopKind = iota
	hopCrossing
)

// buildPath compiles a placement into hops. Consecutive vNFs on one device
// collapse into a single server visit whose occupancy is the sum of per-vNF
// service times, matching the fluid model exactly.
func buildPath(c *chain.Chain) []hop {
	segs := c.Segments()
	hops := make([]hop, 0, 2*len(segs)+2)
	side := device.KindSmartNIC // ingress
	for _, seg := range segs {
		segSide := seg.Side
		if segSide == device.KindFPGA {
			segSide = device.KindSmartNIC
		}
		if segSide != side {
			hops = append(hops, hop{kind: hopCrossing})
			side = segSide
		}
		hops = append(hops, hop{kind: hopDevice, side: segSide, start: seg.Start, end: seg.End})
	}
	if side != device.KindSmartNIC {
		hops = append(hops, hop{kind: hopCrossing})
	}
	return hops
}

func (s *Sim) serverFor(k device.Kind) *sim.Server {
	if k == device.KindCPU {
		return s.cpu
	}
	return s.nic // FPGA shares the NIC-side budget in this model
}

// journey walks one frame through the simulation's hops.
type journey struct {
	sim     *Sim
	arrived time.Duration
	size    int
}

func (j *journey) step(i int) {
	s := j.sim
	if i >= len(s.path) {
		// Egress: release the buffer slot and record the outcome if past
		// warmup. Filtering on exit time (not arrival) keeps the delivery
		// meter free of the queue-fill dead window under overload.
		s.inFlight--
		if now := s.eng.Now(); now >= s.cfg.Warmup {
			s.latency.Record(int64(now - j.arrived))
			s.meter.Observe(j.size, now)
		}
		return
	}
	h := s.path[i]
	switch h.kind {
	case hopDevice:
		service, overhead := j.segmentCost(h.start, h.end)
		s.serverFor(h.side).Submit(service, func(_, _ time.Duration) {
			s.eng.After(overhead, func() { j.step(i + 1) })
		})
	case hopCrossing:
		wire := s.cfg.Link.CrossingTime(j.size)
		if s.cfg.DMAEngineGbps > 0 {
			svc := gbpsService(j.size, s.cfg.DMAEngineGbps)
			s.dma.Submit(svc, func(_, _ time.Duration) {
				s.eng.After(wire, func() { j.step(i + 1) })
			})
		} else {
			s.eng.After(wire, func() { j.step(i + 1) })
		}
	}
}

// segmentCost computes the server occupancy and pipeline latency for the
// chain elements in positions [start, end] of the placement.
func (j *journey) segmentCost(start, end int) (service, overhead time.Duration) {
	s := j.sim
	for i := start; i <= end && i < s.placed.Len(); i++ {
		e := s.placed.At(i)
		g, err := s.cfg.Catalog.Lookup(e.Type, e.Loc)
		if err != nil {
			// Validated in New; cannot happen mid-run.
			continue
		}
		service += gbpsService(j.size, g.Float())
		overhead += s.cfg.NFOverhead
	}
	return service, overhead
}

// gbpsService converts a frame size and a Gbps rate into occupancy time.
func gbpsService(sizeBytes int, gbps float64) time.Duration {
	if gbps <= 0 {
		return 0
	}
	sec := float64(sizeBytes) * 8 / (gbps * 1e9)
	return time.Duration(sec * float64(time.Second))
}

// sample appends one telemetry window to the series.
func (s *Sim) sample() {
	now := s.eng.Now()
	win := now - s.lastSample
	if win > 0 {
		nicBusy := s.nic.BusyTime()
		cpuBusy := s.cpu.BusyTime()
		s.nicSeries.Append(now, float64(nicBusy-s.lastNICBusy)/float64(win))
		s.cpuSeries.Append(now, float64(cpuBusy-s.lastCPUBusy)/float64(win))
		bytes := s.meter.Bytes()
		s.thrSeries.Append(now, float64(bytes-s.lastBytes)*8/win.Seconds()/1e9)
		s.lastNICBusy, s.lastCPUBusy, s.lastBytes = nicBusy, cpuBusy, bytes
	}
	s.lastSample = now
	s.eng.After(s.cfg.SampleEvery, s.sample)
}

// Result summarizes a finished run.
type Result struct {
	Latency       metrics.Summary
	Hist          *metrics.Histogram
	OfferedPkts   uint64
	Delivered     uint64
	Dropped       uint64 // ingress (NIC buffer) drops past warmup
	OfferedGbps   float64
	DeliveredGbps float64
	LossRate      float64
	NICUtil       float64
	CPUUtil       float64
	Duration      time.Duration
	NICSeries     []metrics.Point
	CPUSeries     []metrics.Point
	ThrSeries     []metrics.Point
}

// Run advances the simulation to the given virtual time and summarizes it.
// It may be called repeatedly with increasing horizons.
func (s *Sim) Run(until time.Duration) Result {
	s.eng.Run(until)
	el := s.eng.Now()
	var offered float64
	if el > 0 {
		offered = float64(s.offeredBytes) * 8 / el.Seconds() / 1e9
	}
	// The delivery window ends at the last observed egress, so a drain
	// period after the source stops does not dilute the measured rate; the
	// same window bounds utilization for consistency.
	return Result{
		Latency:       s.latency.Snapshot(),
		Hist:          s.latency,
		OfferedPkts:   s.offeredPkts,
		Delivered:     s.meter.Packets(),
		Dropped:       s.meter.Drops(),
		OfferedGbps:   offered,
		DeliveredGbps: s.meter.Gbps(),
		LossRate:      s.meter.LossRate(),
		NICUtil:       s.nic.Utilization(minDur(el, s.cfg.Warmup+s.meter.Elapsed())),
		CPUUtil:       s.cpu.Utilization(minDur(el, s.cfg.Warmup+s.meter.Elapsed())),
		Duration:      el,
		NICSeries:     s.nicSeries.Points(),
		CPUSeries:     s.cpuSeries.Points(),
		ThrSeries:     s.thrSeries.Points(),
	}
}

func minDur(a, b time.Duration) time.Duration {
	if b > 0 && b < a {
		return b
	}
	return a
}
