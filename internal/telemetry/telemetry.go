// Package telemetry implements the load-monitoring side of the paper's
// control loop: "The network administrators can periodically query the load
// of SmartNIC and CPU and execute the PAM border vNF selection algorithm"
// (§2). It smooths raw device samples with EWMA and detects overload with
// hysteresis (consecutive hot windows) so a single bursty window does not
// trigger a migration.
package telemetry

import (
	"sync"
	"time"
)

// Sample is one polling window's measurements.
type Sample struct {
	At      time.Duration
	NICUtil float64
	CPUUtil float64
	// DMAUtil is the measured PCIe/DMA-engine demand utilization (offered
	// crossing load over the shared engine budget). Zero when the backend
	// does not measure the interconnect; a crossing-bound overload shows up
	// here while both device utilizations stay feasible.
	DMAUtil       float64
	DeliveredGbps float64
	LossRate      float64
}

// EWMA is an exponentially weighted moving average. The zero value is
// unseeded; the first Observe seeds it.
type EWMA struct {
	Alpha  float64 // weight of the newest sample, (0,1]; 0 defaults to 0.3
	value  float64
	seeded bool
}

// Observe folds in a sample and returns the new average.
func (e *EWMA) Observe(x float64) float64 {
	a := e.Alpha
	if a <= 0 || a > 1 {
		a = 0.3
	}
	if !e.seeded {
		e.value = x
		e.seeded = true
		return x
	}
	e.value = a*x + (1-a)*e.value
	return e.value
}

// Value returns the current average (0 when unseeded).
func (e *EWMA) Value() float64 { return e.value }

// DetectorConfig tunes overload detection.
type DetectorConfig struct {
	// Threshold is the smoothed NIC utilization at which a window counts
	// as hot (default 0.95, matching core.DefaultOverloadThreshold).
	Threshold float64
	// ClearThreshold re-arms the detector once smoothed utilization falls
	// below it (default Threshold−0.15), providing hysteresis.
	ClearThreshold float64
	// Consecutive is how many hot windows in a row fire the detector
	// (default 3).
	Consecutive int
	// Alpha is the EWMA weight (default 0.3).
	Alpha float64
	// LossTrigger also counts a window as hot when its loss rate reaches
	// this fraction, regardless of utilization (default 0.01; a saturated
	// device pins utilization at 1.0, so loss is the sharper signal).
	LossTrigger float64
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Threshold <= 0 {
		c.Threshold = 0.95
	}
	if c.ClearThreshold <= 0 {
		c.ClearThreshold = c.Threshold - 0.15
	}
	if c.Consecutive <= 0 {
		c.Consecutive = 3
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.3
	}
	if c.LossTrigger <= 0 {
		c.LossTrigger = 0.01
	}
	return c
}

// Detector turns a stream of samples into overload events with hysteresis.
// NIC utilization and DMA-engine utilization are smoothed separately and
// either reaching the threshold makes a window hot — a crossing-bound
// overload must fire the loop even when both devices stay feasible. Safe
// for concurrent use.
type Detector struct {
	mu     sync.Mutex
	cfg    DetectorConfig
	util   EWMA
	dma    EWMA
	thr    EWMA
	hot    int
	fired  bool
	events int
	clears int
	rearms int
}

// NewDetector builds a detector.
func NewDetector(cfg DetectorConfig) *Detector {
	cfg = cfg.withDefaults()
	return &Detector{cfg: cfg, util: EWMA{Alpha: cfg.Alpha}, dma: EWMA{Alpha: cfg.Alpha}, thr: EWMA{Alpha: cfg.Alpha}}
}

// Observe folds in one sample. It returns fire=true exactly once per
// overload episode (when Consecutive hot windows accumulate); the detector
// re-arms after the smoothed utilization drops below ClearThreshold.
// The returned throughput is the smoothed delivered Gbps — the θcur the
// selection algorithm should use.
func (d *Detector) Observe(s Sample) (fire bool, throughput float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	u := d.util.Observe(s.NICUtil)
	du := d.dma.Observe(s.DMAUtil)
	throughput = d.thr.Observe(s.DeliveredGbps)

	hotWindow := u >= d.cfg.Threshold || du >= d.cfg.Threshold || s.LossRate >= d.cfg.LossTrigger
	if d.fired {
		if u < d.cfg.ClearThreshold && du < d.cfg.ClearThreshold && s.LossRate < d.cfg.LossTrigger {
			d.fired = false
			d.hot = 0
			d.clears++
		}
		return false, throughput
	}
	if hotWindow {
		d.hot++
		if d.hot >= d.cfg.Consecutive {
			d.fired = true
			d.events++
			return true, throughput
		}
	} else {
		d.hot = 0
	}
	return false, throughput
}

// Rearm resets the episode state so a persistent overload can fire again
// without first clearing. The control loop re-arms after an episode whose
// plan could not be computed (e.g. the both-overloaded terminal case) or
// failed to execute. The overload was already confirmed by Consecutive hot
// windows, so the re-armed detector keeps the streak minus one: a single
// further hot window re-fires (sustained overload retries within one
// window), while one cool window demands full re-confirmation.
func (d *Detector) Rearm() {
	d.mu.Lock()
	d.fired = false
	d.hot = d.cfg.Consecutive - 1
	d.rearms++
	d.mu.Unlock()
}

// Events returns how many overload episodes have fired.
func (d *Detector) Events() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.events
}

// Clears returns how many fired episodes ended by utilization falling below
// ClearThreshold. Together with Events it measures fire/clear churn: a
// detector hovering at the threshold with a healthy hysteresis band clears
// at most once per genuine relief, while a band of zero churns.
func (d *Detector) Clears() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.clears
}

// Rearms returns how many times the control loop re-armed the detector
// after an episode without an executable plan.
func (d *Detector) Rearms() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rearms
}

// Config returns the detector's configuration with defaults applied.
func (d *Detector) Config() DetectorConfig { return d.cfg }

// Fired reports whether the detector is inside an overload episode (fired
// and not yet re-armed by utilization falling below ClearThreshold).
func (d *Detector) Fired() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fired
}

// SmoothedUtil returns the current smoothed NIC utilization.
func (d *Detector) SmoothedUtil() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.util.Value()
}

// SmoothedDMAUtil returns the current smoothed DMA-engine utilization.
func (d *Detector) SmoothedDMAUtil() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dma.Value()
}
