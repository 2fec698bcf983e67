// Package core implements the paper's contribution: the PAM (Push Aside
// Migration) border-vNF selection algorithm of §2 — Steps 1–3 with
// Equations 1–3 — together with the naive baselines of §3 and Figure 1(b),
// and a fluid-model analyzer used to predict placement quality.
//
// The algorithm is a pure function from a load View (chain placement,
// capacity catalog, measured chain throughput) to a migration Plan; the
// orchestrator executes plans against the live dataplane.
package core

import (
	"errors"
	"fmt"

	"repro/internal/chain"
	"repro/internal/device"
)

// View is the controller's snapshot of the system at decision time: the
// current chain placement, the capacity catalog (θd_i), the measured chain
// throughput θcur, and the device models.
//
// θcur is the *delivered* chain throughput telemetry measures. Because a
// saturated device pins measured utilization at 1.0 (it can never exceed
// it), overload is declared at a threshold slightly below saturation,
// matching how operators "periodically query the load" in §2.
type View struct {
	Chain      *chain.Chain
	Catalog    device.Catalog
	Throughput device.Gbps // θcur, the measured (delivered) chain throughput
	NIC        device.Device
	CPU        device.Device
	BorderMode chain.BorderMode
	// OverloadThreshold is the model-utilization level at which the
	// SmartNIC counts as overloaded; zero selects
	// DefaultOverloadThreshold.
	OverloadThreshold float64
	// MeasuredNICUtil, when positive, overrides the fluid-model estimate in
	// the overload check with the telemetry-measured demand utilization
	// (Σ offered/θ over resident vNFs). A backend with shared device
	// capacity must supply it: its delivered throughput collapses under
	// overload, so the model evaluated at θcur can no longer exceed the
	// threshold even while offered demand does. Eq. 2/3 still run on the
	// model at θcur — feasibility of the *post-migration* placement is a
	// prediction only the model can make.
	MeasuredNICUtil float64
	// MeasuredCPUUtil is the CPU-side measured demand. When both measured
	// utilizations reach the threshold the selectors return
	// ErrBothOverloaded — the paper's scale-out terminal case, detected
	// from measurement rather than from the model's collapsed θcur. The
	// selection equations themselves consult the model.
	MeasuredCPUUtil float64
	// MeasuredDMAUtil, when positive, is the telemetry-measured PCIe
	// DMA-engine demand (offered crossing load over the shared engine
	// budget, in engine-seconds per second). A crossing-bound overload —
	// the engine saturated while both devices stay feasible — triggers
	// selection through it, and the selectors then refuse any candidate
	// whose move would *add* crossings and require the model's
	// post-migration DMA estimate to cool before terminating.
	MeasuredDMAUtil float64
}

// DefaultOverloadThreshold declares the NIC hot when the linear model puts
// its utilization at 95% or above.
const DefaultOverloadThreshold = 0.95

// Errors returned by selectors.
var (
	// ErrBothOverloaded mirrors the paper's terminal case: "If both CPU and
	// SmartNIC are overloaded ... the network operator must start another
	// instance" (scale-out is out of PAM's scope).
	ErrBothOverloaded = errors.New("core: both SmartNIC and CPU overloaded; scale out required")
	// ErrNotOverloaded reports that no migration is needed.
	ErrNotOverloaded = errors.New("core: SmartNIC is not overloaded")
	// ErrNoCandidate reports an empty candidate set: nothing on the
	// SmartNIC for a one-shot naive policy, no chain at all for the
	// selection loop. The loop also joins it to ErrBothOverloaded when its
	// candidates run out while the NIC stays hot, which is how the control
	// loop tells that verdict from measured demand on both devices.
	ErrNoCandidate = errors.New("core: no migratable vNF on the SmartNIC")
)

// Analysis is the fluid-model evaluation of a placement at a given
// throughput: per-device utilization and saturation, DMA-engine load from
// PCIe crossings, and the placement's maximum supportable chain throughput.
type Analysis struct {
	Crossings     int
	NICUtil       float64
	CPUUtil       float64
	DMAUtil       float64
	NICSaturation device.Gbps
	CPUSaturation device.Gbps
	DMASaturation device.Gbps
	MaxThroughput device.Gbps
}

// Analyze evaluates placement c under view parameters (catalog, devices) at
// throughput cur.
func Analyze(c *chain.Chain, v View, cur device.Gbps) (Analysis, error) {
	cross := c.Crossings()
	nicTypes := c.TypesOn(device.KindSmartNIC)
	cpuTypes := c.TypesOn(device.KindCPU)

	nicU, err := v.NIC.Utilization(v.Catalog, nicTypes, cur)
	if err != nil {
		return Analysis{}, fmt.Errorf("analyze NIC: %w", err)
	}
	cpuU, err := v.CPU.Utilization(v.Catalog, cpuTypes, cur)
	if err != nil {
		return Analysis{}, fmt.Errorf("analyze CPU: %w", err)
	}
	nicSat, err := v.NIC.Saturation(v.Catalog, nicTypes)
	if err != nil {
		return Analysis{}, fmt.Errorf("analyze NIC saturation: %w", err)
	}
	cpuSat, err := v.CPU.Saturation(v.Catalog, cpuTypes)
	if err != nil {
		return Analysis{}, fmt.Errorf("analyze CPU saturation: %w", err)
	}
	dmaSat := v.NIC.DMASaturation(cross)
	maxT := nicSat
	if cpuSat < maxT {
		maxT = cpuSat
	}
	if dmaSat < maxT {
		maxT = dmaSat
	}
	return Analysis{
		Crossings:     cross,
		NICUtil:       nicU,
		CPUUtil:       cpuU,
		DMAUtil:       v.NIC.DMAUtilization(cur, cross),
		NICSaturation: nicSat,
		CPUSaturation: cpuSat,
		DMASaturation: dmaSat,
		MaxThroughput: maxT,
	}, nil
}

// Step is one vNF migration.
type Step struct {
	Element string
	From    device.Kind
	To      device.Kind
}

// String renders the step.
func (s Step) String() string {
	return fmt.Sprintf("%s: %v -> %v", s.Element, s.From, s.To)
}

// Plan is a selector's decision: the ordered migrations and the resulting
// placement, with before/after analyses at the view's throughput.
type Plan struct {
	Selector string
	Steps    []Step
	Result   *chain.Chain
	Before   Analysis
	After    Analysis
}

// Empty reports whether the plan migrates nothing.
func (p Plan) Empty() bool { return len(p.Steps) == 0 }

// String summarizes the plan.
func (p Plan) String() string {
	if p.Empty() {
		return fmt.Sprintf("%s: no migration", p.Selector)
	}
	s := fmt.Sprintf("%s: %d migration(s):", p.Selector, len(p.Steps))
	for _, st := range p.Steps {
		s += " [" + st.String() + "]"
	}
	s += fmt.Sprintf(" crossings %d -> %d", p.Before.Crossings, p.After.Crossings)
	return s
}

// Selector decides which vNFs to migrate off an overloaded SmartNIC.
type Selector interface {
	// Name identifies the policy in reports.
	Name() string
	// Select computes a migration plan for the view. Implementations must
	// not mutate v.Chain; the plan's Result is a modified clone.
	Select(v View) (Plan, error)
}

// finishPlan builds the single-chain plan around the placement a selector
// decided on, with the fluid-model analyses before and after.
func finishPlan(name string, v View, work *chain.Chain, steps []Step) (Plan, error) {
	before, err := Analyze(v.Chain, v, v.Throughput)
	if err != nil {
		return Plan{}, err
	}
	after, err := Analyze(work, v, v.Throughput)
	if err != nil {
		return Plan{}, err
	}
	return Plan{Selector: name, Steps: steps, Result: work, Before: before, After: after}, nil
}
