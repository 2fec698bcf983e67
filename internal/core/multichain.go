package core

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/device"
)

// The selection loop. The paper evaluates a single service chain, but an
// NFV server hosts many chains sharing one SmartNIC and CPU; utilizations
// then sum across chains (the linear model is additive), and a hot spot can
// be relieved by pushing borders aside in any chain. Steps 1–3 / Eq. 1–3
// are therefore implemented once, over a MultiView, in policy.run; the
// paper's single-chain algorithm is its one-load case (View.lift), and the
// selectors — PAM, MultiPAM, NaiveMinCapacityLoop — are policy values.

// Load pairs a chain with its measured throughput.
type Load struct {
	Chain      *chain.Chain
	Throughput device.Gbps
}

// MultiView is the controller's snapshot for a multi-chain deployment.
type MultiView struct {
	Loads      []Load
	Catalog    device.Catalog
	NIC        device.Device
	CPU        device.Device
	BorderMode chain.BorderMode
	// OverloadThreshold as in View; zero selects the default.
	OverloadThreshold float64
	// MeasuredNICUtil and MeasuredCPUUtil as in View: the aggregate
	// telemetry-measured demand utilizations, which a shared-capacity
	// backend supplies because its delivered throughput (and therefore the
	// model's Σ θcur/θd estimate) collapses under the very overload being
	// detected.
	MeasuredNICUtil float64
	MeasuredCPUUtil float64
	// MeasuredDMAUtil as in View: the measured PCIe DMA-engine demand
	// summed over every chain's crossings. The engine is one budget shared
	// by all tenants, so a crossing-bound hot spot can exist in the sum
	// alone.
	MeasuredDMAUtil float64
}

// lift is the view as the one-load MultiView the selection loop runs on.
func (v View) lift() MultiView {
	return MultiView{
		Loads:             []Load{{Chain: v.Chain, Throughput: v.Throughput}},
		Catalog:           v.Catalog,
		NIC:               v.NIC,
		CPU:               v.CPU,
		BorderMode:        v.BorderMode,
		OverloadThreshold: v.OverloadThreshold,
		MeasuredNICUtil:   v.MeasuredNICUtil,
		MeasuredCPUUtil:   v.MeasuredCPUUtil,
		MeasuredDMAUtil:   v.MeasuredDMAUtil,
	}
}

// lower is lift's inverse, defined on one-load views only.
func (v MultiView) lower() View {
	return View{
		Chain:             v.Loads[0].Chain,
		Throughput:        v.Loads[0].Throughput,
		Catalog:           v.Catalog,
		NIC:               v.NIC,
		CPU:               v.CPU,
		BorderMode:        v.BorderMode,
		OverloadThreshold: v.OverloadThreshold,
		MeasuredNICUtil:   v.MeasuredNICUtil,
		MeasuredCPUUtil:   v.MeasuredCPUUtil,
		MeasuredDMAUtil:   v.MeasuredDMAUtil,
	}
}

// threshold is the utilization at which a resource counts as overloaded.
func (v MultiView) threshold() float64 {
	if v.OverloadThreshold <= 0 {
		return DefaultOverloadThreshold
	}
	return v.OverloadThreshold
}

// util sums dev's fluid-model utilization Σ θcur/θd over every chain's
// residents of the given kind, each at its chain's throughput (no DMA term:
// Eq. 2/3 semantics).
func (v MultiView) util(dev device.Device, kind device.Kind) (float64, error) {
	var u float64
	for _, l := range v.Loads {
		var uc float64
		for _, e := range l.Chain.Elems {
			if e.Loc != kind {
				continue
			}
			ue, err := dev.Utilization(v.Catalog, []string{e.Type}, l.Throughput)
			if err != nil {
				return 0, err
			}
			uc += ue
		}
		u += uc
	}
	return u, nil
}

// nicUtil is util for the SmartNIC.
func (v MultiView) nicUtil() (float64, error) {
	return v.util(device.Device{Kind: device.KindSmartNIC}, device.KindSmartNIC)
}

// dmaUtil sums the fluid model's DMA-engine utilization over all chains at
// their respective throughputs: every tenant's crossings draw on the one
// shared engine. Zero when the NIC device models no DMA engines.
func (v MultiView) dmaUtil() float64 {
	var u float64
	for _, l := range v.Loads {
		u += v.NIC.DMAUtilization(l.Throughput, l.Chain.Crossings())
	}
	return u
}

// overloaded validates the view's chains and reports whether the SmartNIC
// and the PCIe DMA engine reach the overload threshold. Each is judged on
// the measured aggregate demand when the backend supplied one (shared
// device capacity collapses delivered throughput, so the model's Σ θcur/θd
// cannot exceed the threshold during the very overload being handled) and
// on the fluid model otherwise.
func (v MultiView) overloaded() (nic, dma bool, err error) {
	for i, l := range v.Loads {
		if err := l.Chain.Validate(); err != nil {
			return false, false, fmt.Errorf("core: chain %d: %w", i, err)
		}
	}
	nicU := v.MeasuredNICUtil
	if nicU <= 0 {
		if nicU, err = v.nicUtil(); err != nil {
			return false, false, err
		}
	}
	dmaU := v.MeasuredDMAUtil
	if dmaU <= 0 {
		dmaU = v.dmaUtil()
	}
	th := v.threshold()
	return nicU >= th, dmaU >= th, nil
}

// MultiPlan is a plan over several chains: per-chain migration steps plus
// the resulting placements (parallel to the view's Loads).
type MultiPlan struct {
	Selector string
	Steps    []MultiStepEntry
	Results  []*chain.Chain
}

// MultiStepEntry tags a Step with the chain it belongs to.
type MultiStepEntry struct {
	ChainIndex int
	Step       Step
}

// Empty reports whether the plan migrates nothing.
func (p MultiPlan) Empty() bool { return len(p.Steps) == 0 }

// String summarizes the plan.
func (p MultiPlan) String() string {
	name := p.Selector
	if name == "" {
		name = "multi"
	}
	if p.Empty() {
		return name + ": no migration"
	}
	s := fmt.Sprintf("%s: %d migration(s):", name, len(p.Steps))
	for _, st := range p.Steps {
		s += fmt.Sprintf(" [chain %d: %v]", st.ChainIndex, st.Step)
	}
	return s
}

// MultiSelector decides which vNFs to migrate off an overloaded SmartNIC in
// a multi-chain deployment. It is the control loop's native selector
// interface; single-chain Selectors participate through AsMulti.
type MultiSelector interface {
	// Name identifies the policy in reports.
	Name() string
	// SelectMulti computes a migration plan for the view. Implementations
	// must not mutate the view's chains; the plan's Results are modified
	// clones parallel to the view's Loads.
	SelectMulti(v MultiView) (MultiPlan, error)
}

// AsMulti turns a single-chain Selector into a MultiSelector for views with
// exactly one load — the inverse of the lift every built-in Select performs
// (lower the view, select, tag the steps with chain 0). Both engines use it
// when the operator configures a paper-mode (single-chain) policy. A
// multi-chain view is rejected rather than silently projected onto one
// tenant.
func AsMulti(sel Selector) MultiSelector { return singleAsMulti{sel} }

type singleAsMulti struct{ sel Selector }

func (a singleAsMulti) Name() string { return a.sel.Name() }

func (a singleAsMulti) SelectMulti(v MultiView) (MultiPlan, error) {
	if len(v.Loads) != 1 {
		return MultiPlan{}, fmt.Errorf("core: selector %q is single-chain; view has %d chains (use a MultiSelector)",
			a.sel.Name(), len(v.Loads))
	}
	p, err := a.sel.Select(v.lower())
	if err != nil {
		return MultiPlan{}, err
	}
	mp := MultiPlan{Selector: p.Selector, Results: []*chain.Chain{p.Result}}
	for _, st := range p.Steps {
		mp.Steps = append(mp.Steps, MultiStepEntry{ChainIndex: 0, Step: st})
	}
	return mp, nil
}

// MultiPAM runs the PAM loop over a multi-chain view: while the SmartNIC's
// aggregate utilization is at or above the threshold, pick — across all
// chains — the border vNF with minimum θS whose move passes the aggregate
// Eq. 2 check, migrate it, slide that chain's border, and repeat. With one
// chain this is the paper's algorithm.
type MultiPAM struct {
	Mode chain.BorderMode
}

// Name identifies the policy.
func (MultiPAM) Name() string { return "Multi-PAM" }

// SelectMulti implements MultiSelector. It returns ErrNotOverloaded when
// neither the aggregate NIC nor the DMA-engine utilization reaches the
// threshold and ErrBothOverloaded when the border sets empty out while the
// hot spot remains.
func (m MultiPAM) SelectMulti(v MultiView) (MultiPlan, error) {
	return policy{name: m.Name(), borders: true, mode: m.Mode, dma: true}.run(v)
}

// policy is what the selectors built on the loop differ in.
type policy struct {
	name string
	// borders restricts Step 1's candidates to the border sets BL ∪ BR;
	// false admits every SmartNIC-resident vNF (the geometry-blind
	// ablation).
	borders bool
	// mode selects border identification semantics; the view's BorderMode,
	// when not the paper's, takes precedence.
	mode chain.BorderMode
	// dma lets a crossing-bound overload — the shared DMA engine saturated
	// while the NIC itself stays feasible — trigger an episode. Such an
	// episode refuses candidates whose move adds crossings and terminates
	// only once the model's post-migration crossing load cools.
	dma bool
}

// site addresses one vNF of a multi-chain view.
type site struct{ chain, pos int }

// candidate is a site ranked by Eq. 1.
type candidate struct {
	site
	cap device.Gbps // θS
}

// before is Eq. 1's order: smallest θS first, ties broken by chain index
// and then position for determinism.
func (a candidate) before(b candidate) bool {
	if a.cap != b.cap {
		return a.cap < b.cap
	}
	if a.chain != b.chain {
		return a.chain < b.chain
	}
	return a.pos < b.pos
}

// errExhausted is the terminal case reached by elimination: every candidate
// failed Eq. 2 or the crossing-relief guard while the hot spot remains.
var errExhausted = fmt.Errorf("%w (%w)", ErrBothOverloaded, ErrNoCandidate)

// candidates is Step 1 for one chain: the position sets to rank. A position
// may appear in both sets; ranking is idempotent.
func (p policy) candidates(c *chain.Chain, mode chain.BorderMode) [2][]int {
	if !p.borders {
		return [2][]int{c.On(device.KindSmartNIC)}
	}
	bl, br := c.Borders(mode)
	return [2][]int{bl, br}
}

// run is the paper's §2 algorithm.
//
// Step 1 — Border vNF identification: the left/right border sets BL/BR of
// SmartNIC-resident vNFs whose neighbour sits on the CPU, in every chain.
//
// Step 2 — Migration vNF selection (Eq. 1): b0 = argmin over BL ∪ BR of θS.
//
// Step 3 — Overload alleviation check: (Eq. 2) migrating b0 must not create
// a CPU hot spot — otherwise drop b0 from the border sets and retry Step 2;
// (Eq. 3) if, with b0 pushed aside, the SmartNIC is no longer overloaded,
// migrate b0 and terminate; otherwise migrate b0 and loop — recomputing the
// border sets from the updated placement slides the border inward
// (downstream of a left border, upstream of a right border).
//
// If the border sets empty out while the SmartNIC is still overloaded the
// paper's terminal case applies and ErrBothOverloaded is returned. Every
// pass either excludes or migrates one candidate, so the loop ends.
func (p policy) run(v MultiView) (MultiPlan, error) {
	if len(v.Loads) == 0 {
		return MultiPlan{}, ErrNoCandidate
	}
	overNIC, overDMA, err := v.overloaded()
	if err != nil {
		return MultiPlan{}, err
	}
	overDMA = overDMA && p.dma
	if !overNIC && !overDMA {
		return MultiPlan{}, ErrNotOverloaded
	}
	// The paper's terminal case, detected from measurement: when the
	// backend reports both devices' demand at or past the threshold there
	// is nowhere to push aside to — the model's Eq. 2, evaluated at the
	// collapsed delivered θcur, could not see it.
	if th := v.threshold(); v.MeasuredNICUtil >= th && v.MeasuredCPUUtil >= th {
		return MultiPlan{}, ErrBothOverloaded
	}
	mode := p.mode
	if v.BorderMode != chain.BorderModePaper {
		mode = v.BorderMode
	}

	// The working view: the same loads over cloned placements the loop
	// mutates, so every model sum below sees the migrations so far.
	v.Loads = append([]Load(nil), v.Loads...)
	for i := range v.Loads {
		v.Loads[i].Chain = v.Loads[i].Chain.Clone()
	}
	excluded := make(map[site]bool) // rejected by Eq. 2 or the crossing guard

	var steps []MultiStepEntry
	for {
		// Step 2 (Eq. 1): minimum-θS candidate not yet excluded.
		b0 := candidate{site: site{chain: -1}}
		for ci, l := range v.Loads {
			if l.Throughput <= 0 {
				continue // a chain carrying nothing offers no relief
			}
			for _, set := range p.candidates(l.Chain, mode) {
				for _, pos := range set {
					c := candidate{site: site{ci, pos}}
					if excluded[c.site] {
						continue
					}
					if c.cap, err = v.Catalog.Lookup(l.Chain.At(pos).Type, device.KindSmartNIC); err != nil {
						return MultiPlan{}, fmt.Errorf("core: %w", err)
					}
					if b0.chain < 0 || c.before(b0) {
						b0 = c
					}
				}
			}
		}
		if b0.chain < 0 {
			return MultiPlan{}, errExhausted
		}
		load := v.Loads[b0.chain]
		elem := load.Chain.At(b0.pos)

		// Step 3 check 1 (Eq. 2): the CPU must absorb b0 without a new hot
		// spot: Σ_{i on C} θcur/θC_i + θcur/θC_b0 < 1, summed over every
		// chain. A type with no CPU capacity fails it like any other.
		cpuU, err := v.util(v.CPU, device.KindCPU)
		if err != nil {
			return MultiPlan{}, fmt.Errorf("core: %w", err)
		}
		added, err := v.CPU.Utilization(v.Catalog, []string{elem.Type}, load.Throughput)
		if err != nil || cpuU+added >= 1 {
			excluded[b0.site] = true
			continue // back to Step 2
		}

		// Migrate b0. A DMA-triggered episode must relieve the interconnect:
		// a candidate whose move *adds* crossings (possible for the paper
		// mode's head/tail borders) would deepen the very overload being
		// handled, so it is put back and excluded like an Eq. 2 failure.
		crossings := load.Chain.Crossings()
		load.Chain.SetLoc(b0.pos, device.KindCPU)
		if overDMA && load.Chain.Crossings() > crossings {
			load.Chain.SetLoc(b0.pos, device.KindSmartNIC)
			excluded[b0.site] = true
			continue
		}
		steps = append(steps, MultiStepEntry{
			ChainIndex: b0.chain,
			Step:       Step{Element: elem.Name, From: device.KindSmartNIC, To: device.KindCPU},
		})

		// Step 3 check 2 (Eq. 3): Σ_{i on S, i≠b0} θcur/θS_i < 1. The
		// paper's equation sums plain vNF utilizations; in a NIC-triggered
		// episode the DMA charge for crossings stays a dataplane effect the
		// algorithm does not see. A DMA-triggered episode additionally
		// requires the model's post-migration crossing load to cool below
		// the engine budget before terminating.
		nicU, err := v.nicUtil()
		if err != nil {
			return MultiPlan{}, fmt.Errorf("core: %w", err)
		}
		if nicU < 1 && (!overDMA || v.dmaUtil() < 1) {
			results := make([]*chain.Chain, len(v.Loads))
			for i, l := range v.Loads {
				results[i] = l.Chain
			}
			return MultiPlan{Selector: p.name, Steps: steps, Results: results}, nil
		}
	}
}

// selectOne is every loop-based single-chain Select: lift the view to one
// load, run the loop, lower the plan.
func (p policy) selectOne(v View) (Plan, error) {
	mp, err := p.run(v.lift())
	if err != nil {
		return Plan{}, err
	}
	steps := make([]Step, len(mp.Steps))
	for i, st := range mp.Steps {
		steps[i] = st.Step
	}
	return finishPlan(mp.Selector, v, mp.Results[0], steps)
}
