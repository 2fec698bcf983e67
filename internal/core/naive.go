package core

import (
	"fmt"

	"repro/internal/device"
)

// The naive baselines. The paper's §3 describes the naive policy as picking
// "the vNF on SmartNIC with minimal capacity θS", while Figure 1(b) shows it
// migrating the mid-chain Monitor; DESIGN.md §2 (Inconsistency A) explains
// why both readings are implemented. All naive policies ignore chain
// geometry, which is exactly the behaviour PAM improves upon.

// NaiveMinNICCapacity migrates the single SmartNIC vNF with the smallest θS
// (the literal §3 sentence; UNO's "bottleneck vNF with minimum processing
// capacity").
type NaiveMinNICCapacity struct{}

// Name implements Selector.
func (NaiveMinNICCapacity) Name() string { return "Naive-MinNICCap" }

// Select implements Selector.
func (n NaiveMinNICCapacity) Select(v View) (Plan, error) {
	return naiveSingle(n.Name(), v, device.KindSmartNIC, func(g, best device.Gbps) bool { return g < best })
}

// NaiveCheapestOnCPU migrates the single SmartNIC vNF with the largest θC,
// i.e. the one cheapest to host on the CPU. On the Figure 1 chain this
// selects Monitor (θC = 10 Gbps), reproducing the migration the paper draws
// in Figure 1(b).
type NaiveCheapestOnCPU struct{}

// Name implements Selector.
func (NaiveCheapestOnCPU) Name() string { return "Naive-CheapCPU" }

// Select implements Selector.
func (n NaiveCheapestOnCPU) Select(v View) (Plan, error) {
	return naiveSingle(n.Name(), v, device.KindCPU, func(g, best device.Gbps) bool { return g > best })
}

// NaiveMinCapacityLoop is the iterative flavour of NaiveMinNICCapacity: it
// keeps migrating minimum-θS vNFs (checking the Eq. 2 CPU constraint, for
// fairness with PAM) until the SmartNIC is no longer overloaded, without any
// border awareness. It isolates the value of PAM's border restriction in
// the ablation benches.
type NaiveMinCapacityLoop struct{}

// Name implements Selector.
func (NaiveMinCapacityLoop) Name() string { return "Naive-MinCapLoop" }

// Select implements Selector: the selection loop with every SmartNIC
// resident as a candidate and no DMA-triggered episodes.
func (n NaiveMinCapacityLoop) Select(v View) (Plan, error) {
	return policy{name: n.Name()}.selectOne(v)
}

// naiveSingle implements the shared one-shot naive skeleton: verify the NIC
// is overloaded, then migrate the one NIC vNF whose capacity on kind is
// better than every other's (the first such in chain order).
func naiveSingle(name string, v View, kind device.Kind, better func(g, best device.Gbps) bool) (Plan, error) {
	overloaded, _, err := v.lift().overloaded()
	if err != nil {
		return Plan{}, err
	}
	if !overloaded {
		return Plan{}, ErrNotOverloaded
	}
	pick, best := -1, device.Gbps(0)
	for _, pos := range v.Chain.On(device.KindSmartNIC) {
		g, err := v.Catalog.Lookup(v.Chain.At(pos).Type, kind)
		if err != nil {
			return Plan{}, fmt.Errorf("%s: %w", name, err)
		}
		if pick < 0 || better(g, best) {
			pick, best = pos, g
		}
	}
	if pick < 0 {
		return Plan{}, ErrNoCandidate
	}
	work := v.Chain.Clone()
	work.SetLoc(pick, device.KindCPU)
	steps := []Step{{Element: work.At(pick).Name, From: device.KindSmartNIC, To: device.KindCPU}}
	return finishPlan(name, v, work, steps)
}
