package core_test

// Selection under a crossing-bound overload: the shared PCIe DMA engine is
// saturated while both devices stay feasible. PAM and MultiPAM must trigger
// on the DMA utilization (measured or model), pick only candidates whose
// move does not add crossings, and terminate once the model's
// post-migration crossing load cools.

import (
	"errors"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/scenario"
)

// splitChain weaves CPU→NIC→CPU, costing 4 crossings per frame (ingress,
// lb→slog, slog→lb2, egress). Migrating the Logger — a border on both sides
// — merges the CPU segments and halves the crossings.
func splitChain(t *testing.T) *chain.Chain {
	t.Helper()
	c, err := chain.New("split",
		chain.Element{Name: "slb0", Type: device.TypeLoadBalancer, Loc: device.KindCPU},
		chain.Element{Name: "slog0", Type: device.TypeLogger, Loc: device.KindSmartNIC},
		chain.Element{Name: "slb1", Type: device.TypeLoadBalancer, Loc: device.KindCPU},
	)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPAMFiresOnModelDMAOverload(t *testing.T) {
	c := splitChain(t)
	if got := c.Crossings(); got != 4 {
		t.Fatalf("split chain crossings = %d, want 4", got)
	}
	v := scenario.View(c, scenario.DefaultParams(), 1.0)
	v.NIC.DMAEngineGbps = 4 // 4 crossings × 1.0 Gbps / 4 = 1.0 ≥ threshold
	// NIC utilization is only the Logger's 1/2 = 0.5: the devices are fine,
	// the interconnect is not.
	plan, err := core.PAM{}.Select(v)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Element != "slog0" {
		t.Fatalf("steps = %v, want single slog0 migration", plan.Steps)
	}
	if plan.After.Crossings >= plan.Before.Crossings {
		t.Errorf("crossings %d -> %d: a DMA-triggered move must reduce them",
			plan.Before.Crossings, plan.After.Crossings)
	}
	if plan.After.DMAUtil >= 1 {
		t.Errorf("post-migration model DMA util = %v, want < 1", plan.After.DMAUtil)
	}
}

func TestPAMFiresOnMeasuredDMAOverload(t *testing.T) {
	// The default 40 Gbps engine model sees nothing (4×1/40 = 0.1); only
	// the backend's measurement reports the saturation — as with the device
	// gates, the live dataplane's collapse is invisible to the model.
	v := scenario.View(splitChain(t), scenario.DefaultParams(), 1.0)
	v.MeasuredDMAUtil = 1.2
	plan, err := core.PAM{}.Select(v)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Element != "slog0" {
		t.Fatalf("steps = %v, want single slog0 migration", plan.Steps)
	}
}

func TestPAMDMARefusesCrossingAddingCandidates(t *testing.T) {
	// A chain entirely on the NIC crosses nowhere; its head/tail borders
	// would each *add* crossings if pushed aside. A DMA-triggered episode
	// must refuse them all and land in the terminal case rather than deepen
	// the interconnect overload.
	c, err := chain.New("nic-only",
		chain.Element{Name: "mon0", Type: device.TypeMonitor, Loc: device.KindSmartNIC},
		chain.Element{Name: "fw0", Type: device.TypeFirewall, Loc: device.KindSmartNIC},
	)
	if err != nil {
		t.Fatal(err)
	}
	v := scenario.View(c, scenario.DefaultParams(), 1.0)
	v.MeasuredDMAUtil = 1.2
	_, err = core.PAM{}.Select(v)
	if !errors.Is(err, core.ErrBothOverloaded) {
		t.Fatalf("err = %v, want ErrBothOverloaded (no crossing-neutral candidate)", err)
	}
}

func TestMultiPAMFiresOnAggregateDMAOverload(t *testing.T) {
	// The crossing-storm geometry: one split tenant plus two CPU-resident
	// Monitor tenants whose ingress+egress crossings load the same engine.
	// No tenant overloads anything alone; the NIC's aggregate utilization is
	// far below threshold; only the summed crossing demand saturates.
	split := splitChain(t)
	bgA, err := chain.New("bg-a", chain.Element{Name: "cmon0", Type: device.TypeMonitor, Loc: device.KindCPU})
	if err != nil {
		t.Fatal(err)
	}
	bgB, err := chain.New("bg-b", chain.Element{Name: "cmon1", Type: device.TypeMonitor, Loc: device.KindCPU})
	if err != nil {
		t.Fatal(err)
	}
	p := scenario.DefaultParams()
	nic, cpu := scenario.Devices(p)
	nic.DMAEngineGbps = 4.4 // (4×1.0 + 2×0.4 + 2×0.4)/4.4 ≈ 1.27
	v := core.MultiView{
		Loads: []core.Load{
			{Chain: bgA, Throughput: 0.4},
			{Chain: bgB, Throughput: 0.4},
			{Chain: split, Throughput: 1.0},
		},
		Catalog: device.Table1(),
		NIC:     nic,
		CPU:     cpu,
	}
	plan, err := core.MultiPAM{}.SelectMulti(v)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(plan.Steps) != 1 {
		t.Fatalf("steps = %v, want exactly one", plan.Steps)
	}
	st := plan.Steps[0]
	if st.ChainIndex != 2 || st.Step.Element != "slog0" || st.Step.To != device.KindCPU {
		t.Fatalf("step = %+v, want slog0 of chain 2 -> CPU", st)
	}
	if got := plan.Results[2].Crossings(); got != 2 {
		t.Errorf("split chain crossings after plan = %d, want 2", got)
	}
	// After the merge the engine cools: (2×1.0 + 0.8 + 0.8)/4.4 ≈ 0.82.
	if _, err := (core.MultiPAM{}).SelectMulti(core.MultiView{
		Loads: []core.Load{
			{Chain: plan.Results[0], Throughput: 0.4},
			{Chain: plan.Results[1], Throughput: 0.4},
			{Chain: plan.Results[2], Throughput: 1.0},
		},
		Catalog: device.Table1(),
		NIC:     nic,
		CPU:     cpu,
	}); !errors.Is(err, core.ErrNotOverloaded) {
		t.Errorf("post-plan Select err = %v, want ErrNotOverloaded", err)
	}
}
