package core_test

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/scenario"
)

func multiView(loads ...core.Load) core.MultiView {
	p := scenario.DefaultParams()
	nic, cpu := scenario.Devices(p)
	return core.MultiView{
		Loads:   loads,
		Catalog: device.Table1(),
		NIC:     nic,
		CPU:     cpu,
	}
}

// With exactly one chain, MultiPAM must make the same decision as PAM: the
// same outcome and, when that is a plan, the same steps and the same
// resulting placement from both entry points.
func TestMultiPAMReducesToSingleChainPAM(t *testing.T) {
	agree := func(t *testing.T, v core.MultiView) (core.MultiPlan, bool) {
		multi, merr := core.MultiPAM{}.SelectMulti(v)
		single, serr := core.AsMulti(core.PAM{}).SelectMulti(v)
		if merr != nil || serr != nil {
			if !sameVerdict(merr, serr) {
				t.Logf("on %v: multi err %v, single err %v", v.Loads[0].Chain, merr, serr)
				return multi, false
			}
			return multi, true
		}
		if !reflect.DeepEqual(multi.Steps, single.Steps) ||
			multi.Results[0].PlacementSignature() != single.Results[0].PlacementSignature() {
			t.Logf("on %v: multi %v -> %v, single %v -> %v", v.Loads[0].Chain,
				multi, multi.Results[0], single, single.Results[0])
			return multi, false
		}
		return multi, true
	}

	// A border whose type cannot run on the CPU at all (θC = 0) fails Eq. 2
	// like any other infeasible candidate; it is not a selection error.
	nicOnly := multiView(core.Load{Chain: mustChain(t,
		chain.Element{Name: "lb0", Type: device.TypeLoadBalancer, Loc: device.KindCPU},
		chain.Element{Name: "nic0", Type: "NICOnly", Loc: device.KindSmartNIC},
		chain.Element{Name: "mon0", Type: device.TypeMonitor, Loc: device.KindSmartNIC},
		chain.Element{Name: "fw0", Type: device.TypeFirewall, Loc: device.KindSmartNIC},
	), Throughput: 1.05})
	nicOnly.Catalog["NICOnly"] = device.Capacity{SmartNIC: 1.5}

	for _, tc := range []struct {
		name  string
		view  core.MultiView
		steps []string
	}{
		{"figure1", multiView(core.Load{Chain: scenario.Figure1Chain(), Throughput: 1.05}), []string{scenario.NameLogger}},
		{"nic-only border", nicOnly, []string{"fw0", "mon0"}},
		// Equal θS: the lower position wins, although it is only a right
		// border and the higher one is also a left border.
		{"tie", multiView(core.Load{Chain: tieChain(t), Throughput: 2.2}), []string{"monA"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, ok := agree(t, tc.view)
			if !ok {
				t.Fatal("entry points disagree")
			}
			var got []string
			for _, st := range plan.Steps {
				got = append(got, st.Step.Element)
			}
			if !reflect.DeepEqual(got, tc.steps) {
				t.Errorf("steps = %v, want %v", got, tc.steps)
			}
		})
	}

	for _, dma := range []bool{false, true} {
		f := func(seed int64, tp uint8) bool {
			_, ok := agree(t, randomView(seed, tp, 1, dma))
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	}
}

// sameVerdict reports whether two selection errors are the same outcome.
func sameVerdict(a, b error) bool {
	for _, verdict := range []error{core.ErrNotOverloaded, core.ErrBothOverloaded, core.ErrNoCandidate} {
		if errors.Is(a, verdict) != errors.Is(b, verdict) {
			return false
		}
	}
	return (a == nil) == (b == nil)
}

// tieChain has two Monitors of equal θS among its borders: monA at
// position 1 (a right border only) and monB at position 3 (left and right).
func tieChain(t *testing.T) *chain.Chain {
	return mustChain(t,
		chain.Element{Name: "fwT", Type: device.TypeFirewall, Loc: device.KindSmartNIC},
		chain.Element{Name: "monA", Type: device.TypeMonitor, Loc: device.KindSmartNIC},
		chain.Element{Name: "lbT", Type: device.TypeLoadBalancer, Loc: device.KindCPU},
		chain.Element{Name: "monB", Type: device.TypeMonitor, Loc: device.KindSmartNIC},
	)
}

func TestMultiPAMAggregatesUtilization(t *testing.T) {
	// Two half-loaded copies of the Figure-1 chain: each alone is fine
	// (util 0.55×0.9125 = 0.50) but together the NIC is at 1.0. MultiPAM
	// must see the aggregate hot spot and migrate.
	a := scenario.Figure1Chain()
	b := scenario.Figure1Chain()
	b.Name = "figure1-b"
	v := multiView(
		core.Load{Chain: a, Throughput: 0.55},
		core.Load{Chain: b, Throughput: 0.55},
	)
	plan, err := core.MultiPAM{}.SelectMulti(v)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if plan.Empty() {
		t.Fatal("no migration despite aggregate overload")
	}
	// The minimum-θS border across both chains is a Logger (θS = 2).
	if plan.Steps[0].Step.Element != scenario.NameLogger {
		t.Errorf("first step = %v, want a logger", plan.Steps[0])
	}
	// Crossings must not grow in any chain.
	for i, res := range plan.Results {
		if res.Crossings() != v.Loads[i].Chain.Crossings() {
			t.Errorf("chain %d crossings %d -> %d", i, v.Loads[i].Chain.Crossings(), res.Crossings())
		}
	}
	// Aggregate NIC must now be below 1 under Eq. 3 semantics.
	nic := device.Device{Kind: device.KindSmartNIC}
	var u float64
	for i, res := range plan.Results {
		ui, err := nic.Utilization(v.Catalog, res.TypesOn(device.KindSmartNIC), v.Loads[i].Throughput)
		if err != nil {
			t.Fatal(err)
		}
		u += ui
	}
	if u >= 1 {
		t.Errorf("aggregate NIC util %.3f after plan", u)
	}
}

func TestMultiPAMNotOverloaded(t *testing.T) {
	v := multiView(core.Load{Chain: scenario.Figure1Chain(), Throughput: 0.3})
	_, err := (core.MultiPAM{}).SelectMulti(v)
	if !errors.Is(err, core.ErrNotOverloaded) {
		t.Fatalf("err = %v, want ErrNotOverloaded", err)
	}
}

func TestMultiPAMBothOverloaded(t *testing.T) {
	// CPU already carries too much for any border to move.
	a := scenario.Figure1Chain()
	soaked := multiView(
		core.Load{Chain: a, Throughput: 1.05},
		// A second chain placed entirely on the CPU soaks its capacity.
		core.Load{Chain: mustChain(t,
			chain.Element{Name: "x0", Type: device.TypeLoadBalancer, Loc: device.KindCPU},
			chain.Element{Name: "x1", Type: device.TypeFirewall, Loc: device.KindCPU},
		), Throughput: 2.5},
	)
	// CPU util: LB(a) 1.05/4 + LB(x) 2.5/4 + FW(x) 2.5/4 = 1.51 — anything
	// more overloads it.

	// The fleet episode's geometry in a window whose measured CPU demand
	// dipped under the threshold: delivered rates have collapsed to what the
	// NIC grants (model NIC (1.04+0.94)/2 = 0.99), both loaded Loggers fail
	// Eq. 2 (CPU 0.91 + ≥ 0.235), and the only feasible border belongs to a
	// chain that carries nothing. Moving it relieves nothing — Eq. 3 would
	// "hold" only because the collapsed model already satisfied it — so the
	// verdict is still the terminal case.
	single := func(name, typ string, loc device.Kind) *chain.Chain {
		return mustChain(t, chain.Element{Name: name, Type: typ, Loc: loc})
	}
	idle := multiView(
		core.Load{Chain: single("log0", device.TypeLogger, device.KindSmartNIC), Throughput: 1.04},
		core.Load{Chain: single("fw0", device.TypeFirewall, device.KindCPU), Throughput: 2.7},
		core.Load{Chain: mustChain(t,
			chain.Element{Name: "log1", Type: device.TypeLogger, Loc: device.KindSmartNIC},
			chain.Element{Name: "fw1", Type: device.TypeFirewall, Loc: device.KindCPU},
		), Throughput: 0.94},
		core.Load{Chain: single("mon0", device.TypeMonitor, device.KindSmartNIC)},
	)
	idle.MeasuredNICUtil, idle.MeasuredCPUUtil = 1.35, 0.93

	for name, v := range map[string]core.MultiView{"cpu soaked": soaked, "idle chain's border": idle} {
		if _, err := (core.MultiPAM{}).SelectMulti(v); !errors.Is(err, core.ErrBothOverloaded) {
			t.Errorf("%s: err = %v, want ErrBothOverloaded", name, err)
		}
	}
}

func TestMultiPAMEmptyView(t *testing.T) {
	_, err := (core.MultiPAM{}).SelectMulti(core.MultiView{})
	if !errors.Is(err, core.ErrNoCandidate) {
		t.Fatalf("err = %v, want ErrNoCandidate", err)
	}
}

func TestMultiPAMPrefersGlobalMinCapacityBorder(t *testing.T) {
	// Chain A's only border is a Firewall (θS 10); chain B's border is a
	// Logger (θS 2). Both are Eq.-2-feasible; the global Eq. 1 argmin must
	// pick B's logger even though A is listed first.
	// NIC: 6.0/10 + 0.7/2 = 0.95 (hot). CPU: monA 6/10 + lbB 0.7/4 = 0.775;
	// adding logB costs 0.7/4 = 0.175 → 0.95 < 1 (feasible).
	a := mustChain(t,
		chain.Element{Name: "monA", Type: device.TypeMonitor, Loc: device.KindCPU},
		chain.Element{Name: "fwA", Type: device.TypeFirewall, Loc: device.KindSmartNIC},
	)
	b := mustChain(t,
		chain.Element{Name: "lbB", Type: device.TypeLoadBalancer, Loc: device.KindCPU},
		chain.Element{Name: "logB", Type: device.TypeLogger, Loc: device.KindSmartNIC},
	)
	// Three Monitors tie on θS: chain 0's monA (position 1) and monB
	// (position 3), chain 1's monC (position 0). Chain index breaks the tie
	// first, then position — not position alone (monC), not BL before BR
	// (monB). NIC: 1.5×0.725 + 0.5/3.2 = 1.24 (hot).
	c := mustChain(t,
		chain.Element{Name: "monC", Type: device.TypeMonitor, Loc: device.KindSmartNIC},
		chain.Element{Name: "lbC", Type: device.TypeLoadBalancer, Loc: device.KindCPU},
	)
	for _, tc := range []struct {
		name      string
		loads     []core.Load
		wantChain int
		wantElem  string
	}{
		{"min θS across chains", []core.Load{{Chain: a, Throughput: 6.0}, {Chain: b, Throughput: 0.7}}, 1, "logB"},
		{"equal θS: chain index, then position", []core.Load{{Chain: tieChain(t), Throughput: 1.5}, {Chain: c, Throughput: 0.5}}, 0, "monA"},
	} {
		plan, err := core.MultiPAM{}.SelectMulti(multiView(tc.loads...))
		if err != nil {
			t.Fatalf("%s: Select: %v", tc.name, err)
		}
		if plan.Steps[0].ChainIndex != tc.wantChain || plan.Steps[0].Step.Element != tc.wantElem {
			t.Errorf("%s: first step = %+v, want %s from chain %d", tc.name, plan.Steps[0], tc.wantElem, tc.wantChain)
		}
	}
}

func mustChain(t *testing.T, elems ...chain.Element) *chain.Chain {
	t.Helper()
	c, err := chain.New("t", elems...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
