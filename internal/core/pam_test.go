package core_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/scenario"
)

func figure1View(t *testing.T, throughput device.Gbps) core.View {
	t.Helper()
	return scenario.View(scenario.Figure1Chain(), scenario.DefaultParams(), throughput)
}

func TestPAMSelectsLoggerOnFigure1(t *testing.T) {
	v := figure1View(t, 1.05) // just past the NIC saturation point
	plan, err := core.PAM{}.Select(v)
	if err != nil {
		t.Fatalf("PAM.Select: %v", err)
	}
	if len(plan.Steps) != 1 {
		t.Fatalf("steps = %v, want exactly one", plan.Steps)
	}
	if got := plan.Steps[0].Element; got != scenario.NameLogger {
		t.Errorf("migrated %q, want %q (the min-capacity border vNF)", got, scenario.NameLogger)
	}
	if plan.After.Crossings != plan.Before.Crossings {
		t.Errorf("crossings %d -> %d, PAM must not add PCIe crossings on figure1",
			plan.Before.Crossings, plan.After.Crossings)
	}
	if plan.Result.At(plan.Result.Index(scenario.NameLogger)).Loc != device.KindCPU {
		t.Errorf("result placement does not have Logger on CPU: %v", plan.Result)
	}
	// Original chain must be untouched.
	if v.Chain.At(v.Chain.Index(scenario.NameLogger)).Loc != device.KindSmartNIC {
		t.Errorf("Select mutated the input chain")
	}
}

func TestPAMNotOverloaded(t *testing.T) {
	v := figure1View(t, 0.5) // well under saturation
	_, err := core.PAM{}.Select(v)
	if !errors.Is(err, core.ErrNotOverloaded) {
		t.Fatalf("err = %v, want ErrNotOverloaded", err)
	}
}

func TestPAMBothOverloaded(t *testing.T) {
	// At a measured throughput the CPU cannot absorb any border vNF
	// (Eq. 2 fails for every candidate), PAM must report the paper's
	// terminal scale-out case.
	v := figure1View(t, 3.5) // LB alone puts CPU at 0.875; +any vNF exceeds 1
	_, err := core.PAM{}.Select(v)
	if !errors.Is(err, core.ErrBothOverloaded) {
		t.Fatalf("err = %v, want ErrBothOverloaded", err)
	}
}

// TestPAMMeasuredDemandOverrides covers the shared-capacity backend's view:
// measured demand drives the overload check when the model (evaluated at a
// collapsed delivered θcur) can no longer see the hot spot, and measured
// demand past the threshold on *both* devices is the paper's scale-out
// terminal case.
func TestPAMMeasuredDemandOverrides(t *testing.T) {
	// Model says calm (θcur 0.5 → NIC util ≈ 0.46), measurement says hot:
	// the measured demand must win and produce the Figure-1 plan.
	v := figure1View(t, 0.5)
	v.MeasuredNICUtil = 1.4
	plan, err := core.PAM{}.Select(v)
	if err != nil {
		t.Fatalf("PAM.Select with measured NIC demand: %v", err)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Element != scenario.NameLogger {
		t.Errorf("plan = %v, want the Logger push-aside", plan)
	}

	// Measurement says calm even though the model would fire: not overloaded.
	v = figure1View(t, 1.05)
	v.MeasuredNICUtil = 0.5
	if _, err := (core.PAM{}).Select(v); !errors.Is(err, core.ErrNotOverloaded) {
		t.Errorf("err = %v, want ErrNotOverloaded when measured demand is calm", err)
	}

	// Both devices' measured demand past the threshold: terminal case, even
	// though Eq. 2 at the collapsed θcur would look feasible.
	v = figure1View(t, 0.5)
	v.MeasuredNICUtil = 1.4
	v.MeasuredCPUUtil = 1.1
	if _, err := (core.PAM{}).Select(v); !errors.Is(err, core.ErrBothOverloaded) {
		t.Errorf("err = %v, want ErrBothOverloaded on measured double overload", err)
	}
}

func TestPAMEq2ExcludesAndFallsBack(t *testing.T) {
	// Craft capacities where the min-capacity border (Logger) would
	// overload the CPU, so PAM must fall back to the other border
	// (Firewall) instead of migrating mid-chain.
	v := figure1View(t, 1.05)
	cat := v.Catalog.Clone()
	cat[device.TypeLogger] = device.Capacity{SmartNIC: 2, CPU: 0.5}  // CPU can't host it
	cat[device.TypeFirewall] = device.Capacity{SmartNIC: 3, CPU: 40} // cheap on CPU
	v.Catalog = cat
	plan, err := core.PAM{}.Select(v)
	if err != nil {
		t.Fatalf("PAM.Select: %v", err)
	}
	if len(plan.Steps) == 0 || plan.Steps[0].Element != scenario.NameFirewall {
		t.Fatalf("steps = %v, want firewall first (logger excluded by Eq. 2)", plan.Steps)
	}
	for _, s := range plan.Steps {
		if s.Element == scenario.NameLogger {
			t.Errorf("logger migrated despite Eq. 2 exclusion: %v", plan.Steps)
		}
	}
}

func TestPAMMultiStepSlidesBorder(t *testing.T) {
	// Make every NIC vNF expensive enough that migrating one border is not
	// sufficient (Eq. 3 keeps failing) and the CPU roomy enough to accept
	// several: PAM must slide the border inward and migrate multiple vNFs,
	// in border order only.
	c := scenario.Figure1Chain()
	v := scenario.View(c, scenario.DefaultParams(), 1.5)
	cat := device.Catalog{
		device.TypeLoadBalancer: {SmartNIC: device.Unbounded, CPU: 100},
		device.TypeLogger:       {SmartNIC: 2, CPU: 100},
		device.TypeMonitor:      {SmartNIC: 2.1, CPU: 100},
		device.TypeFirewall:     {SmartNIC: 2.2, CPU: 100},
	}
	v.Catalog = cat
	// NIC util at 1.5: 1.5*(1/2+1/2.1+1/2.2) = 2.14 → needs ≥2 migrations:
	// after logger: 1.5*(1/2.1+1/2.2) = 1.396 still hot; after monitor:
	// 1.5/2.2 = 0.68 → stop.
	plan, err := core.PAM{}.Select(v)
	if err != nil {
		t.Fatalf("PAM.Select: %v", err)
	}
	want := []string{scenario.NameLogger, scenario.NameMonitor}
	if len(plan.Steps) != len(want) {
		t.Fatalf("steps = %v, want %v", plan.Steps, want)
	}
	for i, w := range want {
		if plan.Steps[i].Element != w {
			t.Errorf("step %d = %q, want %q", i, plan.Steps[i].Element, w)
		}
	}
	if plan.After.Crossings != plan.Before.Crossings {
		t.Errorf("crossings %d -> %d; sliding-border migration must not add crossings",
			plan.Before.Crossings, plan.After.Crossings)
	}
}

func TestNaiveCheapestOnCPUPicksMonitor(t *testing.T) {
	v := figure1View(t, 1.05)
	plan, err := core.NaiveCheapestOnCPU{}.Select(v)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Element != scenario.NameMonitor {
		t.Fatalf("steps = %v, want single monitor migration (Figure 1(b))", plan.Steps)
	}
	if got, want := plan.After.Crossings, plan.Before.Crossings+2; got != want {
		t.Errorf("crossings after naive = %d, want %d (+2 per §1)", got, want)
	}
}

func TestNaiveMinNICCapacityPicksLogger(t *testing.T) {
	v := figure1View(t, 1.05)
	plan, err := core.NaiveMinNICCapacity{}.Select(v)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Element != scenario.NameLogger {
		t.Fatalf("steps = %v, want single logger migration (§3's literal reading)", plan.Steps)
	}
}

func TestNaiveMinCapacityLoopRelievesNIC(t *testing.T) {
	v := figure1View(t, 1.05)
	plan, err := core.NaiveMinCapacityLoop{}.Select(v)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if plan.Empty() {
		t.Fatal("expected at least one migration")
	}
	a, err := core.Analyze(plan.Result, v, v.Throughput)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// The paper's Eq. 3 ignores the DMA charge; reconstruct that check.
	nicU, err := device.Device{Kind: device.KindSmartNIC}.
		Utilization(v.Catalog, plan.Result.TypesOn(device.KindSmartNIC), v.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	if nicU >= 1 {
		t.Errorf("NIC still overloaded after loop: util=%.3f (analysis=%+v)", nicU, a)
	}
}

func TestAnalyzeFigure1Fluid(t *testing.T) {
	// Fluid-model numbers derived by hand in DESIGN.md §2/§5.
	v := figure1View(t, 1.0)
	a, err := core.Analyze(v.Chain, v, 1.0)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a.Crossings != 2 {
		t.Errorf("crossings = %d, want 2", a.Crossings)
	}
	// NIC util at 1 Gbps: 1/2 + 1/3.2 + 1/10 = 0.9125; DMA engines carry
	// 2 crossings / 40 Gbps = 0.05 separately.
	if !close(a.NICUtil, 0.9125, 1e-9) {
		t.Errorf("NIC util = %v, want 0.9125", a.NICUtil)
	}
	if !close(a.DMAUtil, 0.05, 1e-9) {
		t.Errorf("DMA util = %v, want 0.05", a.DMAUtil)
	}
	if !close(a.CPUUtil, 0.25, 1e-9) {
		t.Errorf("CPU util = %v, want 0.25", a.CPUUtil)
	}
	if !close(float64(a.NICSaturation), 1/0.9125, 1e-9) {
		t.Errorf("NIC saturation = %v, want %v", a.NICSaturation, 1/0.9125)
	}
	if !close(float64(a.DMASaturation), 20, 1e-9) {
		t.Errorf("DMA saturation = %v, want 20", a.DMASaturation)
	}
	if !close(float64(a.CPUSaturation), 4, 1e-9) {
		t.Errorf("CPU saturation = %v, want 4", a.CPUSaturation)
	}
}

func close(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

// --- property-based tests -------------------------------------------------

// randomChain builds a random valid chain over the extended catalog.
func randomChain(r *rand.Rand) *chain.Chain {
	types := []string{
		device.TypeFirewall, device.TypeLogger, device.TypeMonitor,
		device.TypeLoadBalancer, device.TypeNAT, device.TypeDPI,
		device.TypeRateLimiter, device.TypeIDS,
	}
	n := 2 + r.Intn(6)
	elems := make([]chain.Element, n)
	for i := range elems {
		loc := device.KindSmartNIC
		if r.Intn(2) == 0 {
			loc = device.KindCPU
		}
		elems[i] = chain.Element{
			Name: types[r.Intn(len(types))] + string(rune('a'+i)),
			Type: types[r.Intn(len(types))],
			Loc:  loc,
		}
	}
	c, err := chain.New("rand", elems...)
	if err != nil {
		panic(err)
	}
	return c
}

// loopCases are the inputs every selection-loop property runs over: the
// paper's single chain through both entry points (PAM.Select lifted back by
// AsMulti, and MultiPAM on a one-load view), three chains sharing the
// devices, and each again as a DMA-triggered episode.
var loopCases = []struct {
	name   string
	sel    func(chain.BorderMode) core.MultiSelector
	chains int
	dma    bool
}{
	{"PAM", viaPAM, 1, false},
	{"MultiPAM/N=1", viaMultiPAM, 1, false},
	{"MultiPAM/N=3", viaMultiPAM, 3, false},
	{"PAM/dma", viaPAM, 1, true},
	{"MultiPAM/N=3/dma", viaMultiPAM, 3, true},
}

func viaPAM(m chain.BorderMode) core.MultiSelector      { return core.AsMulti(core.PAM{Mode: m}) }
func viaMultiPAM(m chain.BorderMode) core.MultiSelector { return core.MultiPAM{Mode: m} }

// randomView builds n random chains over the extended catalog sharing an
// aggregate throughput of 0.1–4.0 Gbps. With dma, the engine budget is
// sized so the model's crossing load sits at 1.2: the episode triggers on
// the interconnect (whatever the NIC's state) and must cut crossings to end.
func randomView(seed int64, tp uint8, n int, dma bool) core.MultiView {
	r := rand.New(rand.NewSource(seed))
	nic, cpu := scenario.Devices(scenario.DefaultParams())
	v := core.MultiView{Catalog: device.ExtendedCatalog(), NIC: nic, CPU: cpu}
	each := device.Gbps((0.1 + float64(tp%40)/10) / float64(n))
	var crossingLoad device.Gbps
	for i := 0; i < n; i++ {
		c := randomChain(r)
		v.Loads = append(v.Loads, core.Load{Chain: c, Throughput: each})
		crossingLoad += each * device.Gbps(c.Crossings())
	}
	switch {
	case dma && crossingLoad > 0:
		v.NIC.DMAEngineGbps = crossingLoad / 1.2
	case dma: // nothing crosses for the model to see: the measured form
		v.MeasuredDMAUtil = 1.2
	}
	return v
}

// forEachLoopCase checks prop over random views of every loop case. prop
// sees only runs that produced a plan.
func forEachLoopCase(t *testing.T, mode chain.BorderMode, prop func(t *testing.T, dma bool, v core.MultiView, plan core.MultiPlan) bool) {
	for _, tc := range loopCases {
		t.Run(tc.name, func(t *testing.T) {
			f := func(seed int64, tp uint8) bool {
				v := randomView(seed, tp, tc.chains, tc.dma)
				plan, err := tc.sel(mode).SelectMulti(v)
				if err != nil {
					return errors.Is(err, core.ErrNotOverloaded) || errors.Is(err, core.ErrBothOverloaded)
				}
				return prop(t, tc.dma, v, plan)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: under BorderModeStrict, migrating any border vNF to the CPU
// never increases PCIe crossings (the paper's central claim, §2) — for each
// border on its own, and for every chain of every plan the loop produces.
func TestPropertyStrictBorderMigrationNeverAddsCrossings(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomChain(r)
		before := c.Crossings()
		bl, br := c.Borders(chain.BorderModeStrict)
		for _, idx := range append(append([]int{}, bl...), br...) {
			cc := c.Clone()
			cc.SetLoc(idx, device.KindCPU)
			if cc.Crossings() > before {
				t.Logf("chain %v: migrating %d raised crossings %d -> %d",
					c, idx, before, cc.Crossings())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	forEachLoopCase(t, chain.BorderModeStrict, neverAddsCrossings)
}

func neverAddsCrossings(t *testing.T, _ bool, v core.MultiView, plan core.MultiPlan) bool {
	for i, res := range plan.Results {
		if res.Crossings() > v.Loads[i].Chain.Crossings() {
			t.Logf("plan %v added crossings to chain %d: %v -> %v", plan, i, v.Loads[i].Chain, res)
			return false
		}
	}
	return true
}

// Property: the loop terminates on random chains with one of its three
// defined outcomes and, when it produces a plan under strict borders, the
// plan never increases crossings, every step moves NIC→CPU, and Eq. 3 holds
// after it. A DMA-triggered episode also leaves the crossing load cool, and
// adds no crossings even under the paper's head/tail borders.
func TestPropertyPAMTerminatesAndIsSane(t *testing.T) {
	sane := func(t *testing.T, dma bool, v core.MultiView, plan core.MultiPlan) bool {
		if !neverAddsCrossings(t, dma, v, plan) {
			return false
		}
		for _, s := range plan.Steps {
			if s.Step.From != device.KindSmartNIC || s.Step.To != device.KindCPU {
				t.Logf("bad step direction: %v", s)
				return false
			}
		}
		// Eq. 3 as the algorithm sees it (no DMA term) must hold after.
		var nicU, dmaU float64
		for i, res := range plan.Results {
			u, err := device.Device{Kind: device.KindSmartNIC}.
				Utilization(v.Catalog, res.TypesOn(device.KindSmartNIC), v.Loads[i].Throughput)
			if err != nil {
				t.Logf("utilization: %v", err)
				return false
			}
			nicU += u
			dmaU += v.NIC.DMAUtilization(v.Loads[i].Throughput, res.Crossings())
		}
		return nicU < 1 && (!dma || dmaU < 1)
	}
	forEachLoopCase(t, chain.BorderModeStrict, sane)
	forEachLoopCase(t, chain.BorderModePaper, func(t *testing.T, dma bool, v core.MultiView, plan core.MultiPlan) bool {
		return !dma || sane(t, dma, v, plan)
	})
}

// Property: the loop migrates only vNFs that were border vNFs of their
// chain at the moment of their migration (replaying the plan step by step).
func TestPropertyPAMMigratesOnlyBorders(t *testing.T) {
	forEachLoopCase(t, chain.BorderModePaper, func(t *testing.T, _ bool, v core.MultiView, plan core.MultiPlan) bool {
		replay := make([]*chain.Chain, len(v.Loads))
		for i, l := range v.Loads {
			replay[i] = l.Chain.Clone()
		}
		for _, s := range plan.Steps {
			c := replay[s.ChainIndex]
			bl, br := c.Borders(chain.BorderModePaper)
			idx := c.Index(s.Step.Element)
			if !containsInt(bl, idx) && !containsInt(br, idx) {
				t.Logf("step %v was not a border of %v", s, c)
				return false
			}
			c.SetLoc(idx, device.KindCPU)
		}
		return true
	})
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
