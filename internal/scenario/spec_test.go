package scenario_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/scenario"
)

// TestSpecs is the calibration as arithmetic, in milliseconds: every named
// spec is well-formed (chains validate, element names are unique across
// tenants, the focus tenant exists, schedules span the run), and the
// fluid-model decision at the tenants' peak rates is the one the live e2e
// expects — the numbers DESIGN.md §5 derives, pinned.
func TestSpecs(t *testing.T) {
	const (
		fire  = core.DefaultOverloadThreshold // 0.95
		clear = 0.80                          // the detector's default ClearThreshold
		tol   = 0.005
	)
	p := scenario.DefaultParams()
	type util struct{ nic, cpu, dma float64 }
	for _, tc := range []struct {
		name string
		// peak and after are the focus server's aggregate utilizations at
		// the tenants' peak rates, before and after the expected plan.
		peak, after util
		crossings   [2]int // summed crossings per frame, before and after
	}{
		// 1.8 × (1/2 + 1/3.2 + 1/10) on the NIC; the LB, then LB + Logger
		// at θC = 4 each on the CPU.
		{"hotspot", util{1.6425, 0.45, 0.09}, util{0.7425, 0.90, 0.09}, [2]int{2, 2}},
		// Backgrounds 2 × 0.9/3.2 plus the ramp's 1.8 × (1/2 + 1/10).
		{"multi", util{1.6425, 0.45, 0.09}, util{0.7425, 0.90, 0.09}, [2]int{2, 2}},
		// (2 × 2 × 0.4 + 4 × 1.0)/4.4 on the engine; both devices idle.
		{"crossing", util{0.50, 0.58, 1.2727}, util{0, 0.83, 0.8182}, [2]int{8, 6}},
		// Backgrounds 2 × 0.9/3.2 plus 0.6 per hover Gbps; seed 42's hover
		// schedule peaks at 0.874 Gbps.
		{"stability", util{1.0869, 0.2185, 0.0437}, util{0.6499, 0.4370, 0.0437}, [2]int{2, 2}},
		// A: Logger 1.4/2 + storm 1.3/2 on the NIC, Firewall 2.8/4 + storm
		// 1.3/4 on the CPU — both past the threshold, no plan.
		{"fleet", util{1.35, 1.025, 0.205}, util{}, [2]int{4, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := scenario.Named(tc.name, p)
			if err != nil {
				t.Fatal(err)
			}
			wellFormed(t, spec)
			focus := spec.FocusTenant()
			src := model(t, p, spec, focus.Home) // the focus tenant's server
			near := func(what string, got, want float64) {
				t.Helper()
				if math.Abs(got-want) > tol {
					t.Errorf("%s = %.4f, want %.4f", what, got, want)
				}
			}
			near("peak NIC", src.Peak.NICUtil, tc.peak.nic)
			near("peak CPU", src.Peak.CPUUtil, tc.peak.cpu)
			near("peak DMA", src.Peak.DMAUtil, tc.peak.dma)
			if src.Peak.Crossings != tc.crossings[0] {
				t.Errorf("crossings at peak = %d, want %d", src.Peak.Crossings, tc.crossings[0])
			}
			// The calm phase must not fire, the peak must.
			if h := math.Max(src.Calm.NICUtil, src.Calm.DMAUtil); h >= fire {
				t.Errorf("calm phase already hot: NIC %.2f DMA %.2f", src.Calm.NICUtil, src.Calm.DMAUtil)
			}
			triggered := func(a core.Analysis) float64 { // the resource the episode fires on
				if src.Peak.DMAUtil >= fire {
					return a.DMAUtil
				}
				return a.NICUtil
			}
			if triggered(src.Peak) < fire {
				t.Errorf("peak does not overload the server: NIC %.2f DMA %.2f", src.Peak.NICUtil, src.Peak.DMAUtil)
			}

			if spec.Push == "" {
				// The terminal case: infeasible locally, feasible one tier
				// up — the calm server absorbs the focus tenant under the
				// coordinator's destination ceiling, and the source falls
				// back under the clear threshold.
				if !errors.Is(src.Err, core.ErrBothOverloaded) {
					t.Fatalf("source decision = %v (plan %v), want ErrBothOverloaded", src.Err, src.Plan)
				}
				if src.Peak.CPUUtil < fire {
					t.Errorf("CPU %.2f at peak: not the both-overloaded case", src.Peak.CPUUtil)
				}
				moving, err := core.Analyze(focus.Chain, scenario.View(nil, p, 0), device.MeasuredGbps(focus.PeakGbps()))
				if err != nil {
					t.Fatal(err)
				}
				if n, c := src.Peak.NICUtil-moving.NICUtil, src.Peak.CPUUtil-moving.CPUUtil; n >= clear || c >= clear {
					t.Errorf("source without %q rests at NIC %.2f CPU %.2f, want under %.2f", spec.Focus, n, c, clear)
				}
				for si, id := range spec.Servers {
					if si == focus.Home {
						continue
					}
					m := model(t, p, spec, si)
					if !errors.Is(m.Err, core.ErrNotOverloaded) {
						t.Errorf("%s decision = %v, want calm", id, m.Err)
					}
					if n, c := m.Peak.NICUtil+moving.NICUtil, m.Peak.CPUUtil+moving.CPUUtil; n >= clear || c >= clear {
						t.Errorf("%s hosting %q lands at NIC %.2f CPU %.2f, want under the %.2f ceiling", id, spec.Focus, n, c, clear)
					}
				}
				return
			}

			if src.Err != nil {
				t.Fatalf("decision: %v", src.Err)
			}
			if len(src.Plan.Steps) != 1 {
				t.Fatalf("plan %v, want a single step", src.Plan)
			}
			st := src.Plan.Steps[0]
			if spec.Tenants[st.ChainIndex].Chain.Name != spec.Focus || st.Step.Element != spec.Push || st.Step.To != device.KindCPU {
				t.Errorf("plan %v, want %s of %q pushed to the CPU", src.Plan, spec.Push, spec.Focus)
			}
			near("NIC after", src.After.NICUtil, tc.after.nic)
			near("CPU after", src.After.CPUUtil, tc.after.cpu)
			near("DMA after", src.After.DMAUtil, tc.after.dma)
			if src.After.CPUUtil >= 1 {
				t.Errorf("Eq. 2 violated: CPU %.2f after the push", src.After.CPUUtil)
			}
			if triggered(src.After) >= fire {
				t.Errorf("the triggered resource stays hot after the push: %.2f", triggered(src.After))
			}
			if src.After.Crossings != tc.crossings[1] || src.After.Crossings > src.Peak.Crossings {
				t.Errorf("crossings %d -> %d, want %d and never more than before",
					src.Peak.Crossings, src.After.Crossings, tc.crossings[1])
			}
		})
	}
}

// serverModel is the fluid-model reading of one server of a spec: the
// aggregate utilizations its tenants' schedules imply at their first-phase
// and peak rates, Multi-PAM's decision at the peak, and the aggregates after
// it.
type serverModel struct {
	Calm, Peak, After core.Analysis // NICUtil, CPUUtil, DMAUtil, Crossings summed
	Plan              core.MultiPlan
	Err               error
}

func model(t *testing.T, p scenario.Params, spec scenario.Spec, server int) serverModel {
	t.Helper()
	v := spec.View(p)
	sum := func(loads []core.Load, placements []*chain.Chain) (sum core.Analysis) {
		for i, l := range loads {
			c := l.Chain
			if placements != nil {
				c = placements[i]
			}
			a, err := core.Analyze(c, v, l.Throughput)
			if err != nil {
				t.Fatal(err)
			}
			sum.NICUtil += a.NICUtil
			sum.CPUUtil += a.CPUUtil
			sum.DMAUtil += a.DMAUtil
			sum.Crossings += a.Crossings
		}
		return sum
	}
	peak := spec.Loads(server, true)
	m := serverModel{Calm: sum(spec.Loads(server, false), nil), Peak: sum(peak, nil)}
	m.Plan, m.Err = core.MultiPAM{}.SelectMulti(core.MultiView{Loads: peak, Catalog: v.Catalog, NIC: v.NIC, CPU: v.CPU})
	if m.Err == nil {
		m.After = sum(peak, m.Plan.Results)
	}
	return m
}

// wellFormed holds a spec to the contract the runner assumes: valid chains,
// element names unique across tenants, a focus tenant that owns the element
// to push, every schedule spanning the same run, homes on known servers.
func wellFormed(t *testing.T, spec scenario.Spec) {
	t.Helper()
	elems := map[string]string{}
	var run time.Duration
	for ti, tn := range spec.Tenants {
		if err := tn.Chain.Validate(); err != nil {
			t.Errorf("tenant %q: %v", tn.Chain.Name, err)
		}
		for _, e := range tn.Chain.Elems {
			if other, dup := elems[e.Name]; dup {
				t.Errorf("element %q is in both %q and %q", e.Name, other, tn.Chain.Name)
			}
			elems[e.Name] = tn.Chain.Name
		}
		var span time.Duration
		for _, ph := range tn.Phases {
			span += ph.Duration
		}
		if ti == 0 {
			run = span
		}
		if span <= 0 || span != run {
			t.Errorf("tenant %q's schedule spans %v, the run %v", tn.Chain.Name, span, run)
		}
		if tn.Home < 0 || tn.Home >= len(spec.Servers) {
			t.Errorf("tenant %q homed on server %d of %d", tn.Chain.Name, tn.Home, len(spec.Servers))
		}
	}
	switch {
	case spec.Push == "" && len(spec.Servers) < 2:
		t.Errorf("a handoff is expected but only %d server(s) named", len(spec.Servers))
	case spec.Push != "" && elems[spec.Push] != spec.Focus:
		t.Errorf("focus tenant %q does not own %q", spec.Focus, spec.Push)
	}
}

// TestSpecValidation: a spec the runner has nothing to anchor on is rejected
// up front.
func TestSpecValidation(t *testing.T) {
	p := scenario.DefaultParams()
	for name, breakIt := range map[string]func(*scenario.Spec){
		"no tenants":   func(s *scenario.Spec) { s.Tenants = nil },
		"no servers":   func(s *scenario.Spec) { s.Servers = nil },
		"no live":      func(s *scenario.Spec) { s.Live = scenario.LiveParams{} },
		"no focus":     func(s *scenario.Spec) { s.Focus = "nobody" },
		"unknown home": func(s *scenario.Spec) { s.Tenants[0].Home = 1 },
	} {
		spec, err := scenario.Named("multi", p)
		if err != nil {
			t.Fatal(err)
		}
		breakIt(&spec)
		if _, err := scenario.Run(p, spec); err == nil {
			t.Errorf("%s: Run accepted the spec", name)
		}
	}
	if _, err := scenario.Named("nope", p); err == nil {
		t.Error("Named accepted an unknown spec")
	}
}
