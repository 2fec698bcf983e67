package scenario

// The scenario spec: one declarative description of a live closed-loop
// episode — who is hosted where, what load each tenant offers and when,
// which knobs differ from the live defaults, and the arc the episode must
// trace — consumed by the one runner (Run), the one fluid-model reading
// (Spec.Loads) and the one reporter (`pamctl run <name>`). The five
// canonical episodes are named specs; DESIGN.md §5 carries the provenance
// of every number in them.

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/traffic"
)

// Tenant is one hosted service chain and its offered-load schedule.
type Tenant struct {
	// Chain is the tenant's service chain in its initial placement; its
	// name identifies the tenant, and element names must be unique across
	// a spec's tenants.
	Chain *chain.Chain
	// Phases is the tenant's offered-load schedule in catalog Gbps. Every
	// tenant's schedule spans the same run length.
	Phases []traffic.Phase
	// FrameSize is the tenant's synthesized frame size in bytes (default
	// LiveParams.FrameSize).
	FrameSize int
	// Home indexes Spec.Servers: the server hosting the tenant at the start
	// of the run.
	Home int
}

// PeakGbps is the highest rate of the tenant's schedule.
func (t Tenant) PeakGbps() float64 {
	var peak float64
	for _, ph := range t.Phases {
		if ph.RateGbps > peak {
			peak = ph.RateGbps
		}
	}
	return peak
}

// Spec describes one live closed-loop episode. A field exists only where
// the canonical episodes differ; everything else is LiveParams' defaults
// and core.MultiPAM (whose one-chain case is the paper's PAM).
type Spec struct {
	// Name is the spec's registry key (`pamctl run <name>`); Doc is the
	// narrative the reporter prints ahead of the run.
	Name string
	Doc  string
	// Tenants is the hosted population with its schedules.
	Tenants []Tenant
	// Focus names the tenant whose load change drives the episode. Its
	// first phase is the calm baseline, and every tenant's
	// calm/during/after throughput is measured around the relief of the
	// hot spot it causes.
	Focus string
	// Push is the expectation: the focus tenant's border vNF the first
	// plan must push to the CPU. Empty states the terminal case instead —
	// no local plan exists, the loop must escalate, and the fleet
	// coordinator must hand the focus tenant to another server.
	Push string
	// Live is the emulator and control-loop parameters (DefaultLiveParams
	// in every canonical spec).
	Live LiveParams
	// LinkGbps is the PCIe link's effective bandwidth, i.e. the shared DMA
	// engine's budget, in the dataplane and in the selector's model alike.
	// Zero selects Params.PCIeBandwidthGbps (and the model's
	// Params.DMAEngineGbps).
	LinkGbps device.Gbps
	// ReclaimAfter arms the offload-reclaim policy after this many clear
	// windows (orchestrator.Config.ReclaimAfter; 0 disables it), and
	// BounceHorizon is the window within which an element moved out and
	// back counts as a ping-pong.
	ReclaimAfter  int
	BounceHorizon time.Duration
	// Servers names the emulated servers, at least one. Each hosts a copy
	// of every tenant's chain and runs its own control loop; with more than
	// one, a fleet coordinator owns the tenant→server registry and resolves
	// escalations.
	Servers []fleet.ServerID
}

// FocusTenant returns the focus tenant; Focus must name one (Run checks).
func (s *Spec) FocusTenant() *Tenant { return &s.Tenants[s.focus()] }

// focus returns the focus tenant's index, or -1 when Focus names none.
func (s *Spec) focus() int {
	for i, t := range s.Tenants {
		if t.Chain != nil && t.Chain.Name == s.Focus {
			return i
		}
	}
	return -1
}

// total is the run length: the span of the tenants' schedules.
func (s *Spec) total() time.Duration {
	var d time.Duration
	for _, ph := range s.Tenants[0].Phases {
		d += ph.Duration
	}
	return d
}

// calmEnd is when the focus tenant leaves its first phase — the boundary
// the baseline and collapse windows are anchored on. Zero when the focus
// schedule has a single phase.
func (s *Spec) calmEnd() time.Duration {
	if ph := s.FocusTenant().Phases; len(ph) > 1 {
		return ph[0].Duration
	}
	return 0
}

// View is the selection-view template: the standard devices and catalog,
// with the NIC's modelled DMA-engine capacity pinned to the emulated link's
// budget when the spec constrains it, so the fluid model's post-migration
// crossing estimate (Multi-PAM's termination check) predicts the same
// engine the dataplane actually charges.
func (s *Spec) View(p Params) core.View {
	v := View(nil, p, 0)
	if s.LinkGbps > 0 {
		v.NIC.DMAEngineGbps = s.LinkGbps
	}
	return v
}

// Loads is the fluid model's input for one server (an index into Servers):
// every tenant's chain — each server hosts a copy of all of them — at its
// schedule's first-phase rate or, with peak, its highest; tenants homed on
// another server are idle here.
func (s *Spec) Loads(server int, peak bool) []core.Load {
	loads := make([]core.Load, len(s.Tenants))
	for ti, t := range s.Tenants {
		rate := t.Phases[0].RateGbps
		if peak {
			rate = t.PeakGbps()
		}
		if t.Home != server {
			rate = 0
		}
		loads[ti] = core.Load{Chain: t.Chain, Throughput: device.MeasuredGbps(rate)}
	}
	return loads
}

// validate rejects a spec the runner has nothing to anchor on; TestSpecs
// holds the canonical specs to the rest of the contract (valid chains,
// element names unique across tenants, schedules spanning one run length).
func (s *Spec) validate() error {
	switch {
	case len(s.Tenants) == 0 || len(s.Servers) == 0:
		return fmt.Errorf("scenario: spec %q needs tenants and a server", s.Name)
	case s.Live.Scale <= 0 || s.Live.PollEvery <= 0 || s.Live.Flows <= 0:
		return fmt.Errorf("scenario: spec %q has no live parameters (start from DefaultLiveParams)", s.Name)
	case s.focus() < 0:
		return fmt.Errorf("scenario: spec %q: no tenant named %q to focus on", s.Name, s.Focus)
	}
	for _, t := range s.Tenants {
		if t.Home < 0 || t.Home >= len(s.Servers) {
			return fmt.Errorf("scenario: spec %q: tenant %q is homed on server %d of %d", s.Name, t.Chain.Name, t.Home, len(s.Servers))
		}
	}
	return nil
}

// mustChain builds a spec's chain; the literals below are valid by
// construction.
func mustChain(name string, elems ...chain.Element) *chain.Chain {
	c, err := chain.New(name, elems...)
	if err != nil {
		panic("scenario: " + name + " chain invalid: " + err.Error())
	}
	return c
}

func steady(gbps float64, d time.Duration) []traffic.Phase {
	return []traffic.Phase{{RateGbps: gbps, Duration: d}}
}

func ramp(calmGbps float64, calm time.Duration, peakGbps float64, peak time.Duration) []traffic.Phase {
	return []traffic.Phase{{RateGbps: calmGbps, Duration: calm}, {RateGbps: peakGbps, Duration: peak}}
}

// Calibrated values shared by several specs (provenance in DESIGN.md §5).
const (
	// backgroundGbps is each Monitor background tenant's steady offered
	// load in the multi and stability specs: 0.9/3.2 ≈ 0.28 NIC demand
	// each, far below its own chain's saturation — only the sum across
	// tenants crosses the SmartNIC's overload threshold, and the shared
	// device gate turns that sum into a real collapse of the backgrounds'
	// delivered throughput.
	backgroundGbps = 0.9
	// backgroundFrame is the background tenants' frame size: small enough
	// to keep ≥8 frames per 25 ms sampling window at the background rate,
	// so per-window delivered throughput is smooth enough for the collapse
	// and recovery assertions.
	backgroundFrame = 256
	// calm and storm are the storm-shaped specs' phase lengths: calm long
	// enough for a stable per-tenant baseline, storm covering the
	// detector's 3 hot windows plus the post-relief windows the recovery
	// means average over.
	calmPhase  = 400 * time.Millisecond
	stormPhase = 1100 * time.Millisecond
)

// monitorBackgrounds returns the two steady Monitor-only tenants resident
// on the given device.
func monitorBackgrounds(names, elems [2]string, loc device.Kind, gbps float64, d time.Duration) []Tenant {
	out := make([]Tenant, 2)
	for i := range out {
		out[i] = Tenant{
			Chain:     mustChain(names[i], chain.Element{Name: elems[i], Type: device.TypeMonitor, Loc: loc}),
			Phases:    steady(gbps, d),
			FrameSize: backgroundFrame,
		}
	}
	return out
}

// figure1Geometry returns a three-NF chain with the Figure-1 geometry: LB
// on the CPU; Logger, Firewall on the SmartNIC.
func figure1Geometry(name, lb, logger, fw string) *chain.Chain {
	return mustChain(name,
		chain.Element{Name: lb, Type: device.TypeLoadBalancer, Loc: device.KindCPU},
		chain.Element{Name: logger, Type: device.TypeLogger, Loc: device.KindSmartNIC},
		chain.Element{Name: fw, Type: device.TypeFirewall, Loc: device.KindSmartNIC},
	)
}

func hotspotSpec(p Params) Spec {
	return Spec{
		Doc: `Real frames ramp through the Figure-1 chain until the SmartNIC overloads. The
shared device gate collapses the whole chain to the NIC residents' aggregate
saturation (≈1.1 Gbps) while measured demand (offered/θ) keeps climbing; the
detector fires on it, PAM picks the border vNF, a real UNO-style migration
moves it under traffic, and delivery recovers to the offered rate.`,
		Tenants: []Tenant{{
			Chain:  Figure1Chain(),
			Phases: ramp(p.ProbeGbps, 300*time.Millisecond, LiveOverloadGbps, 1200*time.Millisecond),
		}},
		Focus: "figure1",
		Push:  NameLogger,
	}
}

func multiSpec(Params) Spec {
	tenants := monitorBackgrounds([2]string{"bg-monitor-a", "bg-monitor-b"}, [2]string{"bgm0", "bgn0"},
		device.KindSmartNIC, backgroundGbps, calmPhase+stormPhase)
	return Spec{
		Doc: `Two steady Monitor tenants and a ramping Figure-1-style tenant share one
SmartNIC+CPU. Every chain is individually feasible; only the summed NIC demand
overloads — physically: the ramp's bursts take device time the backgrounds
needed, so their delivery collapses. Multi-PAM picks the globally cheapest
border vNF (the ramp's Logger), pushes it aside, and the backgrounds recover.`,
		Tenants: append(tenants, Tenant{
			Chain: figure1Geometry("ramp", "rlb0", "rlog0", "rfw0"),
			// 0.3 calm: total NIC demand ≈ 0.75, under the threshold, so
			// the calm phase never fires and forms the baseline. 1.8 at
			// the peak, raised from 1.5 when the worker pool landed
			// (DESIGN §5, PR 8): the pool holds exactly one in-flight burst
			// per tenant in the gate FIFO, so the squeeze only bites once
			// the ramp is continuously queued at the gate. At 1.5 the ramp
			// chain alone is feasible on the NIC (≈ 0.90) and the deep
			// squeeze takes ≳150 ms to establish; at 1.8 the ramp alone is
			// infeasible (burst cost ≈49 ms vs ≈45 ms inter-burst gap), its
			// gate backlog forms from the first overload window, and every
			// FIFO round the backgrounds wait behind a full ramp burst —
			// the collapse the e2e asserts. CPU feasibility after the
			// push-aside is preserved: 1.8 × (1/4 + 1/4) = 0.9 < 0.95.
			Phases: ramp(0.3, calmPhase, 1.8, stormPhase),
			// 5× the backgrounds' frames, so under contention the shared
			// NIC gate grants the ramp Logger disproportionate device time
			// per FIFO round — how a heavy co-resident tenant squeezes its
			// neighbours on real hardware.
			FrameSize: 1280,
		}),
		Focus: "ramp",
		Push:  "rlog0",
	}
}

func crossingSpec(Params) Spec {
	// Both devices stay far below threshold at every phase; only the
	// summed crossing load saturates the DMA engine, and only during the
	// split tenant's overload. The backgrounds live on the CPU, so every
	// frame pays ingress and egress crossings while loading the CPU only
	// 0.4/10.
	tenants := monitorBackgrounds([2]string{"bg-xing-a", "bg-xing-b"}, [2]string{"xma0", "xmb0"},
		device.KindCPU, 0.4, calmPhase+stormPhase)
	return Spec{
		Doc: `The hot spot is the PCIe interconnect. A split tenant (CPU→NIC→CPU, four
crossings per frame) ramps beside two CPU-resident, crossing-heavy backgrounds:
both devices stay feasible while the shared DMA engine saturates and every
crossing tenant collapses. The detector fires on measured DMA demand and
Multi-PAM pushes the split tenant's Logger to the CPU — the one move that
removes crossings. A border migration never adds crossings: here, the relief.`,
		Tenants: append(tenants, Tenant{
			Chain: mustChain("split",
				chain.Element{Name: "slb0", Type: device.TypeLoadBalancer, Loc: device.KindCPU},
				chain.Element{Name: "slog0", Type: device.TypeLogger, Loc: device.KindSmartNIC},
				chain.Element{Name: "slb1", Type: device.TypeLoadBalancer, Loc: device.KindCPU},
			),
			// 0.25 → 1.0 Gbps at four crossings per frame: engine demand
			// ≈ 0.59 calm, ≈ 1.27 at the peak, ≈ 0.82 once slog0 moves.
			Phases:    ramp(0.25, calmPhase, 1.0, stormPhase),
			FrameSize: backgroundFrame,
		}),
		Focus: "split",
		Push:  "slog0",
		// The storm's DMA-engine budget: small enough that the calibrated
		// rates saturate it while the devices idle.
		LinkGbps: 4.4,
	}
}

func stabilitySpec(p Params) Spec {
	const total = 2 * time.Second // ≈13 hover dwells
	// The hover band is placed so that the summed NIC demand crosses the
	// detector threshold only during upper-half dwells: backgrounds
	// contribute 2×0.9/3.2 ≈ 0.56 and the hover chain's NIC residents
	// (Logger θS=2, Firewall θS=10) add 0.6 per offered Gbps, so demand
	// sweeps ≈[0.86, 1.10] across the band and crosses 0.95 at ≈0.645 Gbps
	// — inside the band, as hovering requires. Mean dwell is 6 sampling
	// windows, enough for the detector's Consecutive streak to fill within
	// one high dwell. The schedule is seeded by the tenant's index, like
	// its arrival stream.
	hover, err := traffic.Hover{CenterGbps: 0.70, BandGbps: 0.20, Dwell: 150 * time.Millisecond}.
		Phases(total, rand.New(rand.NewSource(p.Seed+2)))
	if err != nil {
		panic("scenario: hover shape invalid: " + err.Error()) // impossible by construction
	}
	tenants := monitorBackgrounds([2]string{"bg-monitor-a", "bg-monitor-b"}, [2]string{"bgm0", "bgn0"},
		device.KindSmartNIC, backgroundGbps, total)
	return Spec{
		Doc: `A stochastic tenant hovers in a band straddling the rate where summed NIC
demand crosses the threshold, while the offload-reclaim policy keeps inviting
the loop to undo its own push-aside. Only the headroom guard at the detector's
clear threshold stands between reclaim and ping-pong; with the calibrated
hysteresis band it always refuses, so the loop pushes once and settles. (The
band-0 negative control: go test ./internal/scenario -run DetunedPingPongs -v)`,
		Tenants: append(tenants, Tenant{
			Chain:     figure1Geometry("hover", "hlb0", "hlog0", "hfw0"),
			Phases:    hover,
			FrameSize: backgroundFrame,
		}),
		Focus: "hover",
		Push:  "hlog0",
		// Three clear windows arm a reclaim, matching the detector's
		// Consecutive so offload and reclaim react at the same timescale;
		// out-and-back within 20 sampling windows is churn, not workload
		// drift.
		ReclaimAfter:  3,
		BounceHorizon: 500 * time.Millisecond,
	}
}

func fleetSpec(Params) Spec {
	// Server A's steady backgrounds pin each device individually below
	// threshold (NIC 1.4/2 = 0.70 via a Logger, CPU 2.8/4 = 0.70); the
	// storm's ramp adds 1.3/2 = 0.65 NIC and 1.3/4 = 0.325 CPU demand,
	// lifting A to NIC 1.35 / CPU 1.025 — the scale-out terminal case.
	// Terminality must hold in the model too, or Multi-PAM finds a local
	// escape instead of escalating: both loaded NIC residents are Loggers
	// (θC = 4, the costliest CPU tenancy), so every Eq. 2 check lands the
	// CPU ≥ 1 even on rescaled (measured-throughput) loads, and the idle
	// chains' border elements carry no load, so moving one never satisfies
	// Eq. 3 — the border set exhausts and the loop reports upward. Server B
	// idles at NIC 0.094, so absorbing the storm lands it at NIC 0.744 /
	// CPU 0.325, under the coordinator's 0.8 destination ceiling; and with
	// the storm gone A falls back to 0.70/0.70, under the detector's 0.80
	// clear threshold — the escalate → migrate → clear arc the e2e asserts.
	const (
		a, b = 0, 1 // Servers indexes
		// The onset plus enough post-handoff windows for A's smoothed
		// demand to decay below the clear threshold and the recovered
		// steady state to be measured.
		total = 2 * time.Second
	)
	single := func(name, elem, typ string, loc device.Kind) *chain.Chain {
		return mustChain(name, chain.Element{Name: elem, Type: typ, Loc: loc})
	}
	return Spec{
		Doc: `Push-aside runs out of road: server A's storm tenant ramps both of A's devices
past the threshold at once, so every local candidate would only move the hot
spot. A's loop escalates; the fleet coordinator picks the storm as offender,
checks the calm server B can absorb it, and hands the chain over (B freezes,
the registry flip reroutes into B's buffers, A drains and snapshots, B restores
and replays). A's detector clears and the storm recovers on B.`,
		Servers: []fleet.ServerID{a: "srv-a", b: "srv-b"},
		Tenants: []Tenant{
			{Chain: single("bg-nic-a", "fna0", device.TypeLogger, device.KindSmartNIC),
				Phases: steady(1.4, total), FrameSize: backgroundFrame, Home: a},
			{Chain: single("bg-cpu-a", "fca0", device.TypeFirewall, device.KindCPU),
				Phases: steady(2.8, total), FrameSize: backgroundFrame, Home: a},
			// Logger on the NIC feeding a Firewall on the CPU — demand on
			// both devices, so its ramp is what makes the hot spot
			// terminal. 512 B frames keep its bursts device-time-heavy, so
			// the gate squeeze stays visible in A's per-tenant rates.
			{Chain: mustChain("storm",
				chain.Element{Name: "fsl0", Type: device.TypeLogger, Loc: device.KindSmartNIC},
				chain.Element{Name: "fsf0", Type: device.TypeFirewall, Loc: device.KindCPU}),
				Phases: ramp(0.1, calmPhase, 1.3, total-calmPhase), FrameSize: 512, Home: a},
			{Chain: single("bg-nic-b", "fnb0", device.TypeMonitor, device.KindSmartNIC),
				Phases: steady(0.3, total), FrameSize: backgroundFrame, Home: b},
		},
		Focus: "storm",
	}
}

// specs is the registry of canonical episodes, in presentation order.
var specs = []struct {
	name  string
	build func(Params) Spec
}{
	{"hotspot", hotspotSpec},
	{"multi", multiSpec},
	{"crossing", crossingSpec},
	{"stability", stabilitySpec},
	{"fleet", fleetSpec},
}

// Named builds the canonical spec of that name under the parameters (the
// seed shapes stochastic schedules). Each call builds fresh chains.
func Named(name string, p Params) (Spec, error) {
	var have []string
	for _, s := range specs {
		if s.name == name {
			spec := s.build(p)
			spec.Name, spec.Live = name, DefaultLiveParams()
			if len(spec.Servers) == 0 {
				spec.Servers = []fleet.ServerID{"srv"}
			}
			return spec, nil
		}
		have = append(have, s.name)
	}
	return Spec{}, fmt.Errorf("scenario: no spec %q (have: %s)", name, strings.Join(have, ", "))
}
