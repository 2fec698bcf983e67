package scenario_test

// The live e2e runs: each canonical spec through scenario.Run on the batched
// emulator, wall-clock and concurrent, so every one doubles as a
// race-detector workout for the whole stack. Result.Check — the same check
// `pamctl run` exits on — must pass, and each test then pins the episode's
// numbers.

import (
	"math"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/emul"
	"repro/internal/orchestrator"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// run executes the named spec (after mutate, if any) under the seed.
func run(t *testing.T, name string, seed int64, mutate func(*scenario.Spec)) *scenario.Result {
	t.Helper()
	p := scenario.DefaultParams()
	p.Seed = seed
	spec, err := scenario.Named(name, p)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(&spec)
	}
	res, err := scenario.Run(p, spec)
	if err != nil {
		t.Fatalf("%s seed %d: Run: %v", name, seed, err)
	}
	return res
}

// migrations returns the executed-plan events of a control-plane log.
func migrations(events []orchestrator.Event) []orchestrator.Event {
	var out []orchestrator.Event
	for _, e := range events {
		if e.Kind == orchestrator.EventMigrated {
			out = append(out, e)
		}
	}
	return out
}

// TestLiveHotspotClosedLoop is the acceptance run of the live control plane:
// measured meter windows ramp into overload on the batched emulator, PAM
// (Multi-PAM's one-chain case) fires exactly once and pushes the Figure-1
// border vNF (logger0) aside via a real migration, a second overload episode
// inside the cooldown is suppressed, and served throughput recovers past the
// pre-migration ceiling. With the shared per-device capacity gates the pre-
// migration ceiling is the *whole NIC's* saturation under the Figure-1
// residents (≈1.1 Gbps — no longer the Logger's private 2 Gbps), detection
// rides on measured demand (offered/θ, which keeps climbing while delivered
// collapses), and recovery lifts delivered to the offered rate.
func TestLiveHotspotClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock closed-loop run")
	}
	p := scenario.DefaultParams()
	res := run(t, "hotspot", p.Seed, func(s *scenario.Spec) {
		s.Live.Cooldown = time.Hour // any later episode must be suppressed
		s.FocusTenant().Phases = []traffic.Phase{
			{RateGbps: p.ProbeGbps, Duration: 250 * time.Millisecond},
			{RateGbps: scenario.LiveOverloadGbps, Duration: 700 * time.Millisecond},
			{RateGbps: 0.3, Duration: 300 * time.Millisecond}, // clears the detector
			// The post-migration placement absorbs LiveOverloadGbps cleanly
			// (that is what recovery means under shared gates), and its
			// CPU-side saturation (LB+Logger, 2 Gbps) now caps what can even
			// reach the NIC — so the second episode is driven by the DES
			// overload rate, whose LB-queue overflow fires the detector's
			// loss trigger.
			{RateGbps: p.OverloadGbps, Duration: 500 * time.Millisecond},
		}
	})
	if err := res.Check(); err != nil {
		t.Errorf("spec expectation: %v", err)
	}
	srv, tenant := res.Servers[0], res.Tenants[0]

	migs := migrations(srv.Events)
	var cooldowns int
	for _, e := range srv.Events {
		if e.Kind == orchestrator.EventCooldown {
			cooldowns++
		}
	}
	if len(migs) != 1 {
		t.Fatalf("migrations = %d, want exactly 1\nevents:\n%+v", len(migs), srv.Events)
	}
	if srv.Migrations != 1 {
		t.Errorf("result.Migrations = %d, want 1", srv.Migrations)
	}
	// The plan must be PAM pushing the Figure-1 border vNF aside.
	mig := migs[0]
	if mig.Plan.Selector != "Multi-PAM" || len(mig.Plan.Steps) != 1 ||
		mig.Plan.Steps[0].Step.Element != scenario.NameLogger ||
		mig.Plan.Steps[0].Step.To != device.KindCPU {
		t.Errorf("plan = %v, want Multi-PAM migrating %s to the CPU", mig.Plan, scenario.NameLogger)
	}
	if mig.Downtime <= 0 {
		t.Error("no measured state-transfer downtime")
	}
	// And it must be applied to the running dataplane.
	i := tenant.Placement.Index(scenario.NameLogger)
	if i < 0 || tenant.Placement.At(i).Loc != device.KindCPU {
		t.Errorf("final placement %v does not have %s on the CPU", tenant.Placement, scenario.NameLogger)
	}
	// The second overload episode (after the calm phase re-arms the
	// detector) must be suppressed by the cooldown, not executed.
	if cooldowns == 0 {
		t.Errorf("no cooldown suppression recorded\nevents:\n%+v", srv.Events)
	}

	// Recovery: pre-migration delivery is capped by the shared NIC gate at
	// the Figure-1 residents' aggregate saturation, 1/(1/2+1/3.2+1/10) ≈
	// 1.1 Gbps; with the Logger pushed aside the chain can carry the full
	// 1.8 Gbps offered load (NIC ≈ 2.4, CPU = 2.0 post-move saturations).
	// Generous margins keep a loaded CI machine from flaking.
	if tenant.PreGbps <= 0 || tenant.PreGbps > 1.5 {
		t.Errorf("pre-migration delivered %.2f Gbps, want (0, 1.5] (shared-NIC-capped)", tenant.PreGbps)
	}
	if tenant.PostGbps < 1.5 {
		t.Errorf("post-migration delivered %.2f Gbps, want >= 1.5 (recovered)", tenant.PostGbps)
	}
	if tenant.PostGbps < tenant.PreGbps*1.15 {
		t.Errorf("throughput did not recover: %.2f -> %.2f Gbps", tenant.PreGbps, tenant.PostGbps)
	}
	if len(srv.Samples) < 10 {
		t.Errorf("telemetry timeline too short: %d windows", len(srv.Samples))
	}
}

// TestLiveMultiTenantClosedLoop is the acceptance run of the multi-tenant
// control plane over the shared-capacity dataplane: three tenants share one
// emulated SmartNIC+CPU pair, the background tenants hold steady while one
// tenant ramps, and although every chain is individually feasible the summed
// NIC *demand* crosses the threshold. Because the emulator throttles at one
// capacity gate per device, the overload is physical: the background tenants'
// delivered throughput must genuinely collapse (≥20% below their calm-phase
// baseline) while the ramp tenant's bursts consume the NIC's budget, and must
// recover to within 10% of the baseline once Multi-PAM pushes the ramp
// tenant's border vNF aside via a real chain-scoped migration.
func TestLiveMultiTenantClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock closed-loop run")
	}
	res := run(t, "multi", scenario.DefaultParams().Seed, nil)
	if err := res.Check(); err != nil {
		t.Errorf("spec expectation: %v", err)
	}
	srv := res.Servers[0]

	migs := migrations(srv.Events)
	if len(migs) != 1 {
		t.Fatalf("migrations = %d, want exactly 1\nevents:\n%+v", len(migs), srv.Events)
	}
	if srv.Migrations != 1 {
		t.Errorf("result.Migrations = %d, want 1", srv.Migrations)
	}

	// The plan must be Multi-PAM pushing a border vNF of *some* chain off
	// the SmartNIC — on the calibrated defaults the global θS argmin is the
	// ramping tenant's Logger.
	mig := migs[0]
	if mig.Plan.Selector != "Multi-PAM" || len(mig.Plan.Steps) != 1 {
		t.Fatalf("plan = %v, want one Multi-PAM step", mig.Plan)
	}
	step := mig.Plan.Steps[0]
	if step.Step.To != device.KindCPU {
		t.Errorf("step %v does not move to the CPU", step)
	}
	if step.ChainIndex < 0 || step.ChainIndex >= len(res.Tenants) {
		t.Fatalf("step chain index %d out of range", step.ChainIndex)
	}
	if res.Tenants[step.ChainIndex].Name != "ramp" || step.Step.Element != "rlog0" {
		t.Errorf("step = %v (chain %q), want rlog0 of the ramp tenant", step, res.Tenants[step.ChainIndex].Name)
	}
	if mig.Downtime <= 0 {
		t.Error("no measured state-transfer downtime")
	}
	// And it must be applied to the running dataplane of that chain only.
	moved := res.Tenants[step.ChainIndex].Placement
	if i := moved.Index(step.Step.Element); i < 0 || moved.At(i).Loc != device.KindCPU {
		t.Errorf("placement %v does not have %s on the CPU", moved, step.Step.Element)
	}
	for ci, tn := range res.Tenants {
		if ci == step.ChainIndex {
			continue
		}
		for _, e := range tn.Placement.Elems {
			if e.Loc == device.KindCPU && e.Type != device.TypeLoadBalancer {
				t.Errorf("untouched chain %q moved: %v", tn.Name, tn.Placement)
			}
		}
	}

	// The hot spot must have been a *summed* one: some pre-migration window
	// crossed the threshold in aggregate demand while the shared gate capped
	// the granted share near the device budget, and the episode's relief
	// shows in the final windows.
	var peakDemand, grantSum, grantWin, final float64
	for _, s := range srv.Samples {
		if s.At < mig.At {
			if s.NIC.Utilization > peakDemand {
				peakDemand = s.NIC.Utilization
			}
			// The grant cap is asserted on the *mean* over the hot windows,
			// not per window: served/θ is metered at burst completion, and a
			// single ramp burst carries ≈41 ms of device time — 1.6× one
			// 25 ms window's whole budget — so any individual window lands
			// near 0 or near 2 by quantization alone. The mean over the hot
			// phase is the physical claim: the gate never grants faster than
			// its refill plus the banked 10 ms burst.
			if s.NIC.Utilization >= 0.95 {
				grantSum += s.NIC.GrantUtilization * s.Window.Seconds()
				grantWin += s.Window.Seconds()
			}
		}
	}
	if len(srv.Samples) > 0 {
		final = srv.Samples[len(srv.Samples)-1].NIC.Utilization
	}
	if peakDemand < 0.95 {
		t.Errorf("aggregate NIC demand never crossed the threshold before the migration: peak %.2f", peakDemand)
	}
	if grantWin > 0 {
		if mean := grantSum / grantWin; mean > 1.35 {
			t.Errorf("NIC granted %.2f device budget on average over the hot pre-migration windows; the shared gate should cap near 1.0", mean)
		}
	}
	if final >= 0.95 {
		t.Errorf("aggregate NIC demand not relieved: final %.2f", final)
	}

	// The collapse must be real and the recovery complete: every background
	// tenant (all but the focus) delivers ≥20% below its calm baseline
	// during the overload, then returns to within 10% of it. Under the race
	// detector the per-window delivered meter loses its signal (see
	// raceInstrumented) and these bounds are asserted by the regular run
	// only.
	for ti, tn := range res.Tenants {
		if raceInstrumented || tn.Name == res.Spec.Focus {
			continue
		}
		base, during, post := tn.BaselineGbps, tn.PreGbps, tn.PostGbps
		if base < 0.5*res.Spec.Tenants[ti].PeakGbps() {
			t.Errorf("tenant %q calm baseline %.2f Gbps, implausibly low", tn.Name, base)
			continue
		}
		if during > 0.80*base {
			t.Errorf("tenant %q delivered %.3f Gbps during the overload (baseline %.3f): no real collapse (<20%%)",
				tn.Name, during, base)
		}
		if math.Abs(post-base) > 0.10*base {
			t.Errorf("tenant %q did not recover: %.3f Gbps after migration vs %.3f baseline (>10%%)",
				tn.Name, post, base)
		}
	}
	if len(srv.Samples) < 10 {
		t.Errorf("telemetry timeline too short: %d windows", len(srv.Samples))
	}
}

// TestLiveCrossingStormClosedLoop is the acceptance run of the crossing-bound
// control plane: the overload lives on the shared PCIe DMA engine, not on
// either device. Three tenants' crossings draw on one link-seconds budget;
// during the split tenant's ramp the measured DMA demand crosses the threshold
// while the SmartNIC and CPU demands stay feasible, the detector fires on the
// DMA utilization, and Multi-PAM — seeing the crossing-bound overload through
// MeasuredDMAUtil — pushes the split tenant's Logger to the CPU. The move is
// crossing-reducing (4 → 2), the engine cools below threshold, and the split
// tenant's delivered throughput recovers from its collapse to the offered
// rate.
func TestLiveCrossingStormClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock closed-loop run")
	}
	res := run(t, "crossing", scenario.DefaultParams().Seed, nil)
	if err := res.Check(); err != nil {
		t.Errorf("spec expectation: %v", err)
	}
	srv := res.Servers[0]

	migs := migrations(srv.Events)
	if len(migs) != 1 {
		t.Fatalf("migrations = %d, want exactly 1\nevents:\n%+v", len(migs), srv.Events)
	}

	// The plan must be the crossing-neutral relief: the split tenant's
	// Logger — the only NIC-resident border in the storm — pushed to the
	// CPU, merging the chain's two CPU segments.
	mig := migs[0]
	if mig.Plan.Selector != "Multi-PAM" || len(mig.Plan.Steps) != 1 {
		t.Fatalf("plan = %v, want one Multi-PAM step", mig.Plan)
	}
	step := mig.Plan.Steps[0]
	splitIdx := len(res.Tenants) - 1
	split := res.Tenants[splitIdx]
	if split.Name != res.Spec.Focus || step.ChainIndex != splitIdx ||
		step.Step.Element != "slog0" || step.Step.To != device.KindCPU {
		t.Fatalf("step = %+v, want slog0 of the split tenant -> CPU", step)
	}
	if got := split.Placement.Crossings(); got != 2 {
		t.Errorf("split chain crossings after the push-aside = %d, want 2 (was 4)", got)
	}

	// The overload must have been crossing-bound, detected from measured
	// telemetry: some pre-migration window shows DMA demand past the
	// threshold while both device demands stay clearly below it, and the
	// engine's grant is pinned near its 1.0 link-seconds/s budget.
	var hot bool
	var peakDMA, grantSum, grantWin float64
	for _, s := range srv.Samples {
		if s.At >= mig.At {
			break
		}
		if s.DMA.Utilization > peakDMA {
			peakDMA = s.DMA.Utilization
		}
		if s.DMA.Utilization >= 0.95 {
			hot = true
			if s.NIC.Utilization >= 0.80 {
				t.Errorf("window %v: NIC demand %.2f during the DMA-hot phase; the overload should be crossing-bound",
					s.At, s.NIC.Utilization)
			}
			if s.CPU.Utilization >= 0.95 {
				t.Errorf("window %v: CPU demand %.2f during the DMA-hot phase", s.At, s.CPU.Utilization)
			}
			// Mean over the hot windows, not per window: grant is metered at
			// burst completion, so a single window swings far above or below
			// the refill rate by quantization alone (see the multi-tenant
			// test's grant assertion for the full argument).
			grantSum += s.DMA.GrantRate * s.Window.Seconds()
			grantWin += s.Window.Seconds()
			if s.DMA.ToCPU.Demand <= 0 || s.DMA.ToNIC.Demand <= 0 {
				t.Errorf("window %v: per-direction DMA demand = %+v, want both sides loaded", s.At, s.DMA)
			}
		}
	}
	if grantWin > 0 {
		if mean := grantSum / grantWin; mean > 1.45 {
			t.Errorf("engine granted %.2f link-seconds/s on average over the hot windows; the shared gate should cap near 1.0", mean)
		}
	}
	if !hot {
		t.Errorf("measured DMA demand never crossed the threshold before the migration: peak %.2f", peakDMA)
	}

	// Relief: the engine cools below threshold and the split tenant's
	// delivered throughput recovers from the collapse to the offered rate.
	if len(srv.Samples) == 0 {
		t.Fatal("no telemetry samples")
	}
	final := srv.Samples[len(srv.Samples)-1]
	if final.DMA.Utilization >= 0.95 {
		t.Errorf("DMA demand not relieved: final %.2f", final.DMA.Utilization)
	}
	offered := res.Spec.FocusTenant().PeakGbps()
	if split.PreGbps > 0.85*offered {
		t.Errorf("split tenant delivered %.2f Gbps during the storm (offered %.2f): no real crossing collapse",
			split.PreGbps, offered)
	}
	if split.PostGbps < 0.85*offered {
		t.Errorf("split tenant did not recover: %.2f Gbps after the push-aside (offered %.2f)",
			split.PostGbps, offered)
	}
	if split.PostGbps <= split.PreGbps {
		t.Errorf("no recovery: %.2f Gbps during vs %.2f after", split.PreGbps, split.PostGbps)
	}
	if len(srv.Samples) < 10 {
		t.Errorf("telemetry timeline too short: %d windows", len(srv.Samples))
	}
}

// Stability-harness tests: the tuned loop must fire at least once under the
// hover workload and never ping-pong, each episode must genuinely shed NIC
// demand, time-to-relief must stay within 2× the deterministic-ramp
// baseline, and collapsing the hysteresis band to zero must demonstrably
// produce the ping-pong the tuned band prevents. See DESIGN.md §5 for the
// hover calibration.

// stabilitySeeds are the fixed seeds the stability assertions hold for (the
// CI smoke script loops the same three).
var stabilitySeeds = []int64{1, 2, 3}

func runStability(t *testing.T, seed int64, mutate func(*scenario.Spec)) (*scenario.Result, scenario.ServerResult) {
	t.Helper()
	res := run(t, "stability", seed, mutate)
	srv := res.Servers[0]
	t.Logf("seed %d: events=%d migrations=%d reclaims=%d pingpongs=%d det(ev=%d clr=%d re=%d) settled=%v",
		seed, len(srv.Events), srv.Migrations, srv.Reclaims, len(srv.PingPongs),
		srv.DetectorEvents, srv.DetectorClears, srv.DetectorRearms, srv.Settled)
	for _, ep := range srv.Episodes {
		t.Logf("seed %d: episode at=%v pre=%.3f post=%.3f relief=%v", seed, ep.At, ep.PreDemand, ep.PostDemand, ep.Relief)
	}
	for _, ts := range res.Tenants {
		t.Logf("seed %d: tenant %s mean=%.3f p50=%.3f p99=%.3f p99.9=%.3f lat{%v}",
			seed, ts.Name, ts.MeanGbps, ts.DeliveredP50, ts.DeliveredP99, ts.DeliveredP999, ts.Final.Latency)
	}
	return res, srv
}

// TestLiveStabilityNoPingPong is the harness's core claim: across the fixed
// seeds, the tuned loop fires on the hovering load, relieves it, and never
// bounces an element back and forth — and every relieved episode really
// sheds NIC demand (monotone convergence of the border slide).
func TestLiveStabilityNoPingPong(t *testing.T) {
	for _, seed := range stabilitySeeds {
		res, srv := runStability(t, seed, nil)
		if err := res.Check(); err != nil {
			t.Errorf("seed %d: spec expectation: %v", seed, err)
		}
		if srv.DetectorEvents < 1 || srv.Migrations < 1 {
			t.Errorf("seed %d: expected at least one episode and migration, got events=%d migrations=%d",
				seed, srv.DetectorEvents, srv.Migrations)
		}
		if len(srv.PingPongs) != 0 {
			t.Errorf("seed %d: tuned loop ping-ponged: %+v", seed, srv.PingPongs)
		}
		if srv.Reclaims != 0 {
			t.Errorf("seed %d: headroom guard should block every reclaim under hover, executed %d", seed, srv.Reclaims)
		}
		relieved := 0
		for i, ep := range srv.Episodes {
			if ep.Relief < 0 {
				continue
			}
			relieved++
			if ep.PostDemand >= ep.PreDemand {
				t.Errorf("seed %d: episode %d did not shed demand: pre=%.3f post=%.3f",
					seed, i, ep.PreDemand, ep.PostDemand)
			}
		}
		if relieved < 1 {
			t.Errorf("seed %d: no episode reached relief", seed)
		}
		for _, ts := range res.Tenants {
			if !(ts.DeliveredP999 >= ts.DeliveredP99 && ts.DeliveredP99 >= ts.DeliveredP50) {
				t.Errorf("seed %d: tenant %s quantiles out of order: p50=%.3f p99=%.3f p99.9=%.3f",
					seed, ts.Name, ts.DeliveredP50, ts.DeliveredP99, ts.DeliveredP999)
			}
			if ts.DeliveredP50 <= 0 || ts.Final.Latency.Count == 0 {
				t.Errorf("seed %d: tenant %s reported no delivery (p50=%.3f latency n=%d)",
					seed, ts.Name, ts.DeliveredP50, ts.Final.Latency.Count)
			}
		}
	}
}

// TestLiveStabilityReliefBounded compares the stochastic run's time-to-relief
// against the deterministic two-phase ramp baseline — the hover tenant's
// schedule replaced by calm at the band's lower edge, then overload at its
// upper edge: hovering noise must not stretch recovery beyond 2× the
// clean-ramp relief (plus one polling window of measurement slack).
func TestLiveStabilityReliefBounded(t *testing.T) {
	_, base := runStability(t, stabilitySeeds[0], func(s *scenario.Spec) {
		s.FocusTenant().Phases = []traffic.Phase{
			{RateGbps: 0.50, Duration: 500 * time.Millisecond},
			{RateGbps: 0.90, Duration: 1500 * time.Millisecond},
		}
	})
	baseline := time.Duration(-1)
	for _, ep := range base.Episodes {
		if ep.Relief >= 0 {
			baseline = ep.Relief
			break
		}
	}
	if baseline < 0 {
		t.Fatalf("ramp baseline never reached relief: %+v", base.Episodes)
	}
	pollEvery := scenario.DefaultLiveParams().PollEvery
	bound := 2*baseline + pollEvery
	for _, seed := range stabilitySeeds {
		_, srv := runStability(t, seed, nil)
		for i, ep := range srv.Episodes {
			if ep.Relief >= 0 && ep.Relief > bound {
				t.Errorf("seed %d: episode %d relief %v exceeds bound %v (baseline %v)",
					seed, i, ep.Relief, bound, baseline)
			}
		}
	}
}

// TestLiveStabilityDetunedPingPongs is the negative control: collapse the
// hysteresis band to zero (ClearThreshold = Threshold) and the reclaim
// guard loses its stability margin — the loop restores the Logger during a
// low dwell, the next high dwell re-fires, and the element bounces. The
// assertion the tuned loop passes must demonstrably fail here.
func TestLiveStabilityDetunedPingPongs(t *testing.T) {
	bounced := false
	for _, seed := range stabilitySeeds {
		res, srv := runStability(t, seed, func(s *scenario.Spec) {
			s.Live.Detector = telemetry.DetectorConfig{
				Threshold:      0.95,
				ClearThreshold: 0.95, // hysteresis band collapsed to zero
				Consecutive:    3,
				Alpha:          0.5,
			}
		})
		if len(srv.PingPongs) > 0 {
			bounced = true
			if srv.Reclaims < 1 {
				t.Errorf("seed %d: ping-pong without a reclaim leg: %+v", seed, srv.PingPongs)
			}
			if res.Check() == nil {
				t.Errorf("seed %d: the spec's expectation passed a ping-ponging run", seed)
			}
		}
	}
	if !bounced {
		t.Errorf("band-0 detector never ping-ponged across seeds %v — the stability assertion would not discriminate", stabilitySeeds)
	}
}

// tenantSeries extracts one tenant's per-window delivered throughput on one
// server, in poll order.
func tenantSeries(samples []emul.LoadSample, ti int) (rates []float64) {
	for _, s := range samples {
		if ti < len(s.Chains) {
			rates = append(rates, s.Chains[ti].DeliveredGbps)
		}
	}
	return rates
}

// rollingMin returns the smallest mean over any `win` consecutive samples —
// the sustained-delivery floor (single windows are too granular: a tenant's
// CBR bursts need not align with 25 ms sampling windows).
func rollingMin(rates []float64, win int) float64 {
	if len(rates) < win {
		win = len(rates)
	}
	if win == 0 {
		return 0
	}
	min := -1.0
	for i := 0; i+win <= len(rates); i++ {
		var sum float64
		for _, r := range rates[i : i+win] {
			sum += r
		}
		if m := sum / float64(win); min < 0 || m < min {
			min = m
		}
	}
	return min
}

func tailMean(rates []float64, n int) float64 {
	if len(rates) > 1 {
		rates = rates[:len(rates)-1] // run-end boundary window
	}
	if len(rates) > n {
		rates = rates[len(rates)-n:]
	}
	var sum float64
	for _, r := range rates {
		sum += r
	}
	if len(rates) == 0 {
		return 0
	}
	return sum / float64(len(rates))
}

// TestFleetScaleOut is the fleet tier's -race e2e: server A's storm ramp
// overloads both devices at once (the scale-out terminal case), the local loop
// escalates instead of dead-ending, the coordinator migrates the storm to the
// calm server B over the transport, A's detector clears, the storm's delivered
// throughput recovers on B, and the co-resident backgrounds on both servers
// keep flowing throughout.
func TestFleetScaleOut(t *testing.T) {
	res := run(t, "fleet", scenario.DefaultParams().Seed, nil)
	a, b := res.Servers[0], res.Servers[1]
	diag := func() string {
		out := "\ncoordinator log:\n"
		for _, l := range res.CoordinatorLog {
			out += "  " + l + "\n"
		}
		out += "server A events:\n"
		for _, e := range a.Events {
			out += "  " + e.Format(time.Millisecond) + "\n"
		}
		return out
	}
	if err := res.Check(); err != nil {
		t.Errorf("spec expectation: %v%s", err, diag())
	}

	// The terminal case was reported upward, not swallowed.
	if a.Escalations == 0 {
		t.Fatalf("server A never escalated%s", diag())
	}
	// The coordinator migrated the storm A -> B through the transport.
	if len(res.Handoffs) != 1 {
		t.Fatalf("migrations = %v, want exactly one%s", res.Handoffs, diag())
	}
	m := res.Handoffs[0]
	if m.Tenant != "storm" || m.From != "srv-a" || m.To != "srv-b" || a.ID != m.From || b.ID != m.To {
		t.Errorf("migration %v, want storm srv-a -> srv-b", m)
	}
	if m.StateBytes == 0 {
		t.Error("no NF state shipped with the storm chain")
	}
	var onB []string
	for _, tn := range res.Tenants {
		if tn.Home == b.ID {
			onB = append(onB, tn.Name)
		}
	}
	if len(onB) != 2 {
		t.Errorf("final placement on srv-b %v, want storm joined bg-nic-b", onB)
	}
	// The source detector saw the overload end.
	if !a.Cleared() {
		t.Errorf("server A's detector never cleared%s", diag())
	}
	// The storm's delivered throughput recovered on B: during A's collapse
	// both devices were saturated, so its pre-handoff delivery was capped
	// well below offered; on B the chain is feasible again.
	storm, offered := res.Tenants[2], res.Spec.FocusTenant().PeakGbps()
	if storm.Name != res.Spec.Focus {
		t.Fatalf("tenant 2 is %q, want the storm", storm.Name)
	}
	if storm.PostGbps < 0.75*offered {
		t.Errorf("storm delivered %.3f Gbps on srv-b, want >= 75%% of the %.1f offered%s",
			storm.PostGbps, offered, diag())
	}
	if storm.PostGbps <= storm.PreGbps {
		t.Errorf("storm did not recover: pre %.3f -> post %.3f Gbps%s",
			storm.PreGbps, storm.PostGbps, diag())
	}

	// Co-resident backgrounds on both servers keep flowing. B's background
	// shares its NIC with the arriving storm yet stays feasible; A's
	// backgrounds are squeezed during the collapse but never starve, and
	// recover to near baseline once the storm leaves.
	for _, tc := range []struct {
		name     string
		srv      scenario.ServerResult
		ti       int
		floor    float64 // sustained rolling-mean floor over the whole run
		recovery float64 // tail mean as a fraction of offered
	}{
		{"bg-nic-b", b, 3, 0.10, 0.70},
		{"bg-nic-a", a, 0, 0.05, 0.70},
		{"bg-cpu-a", a, 1, 0.05, 0.70},
	} {
		offered := res.Spec.Tenants[tc.ti].PeakGbps()
		if res.Tenants[tc.ti].Name != tc.name {
			t.Fatalf("tenant %d is %q, want %q", tc.ti, res.Tenants[tc.ti].Name, tc.name)
		}
		rates := tenantSeries(tc.srv.Samples, tc.ti)
		if len(rates) < 8 {
			t.Fatalf("%s: only %d windows sampled", tc.name, len(rates))
		}
		interior := rates[1 : len(rates)-1] // boundary windows are partial
		if m := rollingMin(interior, 4); m < tc.floor {
			t.Errorf("%s sustained delivery dropped to %.3f Gbps, floor %.2f%s",
				tc.name, m, tc.floor, diag())
		}
		if tm := tailMean(rates, 8); tm < tc.recovery*offered {
			t.Errorf("%s tail mean %.3f Gbps, want >= %.0f%% of %.2f offered%s",
				tc.name, tm, 100*tc.recovery, offered, diag())
		}
	}
}
