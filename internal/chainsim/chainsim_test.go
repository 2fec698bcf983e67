package chainsim_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/chainsim"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

func figConfig(t *testing.T, c *chain.Chain) chainsim.Config {
	t.Helper()
	p := scenario.DefaultParams()
	return chainsim.Config{
		Chain:         c,
		Catalog:       device.Table1(),
		NFOverhead:    p.NFOverhead,
		Link:          pcie.Link{PropDelay: p.PCIeLatency, BandwidthGbps: p.PCIeBandwidthGbps},
		DMAEngineGbps: float64(p.DMAEngineGbps),
		QueueCapacity: p.QueueCapacity,
		Seed:          p.Seed,
		Warmup:        10 * time.Millisecond,
	}
}

func run(t *testing.T, cfg chainsim.Config, rateGbps float64, size int, dur time.Duration, proc traffic.Process) chainsim.Result {
	t.Helper()
	s, err := chainsim.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	src, err := traffic.NewGen(rateGbps, traffic.FixedSize(size), proc, 16, 0, dur, cfg.Seed)
	if err != nil {
		t.Fatalf("NewGen: %v", err)
	}
	s.Inject(src)
	return s.Run(dur + 50*time.Millisecond) // drain tail
}

func TestUnloadedLatencyMatchesAnalyticalModel(t *testing.T) {
	// At negligible load there is no queueing, so the end-to-end latency of
	// the Figure-1 chain at 1024B must equal the hand computation in
	// DESIGN.md §5: device service + per-NF overhead + crossings.
	p := scenario.DefaultParams()
	cfg := figConfig(t, scenario.Figure1Chain())
	res := run(t, cfg, 0.05, 1024, 200*time.Millisecond, traffic.ProcessCBR)
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	bits := 1024.0 * 8
	crossing := float64(p.PCIeLatency.Nanoseconds()) + bits/p.PCIeBandwidthGbps + bits/float64(p.DMAEngineGbps)
	service := bits/2 + bits/3.2 + bits/10 + bits/4 // Logger, Monitor, Firewall (NIC), LB (CPU) in ns at Gbps
	overhead := 4 * float64(p.NFOverhead.Nanoseconds())
	want := 2*crossing + service + overhead
	got := res.Latency.Mean
	if math.Abs(got-want) > want*0.02 {
		t.Errorf("mean latency = %.0fns, analytical %.0fns (>2%% off)", got, want)
	}
}

func TestSaturationMatchesFluidModel(t *testing.T) {
	// Offered 4 Gbps against the original Figure-1 placement: the NIC
	// saturates at 1/(0.9125 + 2/40) = 1.039 Gbps in the fluid model; the
	// DES must deliver within a few percent of that (boundary/queue effects
	// allowed) and drop the rest.
	cfg := figConfig(t, scenario.Figure1Chain())
	res := run(t, cfg, 4.0, 1024, 300*time.Millisecond, traffic.ProcessCBR)
	want := 1 / 0.9125 // DMA engines (40/2 = 20 Gbps) never bind
	if math.Abs(res.DeliveredGbps-want) > want*0.05 {
		t.Errorf("delivered = %.3f Gbps, fluid model %.3f", res.DeliveredGbps, want)
	}
	if res.Dropped == 0 {
		t.Error("overload produced no drops")
	}
	if res.NICUtil < 0.95 {
		t.Errorf("NIC util = %.3f, want ≈1 under overload", res.NICUtil)
	}
}

func TestPoliciesReproduceFigure2Ordering(t *testing.T) {
	// The three placements (Original / Naive / PAM) must reproduce the
	// paper's Figure 2 shape: latency Original ≈ PAM < Naive (≈18% gap),
	// and throughput Original < Naive ≤ PAM.
	p := scenario.DefaultParams()
	orig := scenario.Figure1Chain()
	v := scenario.View(orig, p, 1.09) // delivered at overload ≈ NIC saturation 1.096

	pamPlan, err := core.PAM{}.Select(v)
	if err != nil {
		t.Fatalf("PAM: %v", err)
	}
	naivePlan, err := core.NaiveCheapestOnCPU{}.Select(v)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}

	type outcome struct {
		lat float64
		thr float64
	}
	measure := func(c *chain.Chain) outcome {
		cfg := figConfig(t, c)
		// Latency probes use Poisson arrivals: deterministic CBR phase-locks
		// into bunching artifacts behind heterogeneous job sizes (see the
		// methodology note in EXPERIMENTS.md); throughput-at-overload is
		// insensitive to the arrival process.
		lat := run(t, cfg, p.ProbeGbps, 1024, 200*time.Millisecond, traffic.ProcessPoisson)
		thr := run(t, cfg, p.OverloadGbps, 1024, 200*time.Millisecond, traffic.ProcessCBR)
		return outcome{lat: lat.Latency.Mean, thr: thr.DeliveredGbps}
	}
	o := measure(orig)
	n := measure(naivePlan.Result)
	pm := measure(pamPlan.Result)

	if !(o.thr < n.thr && n.thr <= pm.thr+0.01) {
		t.Errorf("throughput ordering wrong: orig=%.3f naive=%.3f pam=%.3f", o.thr, n.thr, pm.thr)
	}
	gap := (n.lat - pm.lat) / n.lat
	if gap < 0.12 || gap > 0.25 {
		t.Errorf("latency gap (naive-pam)/naive = %.3f, want ≈0.18", gap)
	}
	// "The service chain latency with PAM is almost unchanged compared to
	// the latency before migration" (§3). The pre-migration chain runs
	// closer to saturation, so it carries some extra queueing delay.
	if math.Abs(o.lat-pm.lat)/o.lat > 0.10 {
		t.Errorf("PAM latency %.0f deviates >10%% from original %.0f", pm.lat, o.lat)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	p := scenario.DefaultParams()
	_ = p
	if _, err := chainsim.New(chainsim.Config{}); err == nil {
		t.Error("empty config accepted")
	}
	// A chain whose element cannot run on its device must be rejected.
	c, err := chain.New("bad",
		chain.Element{Name: "dpi", Type: device.TypeDPI, Loc: device.KindSmartNIC})
	if err != nil {
		t.Fatal(err)
	}
	cfg := figConfig(t, c) // Table1 has no DPI entry
	if _, err := chainsim.New(cfg); err == nil {
		t.Error("config with unknown capacity accepted")
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := figConfig(t, scenario.Figure1Chain())
	r1 := run(t, cfg, 1.0, 512, 100*time.Millisecond, traffic.ProcessPoisson)
	r2 := run(t, cfg, 1.0, 512, 100*time.Millisecond, traffic.ProcessPoisson)
	if r1.Delivered != r2.Delivered || r1.Latency.Mean != r2.Latency.Mean {
		t.Errorf("simulation not deterministic: %+v vs %+v", r1.Latency, r2.Latency)
	}
}
