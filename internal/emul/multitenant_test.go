package emul_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/device"
	"repro/internal/emul"
	"repro/internal/pcie"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

func twoChains(t *testing.T) (*chain.Chain, *chain.Chain) {
	t.Helper()
	a, err := chain.New("tenant-a",
		chain.Element{Name: "a-log", Type: device.TypeLogger, Loc: device.KindSmartNIC},
	)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chain.New("tenant-b",
		chain.Element{Name: "b-mon", Type: device.TypeMonitor, Loc: device.KindSmartNIC},
	)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestMigrationFreezeScopedToChain proves the freeze is chain-scoped: while
// tenant A's element is frozen mid-migration (held open for tens of
// milliseconds by a slow emulated link), tenant B keeps delivering frames.
// Run under -race: the sender, the migrating coordinator and both chains'
// workers run concurrently.
func TestMigrationFreezeScopedToChain(t *testing.T) {
	a, b := twoChains(t)
	r, err := emul.New(emul.Config{
		Chains:  []*chain.Chain{a, b},
		Catalog: device.Table1(),
		// A slow link plus SleepPCIe makes the migration's state transfer
		// really sleep, holding A's freeze open while B must keep flowing.
		Link:      pcie.Link{PropDelay: 40 * time.Millisecond, BandwidthGbps: 64},
		SleepPCIe: true,
		Scale:     100,
	})
	if err != nil {
		t.Fatal(err)
	}
	var deliveredB atomic.Uint64
	r.SetChainEgressTap(func(ci int, _ []byte) {
		if ci == 1 {
			deliveredB.Add(1)
		}
	})
	r.Start()
	defer r.Close()

	stop := make(chan struct{})
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		synth := traffic.NewSynth(8, 7)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.SendChain(1, synth.Frame(uint64(i%8), 256))
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Let B reach steady state, then migrate A's element. Migrate returns
	// only after the freeze→transfer→restore→resume sequence completes, so
	// the delivered-count delta across the call is traffic B moved while A
	// was mid-migration.
	time.Sleep(10 * time.Millisecond)
	before := deliveredB.Load()
	startMig := time.Now()
	rep, err := r.MigrateChain(0, "a-log", device.KindCPU)
	if err != nil {
		t.Fatalf("MigrateChain: %v", err)
	}
	frozen := time.Since(startMig)
	during := deliveredB.Load() - before
	close(stop)
	<-senderDone

	if frozen < 40*time.Millisecond {
		t.Fatalf("migration window only %v; the slow link should hold the freeze ≥ 40ms", frozen)
	}
	if rep.Transfer < 40*time.Millisecond {
		t.Errorf("measured transfer %v, want ≥ the link's 40ms propagation", rep.Transfer)
	}
	if during == 0 {
		t.Errorf("tenant B delivered nothing during tenant A's %v migration freeze", frozen)
	}
	pl := r.Placements()
	if loc := pl[0].At(0).Loc; loc != device.KindCPU {
		t.Errorf("A's element not migrated: %v", pl[0])
	}
	if loc := pl[1].At(0).Loc; loc != device.KindSmartNIC {
		t.Errorf("B's element moved by A's migration: %v", pl[1])
	}
}

// TestCrossChainUtilizationDetection drives two tenants, each well below
// its own capacity, and checks the summed accounting end to end: the
// sampler's NIC utilization is the exact sum of every resident element's
// utilization across both chains, each chain alone stays below the overload
// threshold, and the detector fires on the aggregate — the hot spot exists
// only because the tenants share the device.
func TestCrossChainUtilizationDetection(t *testing.T) {
	a, b := twoChains(t)
	r, err := emul.New(emul.Config{
		Chains:  []*chain.Chain{a, b},
		Catalog: device.Table1(),
		Link:    pcie.DefaultLink(),
		Scale:   1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()
	ls := emul.NewLoadSampler(r)
	det := telemetry.NewDetector(telemetry.DetectorConfig{Consecutive: 2, Alpha: 1})

	// Pace one 512 B frame per 2.5 ms into each chain against absolute
	// deadlines: ≈1.64 Mbps wall → 1.64 Gbps catalog. Nominal utilization:
	// logger 0.82, monitor 0.51 — each chain individually below the 0.95
	// threshold; the sum ≈ 1.33 is far above it, with headroom for a loaded
	// CI machine (sleeps only overshoot, which lowers both terms together).
	synth := traffic.NewSynth(8, 9)
	const tick = 2500 * time.Microsecond
	const window = 50 * time.Millisecond
	start := time.Now()
	fired := false
	var samples []emul.LoadSample
	for i := 1; time.Since(start) < 200*time.Millisecond; i++ {
		r.SendChain(0, synth.Frame(uint64(i%8), 512))
		r.SendChain(1, synth.Frame(uint64((i+3)%8), 512))
		if len(samples) < int(time.Since(start)/window) {
			s := ls.Sample()
			samples = append(samples, s)
			if fire, _ := det.Observe(s.Telemetry()); fire {
				fired = true
				break
			}
		}
		if d := time.Duration(i)*tick - time.Since(start); d > 0 {
			time.Sleep(d)
		}
	}

	if len(samples) == 0 {
		t.Fatal("no samples taken")
	}
	for _, s := range samples {
		// Exact accounting: device demand (what the detector sees) is the
		// sum of offered demand over elements of every chain resident on it,
		// and the granted share is Σ served/θ.
		var demand, grant float64
		perChain := map[string]float64{}
		for _, el := range s.Elements {
			if el.Loc == device.KindSmartNIC {
				demand += el.Demand
				grant += el.Utilization
				perChain[el.Chain] += el.Demand
			}
		}
		if diff := s.NIC.Utilization - demand; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("NIC utilization %v != Σ element demand %v", s.NIC.Utilization, demand)
		}
		if diff := s.NIC.GrantUtilization - grant; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("NIC grant %v != Σ element served utilization %v", s.NIC.GrantUtilization, grant)
		}
		for name, u := range perChain {
			if u >= 0.95 {
				t.Fatalf("chain %s alone at %.2f demand; the test must overload only the sum", name, u)
			}
		}
		if len(perChain) == 2 && s.NIC.Utilization < 0.95 {
			t.Fatalf("summed demand %.2f below threshold; pacing too slow", s.NIC.Utilization)
		}
		// The shared gate physically caps the granted share at the device
		// budget (plus banked burst): the hot spot is real, not cosmetic.
		if len(perChain) == 2 && s.NIC.GrantUtilization > 1.35 {
			t.Fatalf("NIC granted %.2f device budget; the shared gate should cap near 1.0", s.NIC.GrantUtilization)
		}
	}
	if !fired {
		t.Fatalf("detector never fired on the summed demand; samples: %+v", samples)
	}
}

// TestMultiChainAccountingAndAddressing covers the per-chain bookkeeping of
// the multi-tenant runtime: per-chain offered/delivered roll up into the
// aggregate, egress frames are attributed to the right chain, stat keys are
// chain-qualified, and element addressing requires the chain when names
// repeat across tenants.
func TestMultiChainAccountingAndAddressing(t *testing.T) {
	a, err := chain.New("tenant-a",
		chain.Element{Name: "mon0", Type: device.TypeMonitor, Loc: device.KindSmartNIC},
	)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chain.New("tenant-b",
		chain.Element{Name: "mon0", Type: device.TypeMonitor, Loc: device.KindCPU},
	)
	if err != nil {
		t.Fatal(err)
	}
	r, err := emul.New(emul.Config{
		Chains:  []*chain.Chain{a, b},
		Catalog: device.Table1(),
		Link:    pcie.DefaultLink(),
		Scale:   10,
	})
	if err != nil {
		t.Fatal(err)
	}
	var egressA, egressB atomic.Uint64
	r.SetChainEgressTap(func(ci int, _ []byte) {
		if ci == 0 {
			egressA.Add(1)
		} else {
			egressB.Add(1)
		}
	})
	r.Start()
	defer r.Close()

	synth := traffic.NewSynth(8, 5)
	const na, nb = 120, 80
	for i := 0; i < na; i++ {
		r.SendChain(0, synth.Frame(uint64(i%8), 256))
	}
	for i := 0; i < nb; i++ {
		r.SendChain(1, synth.Frame(uint64(i%8), 256))
	}
	if r.SendChain(2, synth.Frame(0, 256)) {
		t.Error("out-of-range chain index accepted")
	}
	if r.SendChain(-1, synth.Frame(0, 256)) {
		t.Error("negative chain index accepted")
	}
	r.Drain()

	per := r.ChainResults()
	if len(per) != 2 {
		t.Fatalf("ChainResults = %d entries, want 2", len(per))
	}
	if per[0].Chain != "tenant-a" || per[1].Chain != "tenant-b" {
		t.Errorf("chain names = %q, %q", per[0].Chain, per[1].Chain)
	}
	if per[0].Offered != na || per[1].Offered != nb {
		t.Errorf("per-chain offered = %d/%d, want %d/%d", per[0].Offered, per[1].Offered, na, nb)
	}
	if egressA.Load() != per[0].Delivered || egressB.Load() != per[1].Delivered {
		t.Errorf("egress attribution: tap %d/%d vs results %d/%d",
			egressA.Load(), egressB.Load(), per[0].Delivered, per[1].Delivered)
	}
	agg := r.Results()
	if agg.Offered != na+nb {
		t.Errorf("aggregate offered = %d, want %d", agg.Offered, na+nb)
	}
	if agg.Delivered != per[0].Delivered+per[1].Delivered {
		t.Errorf("aggregate delivered %d != %d + %d", agg.Delivered, per[0].Delivered, per[1].Delivered)
	}
	if agg.Latency.Count != per[0].Latency.Count+per[1].Latency.Count {
		t.Errorf("aggregate latency count %d != %d + %d",
			agg.Latency.Count, per[0].Latency.Count, per[1].Latency.Count)
	}

	stats := r.NFStats()
	if _, ok := stats["tenant-a/mon0"]; !ok {
		t.Errorf("NFStats keys not chain-qualified: %v", stats)
	}

	// A duplicated element name is addressed through its chain.
	if _, err := r.MigrateChain(0, "mon0", device.KindCPU); err != nil {
		t.Errorf("MigrateChain: %v", err)
	}
	if pl := r.Placements(); pl[0].At(0).Loc != device.KindCPU || pl[1].At(0).Loc != device.KindCPU {
		t.Errorf("placements after chain-scoped migration: %v / %v", pl[0], pl[1])
	}
}

// TestConfigChainValidation covers the multi-chain configuration surface.
func TestConfigChainValidation(t *testing.T) {
	a, b := mustTwo(t)
	dup := a.Clone()
	if _, err := emul.New(emul.Config{Chains: []*chain.Chain{a, dup}, Catalog: device.Table1()}); err == nil {
		t.Error("duplicate chain names accepted")
	}
	if _, err := emul.New(emul.Config{Chains: []*chain.Chain{a, nil}, Catalog: device.Table1()}); err == nil {
		t.Error("nil chain entry accepted")
	}
	r, err := emul.New(emul.Config{Chains: []*chain.Chain{a, b}, Catalog: device.Table1(), Scale: 100})
	if err != nil {
		t.Fatalf("two-chain config rejected: %v", err)
	}
	if got := len(r.Placements()); got != 2 {
		t.Errorf("Placements = %d entries, want 2", got)
	}
}

// statKey-qualified maps aside, single-chain behaviour must be unchanged:
// bare element names and a bare Results view.
func TestSingleChainKeysUnqualified(t *testing.T) {
	a, _ := mustTwo(t)
	r, err := emul.New(emul.Config{Chains: []*chain.Chain{a}, Catalog: device.Table1(), Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()
	synth := traffic.NewSynth(4, 3)
	for i := 0; i < 50; i++ {
		r.SendChain(0, synth.Frame(uint64(i%4), 256))
	}
	r.Drain()
	if _, ok := r.NFStats()["x0"]; !ok {
		t.Errorf("single-chain NFStats keys qualified: %v", r.NFStats())
	}
	if res := r.Results(); res.Chain != "" || res.Delivered == 0 {
		t.Errorf("single-chain aggregate results: %+v", res)
	}
}

func mustTwo(t *testing.T) (*chain.Chain, *chain.Chain) {
	t.Helper()
	a, err := chain.New("a", chain.Element{Name: "x0", Type: device.TypeMonitor, Loc: device.KindSmartNIC})
	if err != nil {
		t.Fatal(err)
	}
	b, err := chain.New("b", chain.Element{Name: "y0", Type: device.TypeFirewall, Loc: device.KindSmartNIC})
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestFreezeSixteenTenantsWorkerPool is the worker-pool version of the
// chain-scoped-freeze guarantee at realistic tenancy: 16 single-element
// tenants share a two-worker pool, so the migrating tenant's ring lives on
// a worker that also owns seven other tenants' rings. While tenant 0 is
// frozen for ≥40 ms (slow emulated link + SleepPCIe), every one of the 15
// other tenants — including the ones on the frozen tenant's own worker —
// must keep delivering: the pause drains only the migrating element's
// rings, the worker itself never parks on the freeze. Run under -race: the
// sender, the migration coordinator and both pool workers race here.
func TestFreezeSixteenTenantsWorkerPool(t *testing.T) {
	const tenants = 16
	chains := make([]*chain.Chain, tenants)
	for i := range chains {
		c, err := chain.New(fmt.Sprintf("tenant-%02d", i),
			chain.Element{Name: fmt.Sprintf("mon%d", i), Type: device.TypeMonitor, Loc: device.KindSmartNIC},
		)
		if err != nil {
			t.Fatal(err)
		}
		chains[i] = c
	}
	r, err := emul.New(emul.Config{
		Chains:    chains,
		Catalog:   device.Table1(),
		Link:      pcie.Link{PropDelay: 40 * time.Millisecond, BandwidthGbps: 64},
		SleepPCIe: true,
		Scale:     100,
		Workers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var delivered [tenants]atomic.Uint64
	r.SetChainEgressTap(func(ci int, _ []byte) {
		delivered[ci].Add(1)
	})
	r.Start()
	defer r.Close()

	stop := make(chan struct{})
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		synth := traffic.NewSynth(8, 11)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// One sweep across the non-migrating tenants, then yield: each
			// tenant sees a frame roughly every half millisecond, so a 40 ms
			// freeze window holds dozens of delivery opportunities per tenant.
			for ci := 1; ci < tenants; ci++ {
				r.SendChain(ci, synth.Frame(uint64(i%8), 256))
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	time.Sleep(10 * time.Millisecond)
	var before [tenants]uint64
	for ci := 1; ci < tenants; ci++ {
		before[ci] = delivered[ci].Load()
	}
	startMig := time.Now()
	rep, err := r.MigrateChain(0, "mon0", device.KindCPU)
	if err != nil {
		t.Fatalf("MigrateChain: %v", err)
	}
	frozen := time.Since(startMig)
	var during [tenants]uint64
	for ci := 1; ci < tenants; ci++ {
		during[ci] = delivered[ci].Load() - before[ci]
	}
	close(stop)
	<-senderDone

	if frozen < 40*time.Millisecond {
		t.Fatalf("migration window only %v; the slow link should hold the freeze ≥ 40ms", frozen)
	}
	if rep.Transfer < 40*time.Millisecond {
		t.Errorf("measured transfer %v, want ≥ the link's 40ms propagation", rep.Transfer)
	}
	for ci := 1; ci < tenants; ci++ {
		if during[ci] == 0 {
			t.Errorf("tenant %d delivered nothing during tenant 0's %v freeze", ci, frozen)
		}
	}
	pl := r.Placements()
	if loc := pl[0].At(0).Loc; loc != device.KindCPU {
		t.Errorf("migrated element not on CPU: %v", pl[0])
	}
	for ci := 1; ci < tenants; ci++ {
		if loc := pl[ci].At(0).Loc; loc != device.KindSmartNIC {
			t.Errorf("tenant %d moved by tenant 0's migration: %v", ci, pl[ci])
		}
	}
}
