package emul_test

import (
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/device"
	"repro/internal/emul"
	"repro/internal/nf"
	"repro/internal/pcie"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

func newRuntime(t *testing.T, scale float64) *emul.Runtime {
	t.Helper()
	r, err := emul.New(emul.Config{
		Chains:  []*chain.Chain{scenario.Figure1Chain()},
		Catalog: device.Table1(),
		Link:    pcie.DefaultLink(),
		Scale:   scale,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestEndToEndDelivery(t *testing.T) {
	r := newRuntime(t, 100) // generous rates so nothing throttles
	r.Start()
	synth := traffic.NewSynth(8, 1)
	const n = 500
	sent := 0
	for i := 0; i < n; i++ {
		if r.SendChain(0, synth.Frame(uint64(i%8), 512)) {
			sent++
		}
	}
	r.Drain()
	res := r.Results()
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// All accepted frames must be accounted for: delivered + NF verdict
	// drops (firewall/DPI may legitimately drop) + queue drops.
	var queueDrops uint64
	for _, d := range res.QueueDrops {
		queueDrops += d
	}
	var nfDrops uint64
	for _, s := range r.NFStats() {
		nfDrops += s.Dropped
	}
	if res.Delivered+nfDrops+queueDrops != uint64(sent) {
		t.Errorf("accounting: delivered=%d nfDrops=%d queueDrops=%d sent=%d",
			res.Delivered, nfDrops, queueDrops, sent)
	}
	if res.IngressDrops != uint64(n-sent) {
		t.Errorf("ingress drops = %d, want %d", res.IngressDrops, n-sent)
	}
	// Every NF processed traffic.
	for name, s := range r.NFStats() {
		if s.Processed == 0 {
			t.Errorf("NF %s processed nothing", name)
		}
	}
	r.Close()
}

func TestThrottleEnforcesCapacity(t *testing.T) {
	// Scale 1e5: Logger on the NIC throttles to 2 Gbps/1e5 = 2.5 kB/s;
	// 20 frames × 512 B = 10.24 kB minus the ~3 kB burst needs ≈ 3 s of
	// tokens at the Logger — the pipeline must take visibly long.
	r := newRuntime(t, 1e5)
	r.Start()
	synth := traffic.NewSynth(4, 2)
	start := time.Now()
	const n = 20
	for i := 0; i < n; i++ {
		r.SendChain(0, synth.Frame(uint64(i%4), 512))
	}
	r.Drain()
	elapsed := time.Since(start)
	res := r.Results()
	r.Close()
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	t.Logf("delivered %d frames in %v", res.Delivered, elapsed)
	if elapsed < 200*time.Millisecond {
		t.Errorf("throttle had no effect: %v", elapsed)
	}
}

func TestLiveMigrationKeepsState(t *testing.T) {
	r := newRuntime(t, 100)
	r.Start()
	defer r.Close()
	synth := traffic.NewSynth(8, 3)
	for i := 0; i < 200; i++ {
		r.SendChain(0, synth.Frame(uint64(i%8), 256))
	}
	r.Drain()

	inst, ok := r.Instance(scenario.NameMonitor)
	if !ok {
		t.Fatal("monitor instance missing")
	}
	flowsBefore := inst.(*nf.Monitor).FlowCount()
	if flowsBefore == 0 {
		t.Fatal("monitor saw no flows before migration")
	}

	rep, err := r.MigrateChain(0, scenario.NameMonitor, device.KindCPU)
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if rep.StateBytes == 0 {
		t.Error("migration moved no state")
	}
	got := r.Placement()
	if got.At(got.Index(scenario.NameMonitor)).Loc != device.KindCPU {
		t.Error("placement not updated")
	}
	inst2, _ := r.Instance(scenario.NameMonitor)
	if inst2.(*nf.Monitor).FlowCount() != flowsBefore {
		t.Errorf("flow state lost: %d -> %d", flowsBefore, inst2.(*nf.Monitor).FlowCount())
	}

	// Traffic continues post-migration.
	before := r.Results().Delivered
	for i := 0; i < 100; i++ {
		r.SendChain(0, synth.Frame(uint64(i%8), 256))
	}
	r.Drain()
	if r.Results().Delivered <= before {
		t.Error("no deliveries after migration")
	}
}

func TestMigrationUnderLoad(t *testing.T) {
	// Frames sent concurrently with the migration must not be lost
	// (loss-free UNO semantics): delivered + NF drops + queue drops == sent.
	// A queue deep enough for the whole burst guarantees zero queue drops.
	r, err := emul.New(emul.Config{
		Chains:     []*chain.Chain{scenario.Figure1Chain()},
		Catalog:    device.Table1(),
		Link:       pcie.DefaultLink(),
		Scale:      100,
		QueueDepth: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()
	synth := traffic.NewSynth(8, 4)

	done := make(chan int)
	go func() {
		sent := 0
		for i := 0; i < 1000; i++ {
			if r.SendChain(0, synth.Frame(uint64(i%8), 200)) {
				sent++
			}
		}
		done <- sent
	}()
	time.Sleep(2 * time.Millisecond)
	if _, err := r.MigrateChain(0, scenario.NameLogger, device.KindCPU); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	sent := <-done
	r.Drain()
	res := r.Results()
	var queueDrops uint64
	for _, d := range res.QueueDrops {
		queueDrops += d
	}
	var nfDrops uint64
	for _, s := range r.NFStats() {
		nfDrops += s.Dropped
	}
	if res.Delivered+nfDrops+queueDrops != uint64(sent) {
		t.Errorf("frames lost across migration: delivered=%d nfDrops=%d queueDrops=%d sent=%d",
			res.Delivered, nfDrops, queueDrops, sent)
	}
	if queueDrops != 0 {
		t.Errorf("queue drops = %d; the 2048-deep freeze buffer must absorb the burst", queueDrops)
	}
}

func TestMigrateUnknownElement(t *testing.T) {
	r := newRuntime(t, 100)
	r.Start()
	defer r.Close()
	if _, err := r.MigrateChain(0, "nope", device.KindCPU); err == nil {
		t.Error("unknown element accepted")
	}
}

func TestMigrateNoopSameDevice(t *testing.T) {
	r := newRuntime(t, 100)
	r.Start()
	defer r.Close()
	rep, err := r.MigrateChain(0, scenario.NameLB, device.KindCPU) // already there
	if err != nil {
		t.Fatal(err)
	}
	if rep.StateBytes != 0 {
		t.Error("no-op migration moved state")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := emul.New(emul.Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := emul.New(emul.Config{Chains: []*chain.Chain{scenario.Figure1Chain()}}); err == nil {
		t.Error("missing catalog accepted")
	}
}

func TestConfigValidatesLink(t *testing.T) {
	// Regression: withDefaults never called Link.Validate (chainsim does),
	// so a negative PropDelay or bandwidth was silently accepted and later
	// produced negative sleeps and negative DMA-gate costs.
	base := func() emul.Config {
		return emul.Config{Chains: []*chain.Chain{scenario.Figure1Chain()}, Catalog: device.Table1()}
	}
	bad := base()
	bad.Link = pcie.Link{PropDelay: -time.Microsecond}
	if _, err := emul.New(bad); err == nil {
		t.Error("negative PropDelay accepted")
	}
	bad = base()
	bad.Link = pcie.Link{BandwidthGbps: -64}
	if _, err := emul.New(bad); err == nil {
		t.Error("negative bandwidth accepted")
	}
	good := base()
	good.Link = pcie.DefaultLink()
	r, err := emul.New(good)
	if err != nil {
		t.Fatalf("default link rejected: %v", err)
	}
	_ = r
}
