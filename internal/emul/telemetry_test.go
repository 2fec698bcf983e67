package emul_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/device"
	"repro/internal/emul"
	"repro/internal/pcie"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

func TestLoadSamplerMeasuresWindow(t *testing.T) {
	r := newRuntime(t, 1) // Scale 1: gates effectively never throttle
	r.Start()
	defer r.Close()
	ls := emul.NewLoadSampler(r)

	synth := traffic.NewSynth(8, 1)
	const n, size = 400, 512
	sent := 0
	for i := 0; i < n; i++ {
		if r.SendChain(0, synth.Frame(uint64(i%8), size)) {
			sent++
		}
	}
	r.Drain()
	time.Sleep(2 * time.Millisecond) // ensure a non-degenerate window
	s := ls.Sample()

	if s.Window < time.Millisecond {
		t.Fatalf("window = %v, want >= 1ms", s.Window)
	}
	if len(s.Elements) != 4 {
		t.Fatalf("elements = %d, want 4", len(s.Elements))
	}
	// Every element upstream of a verdict drop processes all accepted
	// frames; the head element must have seen exactly the accepted count.
	if got := s.Elements[0].ServedPkts; got != uint64(sent) {
		t.Errorf("head served %d pkts, want %d", got, sent)
	}
	// Device aggregation: Figure 1 places LB on the CPU and the rest on the
	// NIC. Device Utilization (what the detector sees) must be the sum of
	// offered demand per resident element, and GrantUtilization the sum of
	// what they were actually granted (served/θ).
	var nicD, cpuD, nicG, cpuG float64
	for _, el := range s.Elements {
		cap, err := device.Table1().Lookup(el.Type, el.Loc)
		if err != nil {
			t.Fatalf("lookup %s on %v: %v", el.Type, el.Loc, err)
		}
		if el.ServedPkts == 0 {
			t.Errorf("element %s served nothing", el.Name)
		}
		if el.OfferedPkts < el.ServedPkts {
			t.Errorf("%s offered %d pkts < served %d", el.Name, el.OfferedPkts, el.ServedPkts)
		}
		if want := el.ServedGbps / float64(cap); math.Abs(el.Utilization-want) > 1e-9 {
			t.Errorf("%s utilization = %v, want %v", el.Name, el.Utilization, want)
		}
		if want := el.OfferedGbps / float64(cap); math.Abs(el.Demand-want) > 1e-9 {
			t.Errorf("%s demand = %v, want %v", el.Name, el.Demand, want)
		}
		if el.Loc == device.KindCPU {
			cpuD += el.Demand
			cpuG += el.Utilization
		} else {
			nicD += el.Demand
			nicG += el.Utilization
		}
	}
	if math.Abs(s.NIC.Utilization-nicD) > 1e-9 || math.Abs(s.CPU.Utilization-cpuD) > 1e-9 {
		t.Errorf("device demand NIC=%v CPU=%v, want %v / %v",
			s.NIC.Utilization, s.CPU.Utilization, nicD, cpuD)
	}
	if math.Abs(s.NIC.GrantUtilization-nicG) > 1e-9 || math.Abs(s.CPU.GrantUtilization-cpuG) > 1e-9 {
		t.Errorf("device grant NIC=%v CPU=%v, want %v / %v",
			s.NIC.GrantUtilization, s.CPU.GrantUtilization, nicG, cpuG)
	}
	// The device gate's own grant-rate accounting must agree with the
	// metered form within the window's measurement slack.
	if s.NIC.GrantRate <= 0 {
		t.Error("NIC gate granted nothing over a window with served traffic")
	}
	if s.CPU.ServedGbps <= 0 {
		t.Error("LB on the CPU served nothing")
	}
	// Scale mapping: the sample reports catalog units. At Scale 1 the
	// wall-clock rate is the catalog rate.
	wantGbps := float64(sent) * size * 8 * r.Scale() / s.Window.Seconds() / 1e9
	if math.Abs(s.Elements[0].ServedGbps-wantGbps)/wantGbps > 0.01 {
		t.Errorf("head served %v Gbps, want ~%v", s.Elements[0].ServedGbps, wantGbps)
	}
	// Loss accounting: window loss must match the runtime's meters.
	res := r.Results()
	if s.Drops != res.Dropped {
		t.Errorf("window drops = %d, runtime drops = %d", s.Drops, res.Dropped)
	}
	if s.DeliveredPkts != res.Delivered {
		t.Errorf("window delivered = %d, runtime delivered = %d", s.DeliveredPkts, res.Delivered)
	}

	// Telemetry conversion carries the same numbers.
	ts := s.Telemetry()
	if ts.NICUtil != s.NIC.Utilization || ts.CPUUtil != s.CPU.Utilization ||
		ts.DeliveredGbps != s.DeliveredGbps || ts.LossRate != s.LossRate || ts.At != s.At {
		t.Errorf("telemetry conversion mismatch: %+v vs %+v", ts, s)
	}

	// A quiet follow-up window measures zero load.
	time.Sleep(2 * time.Millisecond)
	q := ls.Sample()
	if q.DeliveredPkts != 0 || q.Drops != 0 || q.NIC.Utilization != 0 {
		t.Errorf("quiet window not zero: %+v", q)
	}
	if q.At <= s.At {
		t.Errorf("sample time did not advance: %v then %v", s.At, q.At)
	}
}

func TestLoadSamplerAttributesMigrationWindowPerDevice(t *testing.T) {
	// Regression: the sampler used to read the element's placement at
	// sample time and charge the entire window's served/offered bytes — and
	// the catalog-capacity denominator — to the post-migration device. A
	// migration must cut the window so the slice served on the old device
	// is attributed to it, priced at its own capacity.
	c, err := chain.New("t", chain.Element{Name: "m0", Type: device.TypeMonitor, Loc: device.KindSmartNIC})
	if err != nil {
		t.Fatal(err)
	}
	r, err := emul.New(emul.Config{
		Chains:  []*chain.Chain{c},
		Catalog: device.Table1(),
		Link:    pcie.DefaultLink(),
		Scale:   10, // generous: nothing throttles, counts are exact
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()
	ls := emul.NewLoadSampler(r)

	synth := traffic.NewSynth(8, 1)
	const size, nNIC, nCPU = 512, 100, 40
	send := func(n int) {
		for i := 0; i < n; i++ {
			if !r.SendChain(0, synth.Frame(uint64(i%8), size)) {
				t.Fatal("ingress drop in an unthrottled runtime")
			}
		}
		r.Drain()
	}
	send(nNIC)
	if _, err := r.MigrateChain(0, "m0", device.KindCPU); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	send(nCPU)
	time.Sleep(2 * time.Millisecond)
	s := ls.Sample()

	// The window spans the migration: one ElementLoad per placement
	// segment, each priced at its own device's capacity.
	if len(s.Elements) != 2 {
		t.Fatalf("elements = %+v, want 2 segments (pre- and post-migration)", s.Elements)
	}
	nicSeg, cpuSeg := s.Elements[0], s.Elements[1]
	if nicSeg.Loc != device.KindSmartNIC || cpuSeg.Loc != device.KindCPU {
		t.Fatalf("segment locs = %v, %v; want SmartNIC then CPU", nicSeg.Loc, cpuSeg.Loc)
	}
	if nicSeg.ServedPkts != nNIC || cpuSeg.ServedPkts != nCPU {
		t.Errorf("served split = %d / %d pkts, want %d / %d",
			nicSeg.ServedPkts, cpuSeg.ServedPkts, nNIC, nCPU)
	}
	// Capacity denominators follow the segment's device: Monitor runs at
	// θS = 3.2 on the NIC and θC = 10 on the CPU.
	if want := nicSeg.ServedGbps / 3.2; math.Abs(nicSeg.Utilization-want) > 1e-9 {
		t.Errorf("NIC segment utilization = %v, want served/3.2 = %v", nicSeg.Utilization, want)
	}
	if want := cpuSeg.ServedGbps / 10; math.Abs(cpuSeg.Utilization-want) > 1e-9 {
		t.Errorf("CPU segment utilization = %v, want served/10 = %v", cpuSeg.Utilization, want)
	}
	// Device aggregation sees both sides of the move.
	if s.NIC.ServedGbps <= 0 {
		t.Error("pre-migration service vanished from the old device")
	}
	if s.CPU.ServedGbps <= 0 {
		t.Error("post-migration service missing from the new device")
	}
	wantNIC := float64(nNIC) / float64(nNIC+nCPU)
	if got := s.NIC.ServedGbps / (s.NIC.ServedGbps + s.CPU.ServedGbps); math.Abs(got-wantNIC) > 1e-9 {
		t.Errorf("NIC share of served = %v, want %v", got, wantNIC)
	}

	// The next window is all post-migration: a single CPU segment.
	send(10)
	time.Sleep(2 * time.Millisecond)
	q := ls.Sample()
	if len(q.Elements) != 1 || q.Elements[0].Loc != device.KindCPU {
		t.Fatalf("follow-up elements = %+v, want one CPU segment", q.Elements)
	}
	if q.Elements[0].ServedPkts != 10 {
		t.Errorf("follow-up served = %d, want 10", q.Elements[0].ServedPkts)
	}
}

func TestLoadSamplerMeasuresDMADirections(t *testing.T) {
	// Figure-1 traffic crosses twice before the NIC segment: NIC ingress →
	// LB on the CPU (toCPU), then LB → Logger (toNIC). The sampler must
	// report both directions' demand and grant, and with an unloaded link
	// the grant must track the demand.
	r := newRuntime(t, 1)
	r.Start()
	defer r.Close()
	ls := emul.NewLoadSampler(r)

	synth := traffic.NewSynth(8, 1)
	const n, size = 300, 512
	sent := 0
	for i := 0; i < n; i++ {
		if r.SendChain(0, synth.Frame(uint64(i%8), size)) {
			sent++
		}
	}
	r.Drain()
	time.Sleep(2 * time.Millisecond)
	s := ls.Sample()

	if s.DMA.ToCPU.DemandGbps <= 0 || s.DMA.ToNIC.DemandGbps <= 0 {
		t.Fatalf("DMA demand = %+v, want both directions positive", s.DMA)
	}
	// Every *arrival* wants to cross to the CPU-resident head — including
	// the frames the full ingress queue rejected — so demand is metered on
	// all n, while the grant covers only the accepted frames.
	toGbps := func(frames int) float64 {
		return float64(frames) * size * 8 * r.Scale() / s.Window.Seconds() / 1e9
	}
	if want := toGbps(n); math.Abs(s.DMA.ToCPU.DemandGbps-want)/want > 0.01 {
		t.Errorf("toCPU demand = %v Gbps, want ~%v (all arrivals)", s.DMA.ToCPU.DemandGbps, want)
	}
	if want := toGbps(sent); math.Abs(s.DMA.ToCPU.GrantGbps-want)/want > 0.01 {
		t.Errorf("toCPU grant = %v Gbps, want ~%v (accepted frames)", s.DMA.ToCPU.GrantGbps, want)
	}
	if s.DMA.Utilization <= 0 || s.DMA.GrantRate <= 0 {
		t.Errorf("DMA utilization/grant rate = %v/%v, want both positive", s.DMA.Utilization, s.DMA.GrantRate)
	}
	// The grant rate includes the per-burst descriptor overhead, so it is
	// at least the demand's serialization share.
	if s.DMA.GrantRate < s.DMA.ToCPU.Demand+s.DMA.ToNIC.Demand-1e-9 {
		t.Errorf("grant rate %v below offered serialization %v",
			s.DMA.GrantRate, s.DMA.ToCPU.Demand+s.DMA.ToNIC.Demand)
	}
	ts := s.Telemetry()
	if ts.DMAUtil != s.DMA.Utilization {
		t.Errorf("Telemetry DMAUtil = %v, want %v", ts.DMAUtil, s.DMA.Utilization)
	}
}

func TestLoadSamplerSeesQueueDrops(t *testing.T) {
	// Throttle hard (huge Scale) with a tiny queue so the logger's queue
	// overflows and the window's loss rate reflects it.
	// Shallow queues and tiny frames keep Close's drain of the throttled
	// pipeline to a couple of seconds.
	r, err := emul.New(emul.Config{
		Chains:     []*chain.Chain{scenario.Figure1Chain()},
		Catalog:    device.Table1(),
		Scale:      5e5,
		QueueDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()
	ls := emul.NewLoadSampler(r)
	synth := traffic.NewSynth(4, 2)
	for i := 0; i < 150; i++ {
		r.SendChain(0, synth.Frame(uint64(i%4), 64))
	}
	time.Sleep(50 * time.Millisecond)
	s := ls.Sample()
	if s.Drops == 0 {
		t.Fatalf("no drops measured under saturation: %+v", s)
	}
	if s.LossRate <= 0 {
		t.Errorf("loss rate = %v, want > 0", s.LossRate)
	}
}
