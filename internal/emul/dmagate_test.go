package emul

// White-box tests of the shared DMA-engine gate: crossing bursts from
// concurrent tenants must draw on one link budget (no per-shard private
// links), split it without starvation, and never mint engine time. Run
// under -race: senders and pool workers cross concurrently.

import (
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/traffic"
)

// crossingRuntime hosts n single-Monitor-on-CPU tenants: every frame
// crosses PCIe twice (ingress to the CPU, egress back to the NIC), so the
// DMA engine — not the CPU — is the bottleneck at a small link bandwidth.
func crossingRuntime(t testing.TB, n int, linkGbps float64) *Runtime {
	t.Helper()
	chains := make([]*chain.Chain, n)
	for i := range chains {
		c, err := chain.New("xing-"+string(rune('a'+i)),
			chain.Element{Name: "xm" + string(rune('a'+i)), Type: device.TypeMonitor, Loc: device.KindCPU},
		)
		if err != nil {
			t.Fatal(err)
		}
		chains[i] = c
	}
	r, err := New(Config{
		Chains:     chains,
		Catalog:    device.Table1(),
		Link:       pcie.Link{PropDelay: 43 * time.Microsecond, BandwidthGbps: linkGbps},
		Scale:      1000,
		QueueDepth: 32,
		BatchSize:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDMAGateSharesLinkBudget saturates two crossing-heavy tenants and
// requires (a) the total granted engine time to stay within the physical
// budget — one link-second per second plus the banked burst — and (b) both
// tenants to keep crossing: the FIFO ticket queue shares the engine instead
// of letting one tenant's shards monopolize it.
func TestDMAGateSharesLinkBudget(t *testing.T) {
	// At 2 Gbps of link for Monitors whose CPU capacity is 10 Gbps each,
	// the engine binds long before the device gate does.
	r := crossingRuntime(t, 2, 2)
	r.Start()
	start := time.Now()

	synth := traffic.NewSynth(8, 3)
	for time.Since(start) < 250*time.Millisecond {
		for k := 0; k < 4; k++ {
			r.SendChain(0, synth.Frame(uint64(k), 256))
			r.SendChain(1, synth.Frame(uint64(k+4), 256))
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start).Seconds()
	dc := r.dma.counters()
	servedA := r.chains[0].meter.Packets()
	servedB := r.chains[1].meter.Packets()
	r.Close()

	if servedA == 0 || servedB == 0 {
		t.Fatalf("a tenant's crossings starved: delivered %d / %d", servedA, servedB)
	}
	share := float64(servedA) / float64(servedA+servedB)
	if share < 0.3 || share > 0.7 {
		t.Errorf("crossing split %.2f / %.2f; equal tenants should each get ~half", share, 1-share)
	}
	// Conservation: the engine cannot grant more than one link-second per
	// second plus its banked burst, with slack for the burst in flight.
	if limit := elapsed + 0.010 + 0.020; dc.granted > limit {
		t.Errorf("engine granted %.3f link-seconds in %.3f s (limit %.3f); budget minted",
			dc.granted, elapsed, limit)
	}
	// Under saturation most of the budget must have been granted — this is
	// what pins aggregate crossing throughput at the link budget.
	if dc.granted < 0.5*elapsed {
		t.Errorf("engine granted only %.3f link-seconds in %.3f s under saturation", dc.granted, elapsed)
	}
	// Both directions were exercised (ingress toCPU, egress toNIC).
	if dc.grantBytes[dmaToCPU] == 0 || dc.grantBytes[dmaToNIC] == 0 {
		t.Errorf("grant bytes per direction = %v, want both positive", dc.grantBytes)
	}
}

// TestDMAGateZeroLinkIsFree pins the degenerate configuration: a zero link
// costs no engine time, so crossings never block and the gate reports only
// byte counts (demand in link-seconds stays zero).
func TestDMAGateZeroLinkIsFree(t *testing.T) {
	c, err := chain.New("z", chain.Element{Name: "zm0", Type: device.TypeMonitor, Loc: device.KindCPU})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Chains: []*chain.Chain{c}, Catalog: device.Table1(), Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()
	synth := traffic.NewSynth(4, 1)
	for i := 0; i < 50; i++ {
		r.SendChain(0, synth.Frame(uint64(i%4), 256))
	}
	r.Drain()
	dc := r.dma.counters()
	if dc.granted != 0 || dc.grantUnits[dmaToCPU] != 0 {
		t.Errorf("zero link granted %v link-seconds", dc.granted)
	}
	if dc.grantBytes[dmaToCPU] == 0 {
		t.Error("crossing bytes not accounted on a zero link")
	}
}
