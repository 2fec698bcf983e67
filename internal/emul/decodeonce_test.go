package emul_test

import (
	"sync"
	"testing"

	"repro/internal/chain"
	"repro/internal/device"
	"repro/internal/emul"
	"repro/internal/flow"
	"repro/internal/nf"
	"repro/internal/packet"
	"repro/internal/traffic"
)

// oneDeviceRuntime hosts a chain whose elements all sit on the SmartNIC and
// are served by one worker, so every hop after the first is a
// run-to-completion hop that carries the burst's contexts along. The scaled
// rates make the worker wait on the device gate while the sender fills the
// ring, so bursts are full.
func oneDeviceRuntime(t *testing.T, types ...string) *emul.Runtime {
	t.Helper()
	elems := make([]chain.Element, len(types))
	for i, typ := range types {
		elems[i] = chain.Element{Name: typ, Type: typ, Loc: device.KindSmartNIC}
	}
	c, err := chain.New("one-device", elems...)
	if err != nil {
		t.Fatal(err)
	}
	return newBatchRuntime(t, emul.Config{
		Chains:     []*chain.Chain{c},
		Catalog:    device.ExtendedCatalog(),
		Scale:      100,
		QueueDepth: 1024,
		BatchSize:  16,
		Workers:    1,
	})
}

// egressKeys collects the flow key of every delivered frame, decoded from
// the bytes that left the chain.
func egressKeys(r *emul.Runtime) func() map[flow.Key]uint64 {
	var mu sync.Mutex
	keys := map[flow.Key]uint64{}
	dec := packet.NewDecoder()
	r.SetChainEgressTap(func(_ int, frame []byte) {
		mu.Lock()
		defer mu.Unlock()
		if _, err := dec.Decode(frame); err == nil {
			if k, ok := flow.FromDecoder(dec); ok {
				keys[k]++
			}
		}
	})
	return func() map[flow.Key]uint64 {
		mu.Lock()
		defer mu.Unlock()
		return keys
	}
}

func monitorKeys(t *testing.T, r *emul.Runtime) map[flow.Key]uint64 {
	t.Helper()
	inst, ok := r.Instance(device.TypeMonitor)
	if !ok {
		t.Fatal("no monitor")
	}
	got := map[flow.Key]uint64{}
	for _, tt := range inst.(*nf.Monitor).TopTalkers(0) {
		got[tt.Key] = tt.Pkts
	}
	return got
}

// TestRewriteInvalidatesCarriedContext: a Monitor continued inline behind a
// LoadBalancer (or a NAT) must key its table on the frame as rewritten —
// what left the chain — never on the ingress 5-tuple the burst was decoded
// with.
func TestRewriteInvalidatesCarriedContext(t *testing.T) {
	for _, head := range []string{device.TypeLoadBalancer, device.TypeNAT} {
		t.Run(head, func(t *testing.T) {
			r := oneDeviceRuntime(t, head, device.TypeMonitor)
			egress := egressKeys(r)
			r.Start()
			const flows, n = 32, 640
			synth := traffic.NewSynth(flows, 5)
			ingress := map[flow.Key]bool{}
			dec := packet.NewDecoder()
			for i := 0; i < n; i++ {
				fr := synth.Frame(uint64(i%flows), 256)
				if _, err := dec.Decode(fr); err != nil {
					t.Fatal(err)
				}
				k, _ := flow.FromDecoder(dec)
				ingress[k] = true
				for !r.SendChain(0, fr) {
				}
			}
			r.Drain()
			r.Close()

			seen, sent := monitorKeys(t, r), egress()
			if len(seen) != flows {
				t.Errorf("monitor tracks %d flows, want %d", len(seen), flows)
			}
			for k, pkts := range seen {
				if ingress[k] {
					t.Errorf("monitor keyed %v on the ingress 5-tuple", k)
				}
				if sent[k] != pkts {
					t.Errorf("monitor counted %d packets of %v, %d left the chain", pkts, k, sent[k])
				}
			}
		})
	}
}

// TestCarriedContextFollowsSurvivors: when the middle NF of an inline run
// drops frames out of the middle of a burst, each survivor must reach the
// successor with its own context. The Firewall's deny rule stands in for a
// rate limiter here: it drops every other frame of the burst, where the
// default RateLimiter never runs dry in a test's wall-clock time and would
// only ever cut a burst's tail, which compaction cannot get wrong.
func TestCarriedContextFollowsSurvivors(t *testing.T) {
	r := oneDeviceRuntime(t, device.TypeLoadBalancer, device.TypeFirewall, device.TypeMonitor)
	egress := egressKeys(r)
	r.Start()
	const flows, rounds = 16, 40
	b := packet.NewBuilder()
	eth := packet.Ethernet{Type: packet.EtherTypeIPv4}
	for i := 0; i < flows*rounds; i++ {
		f := i % flows
		ip := packet.IPv4{Version: 4, TTL: 64, Src: packet.IPv4Addr{10, 0, 0, byte(1 + f)}, Dst: packet.IPv4Addr{20, 0, 0, 9}}
		payload := make([]byte, 100+8*f)
		var fr []byte
		if f%2 == 1 { // telnet: denied by the default rules
			fr = b.BuildTCP4(eth, ip, packet.TCP{SrcPort: uint16(4000 + f), DstPort: 23, Flags: packet.TCPAck}, payload)
		} else {
			fr = b.BuildUDP4(eth, ip, packet.UDP{SrcPort: uint16(4000 + f), DstPort: 80}, payload)
		}
		fr = append([]byte(nil), fr...)
		for !r.SendChain(0, fr) {
		}
	}
	r.Drain()
	r.Close()

	seen, sent := monitorKeys(t, r), egress()
	if len(seen) != flows/2 || len(sent) != flows/2 {
		t.Fatalf("monitor tracks %d flows, %d left the chain, want %d each", len(seen), len(sent), flows/2)
	}
	for k, pkts := range seen {
		if k.DstPort != 80 || k.DstIP[0] != 192 {
			t.Errorf("monitor saw %v: a denied flow, or one not yet rewritten", k)
		}
		if pkts != rounds || sent[k] != rounds {
			t.Errorf("%v: monitor counted %d, %d left the chain, want %d", k, pkts, sent[k], rounds)
		}
	}
	if st := r.NFStats()[device.TypeFirewall]; st.Dropped != flows/2*rounds || st.Passed != flows/2*rounds {
		t.Errorf("firewall stats %v", st)
	}
	delivered, nfDrops, queueDrops, _ := accounting(r)
	if delivered != flows/2*rounds || delivered+nfDrops+queueDrops != flows*rounds {
		t.Errorf("identity: delivered=%d nfDrops=%d queueDrops=%d of %d", delivered, nfDrops, queueDrops, flows*rounds)
	}
}
