package nf_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/nf"
	"repro/internal/packet"
	"repro/internal/traffic"
)

// mkBatch builds a burst of contexts from synthetic frames, one private
// decoder per slot, the way the emulator's pool workers do.
func mkBatch(t *testing.T, synth *traffic.Synth, flows uint64, n, size int) []*nf.Ctx {
	t.Helper()
	ctxs := make([]*nf.Ctx, n)
	for i := 0; i < n; i++ {
		fr := synth.Frame(uint64(i)%flows, size)
		ctx, _ := mkCtx(t, fr, time.Duration(i)*time.Microsecond)
		ctxs[i] = ctx
	}
	return ctxs
}

// TestProcessBatchMatchesSerial feeds the same burst to two fresh instances
// of every catalog type — one per-packet, one batched — and requires
// identical verdicts, identical statistics and identical frame bytes. This
// pins the hand-written fast paths (Firewall, Logger, Monitor, LoadBalancer,
// RateLimiter) to the serial semantics and exercises the base adapter for
// the rest.
func TestProcessBatchMatchesSerial(t *testing.T) {
	types := []string{
		device.TypeFirewall, device.TypeLogger, device.TypeMonitor,
		device.TypeLoadBalancer, device.TypeNAT, device.TypeDPI,
		device.TypeRateLimiter, device.TypeIDS,
	}
	for _, typ := range types {
		t.Run(typ, func(t *testing.T) {
			serial, err := nf.New("s-"+typ, typ)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := nf.New("b-"+typ, typ)
			if err != nil {
				t.Fatal(err)
			}
			const n, size = 96, 512
			synth := traffic.NewSynth(8, 7)
			sctxs := mkBatch(t, synth, 8, n, size)
			synth2 := traffic.NewSynth(8, 7) // identical frame sequence
			bctxs := mkBatch(t, synth2, 8, n, size)

			want := make([]nf.Verdict, n)
			for i, ctx := range sctxs {
				want[i], _ = serial.Process(ctx)
			}
			got := batched.ProcessBatch(bctxs)
			if len(got) != n {
				t.Fatalf("ProcessBatch returned %d verdicts, want %d", len(got), n)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("packet %d: batch %v, serial %v", i, got[i], want[i])
				}
			}
			if serial.Stats() != batched.Stats() {
				t.Errorf("stats diverge: serial %v, batch %v", serial.Stats(), batched.Stats())
			}
			for i := range sctxs {
				if !bytes.Equal(sctxs[i].Frame, bctxs[i].Frame) || sctxs[i].Rewritten != bctxs[i].Rewritten {
					t.Fatalf("packet %d: batch and serial left different frames", i)
				}
			}
			if lg, ok := serial.(*nf.Logger); ok {
				if !reflect.DeepEqual(lg.Records(), batched.(*nf.Logger).Records()) {
					t.Error("journals diverge")
				}
			}
		})
	}
}

// TestConcurrencySafeCapability: every built-in NF locks internally and
// advertises it, so the emulator may shard all of them.
func TestConcurrencySafeCapability(t *testing.T) {
	types := []string{
		device.TypeFirewall, device.TypeLogger, device.TypeMonitor,
		device.TypeLoadBalancer, device.TypeNAT, device.TypeDPI,
		device.TypeRateLimiter, device.TypeIDS,
	}
	for _, typ := range types {
		inst, err := nf.New("c-"+typ, typ)
		if err != nil {
			t.Fatal(err)
		}
		if !inst.ConcurrencySafe() {
			t.Errorf("%s: ConcurrencySafe() = false, want true", typ)
		}
	}
}

// TestFirewallBatchDeniesWithinBurst: a deny rule must hit mid-burst, and
// allowed flows must land in the connection cache exactly as with the
// serial path.
func TestFirewallBatchDeniesWithinBurst(t *testing.T) {
	bad := packet.IPv4Addr{10, 0, 0, 66}
	rules := []nf.Rule{
		{Priority: 1, AnyProto: true, SrcIP: bad, SrcBits: 32, Action: nf.ActionDeny},
		{Priority: 9, AnyProto: true, Action: nf.ActionAllow},
	}
	fw := nf.NewFirewall("fw", rules, false)
	good := udpFrame(t, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 1, 1}, 1000, 80, []byte("ok"))
	evil := udpFrame(t, bad, packet.IPv4Addr{10, 0, 1, 1}, 1000, 80, []byte("no"))
	var ctxs []*nf.Ctx
	for i := 0; i < 6; i++ {
		fr := good
		if i%2 == 1 {
			fr = evil
		}
		ctx, _ := mkCtx(t, fr, time.Duration(i))
		ctxs = append(ctxs, ctx)
	}
	verdicts := fw.ProcessBatch(ctxs)
	for i, v := range verdicts {
		want := nf.VerdictPass
		if i%2 == 1 {
			want = nf.VerdictDrop
		}
		if v != want {
			t.Errorf("packet %d: %v, want %v", i, v, want)
		}
	}
	if fw.ConnCount() != 1 {
		t.Errorf("conn cache has %d entries, want 1", fw.ConnCount())
	}
	st := fw.Stats()
	if st.Processed != 6 || st.Passed != 3 || st.Dropped != 3 {
		t.Errorf("stats: %v", st)
	}
}

// TestRateLimiterBatchSplitsBurst: the global bucket can run dry mid-burst;
// the tail of the burst must be dropped packet-by-packet, not all-or-nothing.
func TestRateLimiterBatchSplitsBurst(t *testing.T) {
	// 1 Gbps global → 125e6 B/s; burst bucket = 125 kB. 512-byte frames at
	// the same virtual instant: ~244 pass, the rest must drop.
	rl := nf.NewRateLimiter("rl", 1, 0)
	synth := traffic.NewSynth(4, 3)
	ctxs := make([]*nf.Ctx, 300)
	for i := range ctxs {
		ctx, _ := mkCtx(t, synth.Frame(uint64(i%4), 512), 0)
		ctxs[i] = ctx
	}
	verdicts := rl.ProcessBatch(ctxs)
	var passed, dropped int
	for i, v := range verdicts {
		if v == nf.VerdictPass {
			passed++
			if dropped > 0 {
				t.Errorf("packet %d passed after a drop: bucket cannot refill at constant Now", i)
			}
		} else {
			dropped++
		}
	}
	if passed == 0 || dropped == 0 {
		t.Fatalf("burst not split: passed=%d dropped=%d", passed, dropped)
	}
	st := rl.Stats()
	if st.Passed != uint64(passed) || st.Dropped != uint64(dropped) {
		t.Errorf("stats %v disagree with verdicts pass=%d drop=%d", st, passed, dropped)
	}
}

// TestBatchFastPathAllocs: a burst in which every frame passes allocates
// nothing — its verdicts are a window of the shared all-pass array — on the
// five hand-written fast paths and on the base adapter's serial fallback;
// a burst with one deny allocates exactly its private verdict slice.
func TestBatchFastPathAllocs(t *testing.T) {
	synth := traffic.NewSynth(8, 5)
	ctxs := mkBatch(t, synth, 8, 64, 512)

	lb, err := nf.NewLoadBalancer("lb", nf.DefaultBackends())
	if err != nil {
		t.Fatal(err)
	}
	dpi, err := nf.New("dpi", device.TypeDPI) // no fast path: base.ProcessBatch
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range []nf.NF{
		nf.NewFirewall("fw", nf.DefaultFirewallRules(), false),
		nf.NewMonitor("mon", 0, 1<<16),
		nf.NewRateLimiter("rl", 1000, 0), // high rate: all pass, no map growth
		lb,
		nf.NewLogger("log", 4096),
		dpi,
	} {
		inst.ProcessBatch(ctxs) // warm: connection cache, flow table, bindings
		if n := testing.AllocsPerRun(200, func() { inst.ProcessBatch(ctxs) }); n != 0 {
			t.Errorf("%s.ProcessBatch, all pass: %.2f allocs/burst, want 0", inst.Type(), n)
		}
	}

	deny := nf.NewFirewall("fw-deny", []nf.Rule{
		{Priority: 1, AnyProto: true, SrcIP: ctxs[5].FlowKey.SrcIP, SrcBits: 32, Action: nf.ActionDeny},
	}, false)
	one := ctxs[:8] // one frame of each of the 8 flows: exactly one denied
	if n := testing.AllocsPerRun(200, func() { deny.ProcessBatch(one) }); n != 1 {
		t.Errorf("Firewall.ProcessBatch, one deny: %.2f allocs/burst, want 1", n)
	}
}

// TestVerdictsCopyOnDrop: all-pass bursts share one read-only array; a burst
// with a drop gets a slice of its own whose other entries still say pass,
// and a burst longer than the shared array is still correct. That no drop
// was written through to the shared array is TestMain's check.
func TestVerdictsCopyOnDrop(t *testing.T) {
	synth := traffic.NewSynth(8, 5)
	ctxs := mkBatch(t, synth, 8, 300, 256) // longer than the 256-entry shared array
	burst := ctxs[:32]

	shared := nf.NewMonitor("mon", 0, 1<<16).ProcessBatch(burst)
	if again := nf.NewLogger("log", 64).ProcessBatch(burst); &again[0] != &shared[0] {
		t.Fatal("two all-pass bursts do not share their verdicts: the shared array is not in use")
	}
	if cap(shared) != len(burst) {
		t.Errorf("shared verdicts have cap %d, want %d: an append could write the shared array", cap(shared), len(burst))
	}

	denied := ctxs[5].FlowKey.SrcIP
	fw := nf.NewFirewall("fw", []nf.Rule{
		{Priority: 1, AnyProto: true, SrcIP: denied, SrcBits: 32, Action: nf.ActionDeny},
	}, false)
	check := func(ctxs []*nf.Ctx) {
		t.Helper()
		got := fw.ProcessBatch(ctxs)
		if len(got) != len(ctxs) {
			t.Fatalf("%d verdicts for %d contexts", len(got), len(ctxs))
		}
		if &got[0] == &shared[0] {
			t.Fatal("a burst with a drop aliases the shared all-pass array")
		}
		for i, v := range got {
			want := nf.VerdictPass
			if ctxs[i].FlowKey.SrcIP == denied {
				want = nf.VerdictDrop
			}
			if v != want {
				t.Errorf("packet %d of %d: %v, want %v", i, len(ctxs), v, want)
			}
		}
	}
	check(burst)
	check(ctxs)
	long := nf.NewMonitor("mon-long", 0, 1<<16).ProcessBatch(ctxs)
	if len(long) != len(ctxs) {
		t.Fatalf("%d verdicts for a %d-context burst", len(long), len(ctxs))
	}
	for i, v := range long {
		if v != nf.VerdictPass {
			t.Fatalf("long burst, packet %d: %v, want pass", i, v)
		}
	}
}
