package nf_test

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/flow"
	"repro/internal/nf"
	"repro/internal/packet"
	"repro/internal/traffic"
)

// mkCtx builds a processing context from a synthesized frame.
func mkCtx(t *testing.T, frame []byte, now time.Duration) (*nf.Ctx, *packet.Decoder) {
	t.Helper()
	d := packet.NewDecoder()
	if _, err := d.Decode(frame); err != nil {
		t.Fatalf("decode: %v", err)
	}
	ctx := &nf.Ctx{Frame: frame, Decoder: d, Now: now}
	if k, ok := flow.FromDecoder(d); ok {
		ctx.FlowKey, ctx.HasFlow = k, true
	}
	return ctx, d
}

func udpFrame(t *testing.T, src, dst packet.IPv4Addr, sp, dp uint16, payload []byte) []byte {
	t.Helper()
	b := packet.NewBuilder()
	fr := b.BuildUDP4(
		packet.Ethernet{Type: packet.EtherTypeIPv4},
		packet.IPv4{Version: 4, TTL: 64, Src: src, Dst: dst},
		packet.UDP{SrcPort: sp, DstPort: dp}, payload)
	out := make([]byte, len(fr))
	copy(out, fr)
	return out
}

func tcpFrame(t *testing.T, src, dst packet.IPv4Addr, sp, dp uint16, flags uint8) []byte {
	t.Helper()
	b := packet.NewBuilder()
	fr := b.BuildTCP4(
		packet.Ethernet{Type: packet.EtherTypeIPv4},
		packet.IPv4{Version: 4, TTL: 64, Src: src, Dst: dst},
		packet.TCP{SrcPort: sp, DstPort: dp, Flags: flags, Window: 1024}, nil)
	out := make([]byte, len(fr))
	copy(out, fr)
	return out
}

// --- Firewall ---------------------------------------------------------------

func TestFirewallRuleMatching(t *testing.T) {
	fw := nf.NewFirewall("fw", []nf.Rule{
		{Priority: 1, Proto: packet.ProtoUDP, DstPortMin: 53, DstPortMax: 53, Action: nf.ActionDeny},
		{Priority: 9, AnyProto: true, Action: nf.ActionAllow},
	}, false)

	dns := udpFrame(t, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{8, 8, 8, 8}, 4444, 53, nil)
	ctx, _ := mkCtx(t, dns, 0)
	if v, _ := fw.Process(ctx); v != nf.VerdictDrop {
		t.Errorf("dns verdict = %v, want drop", v)
	}
	web := udpFrame(t, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{8, 8, 8, 8}, 4444, 80, nil)
	ctx, _ = mkCtx(t, web, 0)
	if v, _ := fw.Process(ctx); v != nf.VerdictPass {
		t.Errorf("web verdict = %v, want pass", v)
	}
	st := fw.Stats()
	if st.Processed != 2 || st.Dropped != 1 || st.Passed != 1 {
		t.Errorf("stats = %v", st)
	}
}

func TestFirewallPrefixMatch(t *testing.T) {
	fw := nf.NewFirewall("fw", []nf.Rule{
		{Priority: 1, AnyProto: true, SrcIP: packet.IPv4Addr{192, 168, 0, 0}, SrcBits: 16, Action: nf.ActionDeny},
	}, false)
	in := udpFrame(t, packet.IPv4Addr{192, 168, 44, 2}, packet.IPv4Addr{1, 1, 1, 1}, 1, 2, nil)
	ctx, _ := mkCtx(t, in, 0)
	if v, _ := fw.Process(ctx); v != nf.VerdictDrop {
		t.Error("prefix-matched packet passed")
	}
	out := udpFrame(t, packet.IPv4Addr{192, 169, 44, 2}, packet.IPv4Addr{1, 1, 1, 1}, 1, 2, nil)
	ctx, _ = mkCtx(t, out, 0)
	if v, _ := fw.Process(ctx); v != nf.VerdictPass {
		t.Error("non-matching packet dropped")
	}
}

func TestFirewallDefaultDropAndConnCache(t *testing.T) {
	fw := nf.NewFirewall("fw", []nf.Rule{
		{Priority: 1, Proto: packet.ProtoUDP, DstPortMin: 1000, DstPortMax: 2000, Action: nf.ActionAllow},
	}, true)
	allowed := udpFrame(t, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 0, 2}, 555, 1500, nil)
	ctx, _ := mkCtx(t, allowed, 0)
	if v, _ := fw.Process(ctx); v != nf.VerdictPass {
		t.Fatal("rule-allowed packet dropped")
	}
	if fw.ConnCount() != 1 {
		t.Errorf("conns = %d, want 1", fw.ConnCount())
	}
	// Reverse direction hits the connection cache despite no reverse rule.
	rev := udpFrame(t, packet.IPv4Addr{10, 0, 0, 2}, packet.IPv4Addr{10, 0, 0, 1}, 1500, 555, nil)
	ctx, _ = mkCtx(t, rev, time.Millisecond)
	if v, _ := fw.Process(ctx); v != nf.VerdictPass {
		t.Error("established reverse packet dropped")
	}
	// Unknown flow falls to default drop.
	other := udpFrame(t, packet.IPv4Addr{10, 9, 9, 9}, packet.IPv4Addr{10, 0, 0, 2}, 1, 9999, nil)
	ctx, _ = mkCtx(t, other, 0)
	if v, _ := fw.Process(ctx); v != nf.VerdictDrop {
		t.Error("default-drop packet passed")
	}
}

func TestFirewallSnapshotRestore(t *testing.T) {
	fw := nf.NewFirewall("fw", nf.DefaultFirewallRules(), false)
	fr := udpFrame(t, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 0, 2}, 5, 80, nil)
	ctx, _ := mkCtx(t, fr, 0)
	if _, err := fw.Process(ctx); err != nil {
		t.Fatal(err)
	}
	blob, err := fw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fw2 := nf.NewFirewall("fw", nil, true)
	if err := fw2.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if len(fw2.Rules()) != len(nf.DefaultFirewallRules()) {
		t.Errorf("restored %d rules", len(fw2.Rules()))
	}
	if fw2.ConnCount() != 1 {
		t.Errorf("restored conns = %d", fw2.ConnCount())
	}
}

// --- Logger -----------------------------------------------------------------

func TestLoggerRingWrap(t *testing.T) {
	lg := nf.NewLogger("log", 4)
	for i := 0; i < 6; i++ {
		fr := udpFrame(t, packet.IPv4Addr{10, 0, 0, byte(i + 1)}, packet.IPv4Addr{1, 1, 1, 1}, uint16(i), 9, nil)
		ctx, _ := mkCtx(t, fr, time.Duration(i)*time.Millisecond)
		if v, _ := lg.Process(ctx); v != nf.VerdictPass {
			t.Fatal("logger dropped")
		}
	}
	recs := lg.Records()
	if len(recs) != 4 {
		t.Fatalf("records = %d, want 4", len(recs))
	}
	// Oldest-first: entries 2..5 survive.
	if recs[0].At != 2*time.Millisecond || recs[3].At != 5*time.Millisecond {
		t.Errorf("ring order wrong: %v", recs)
	}
}

func TestLoggerSnapshotRestore(t *testing.T) {
	lg := nf.NewLogger("log", 8)
	for i := 0; i < 5; i++ {
		fr := udpFrame(t, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{1, 1, 1, 1}, uint16(i), 9, nil)
		ctx, _ := mkCtx(t, fr, time.Duration(i))
		lg.Process(ctx)
	}
	blob, err := lg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	lg2 := nf.NewLogger("log", 1)
	if err := lg2.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if len(lg2.Records()) != 5 {
		t.Errorf("restored %d records", len(lg2.Records()))
	}
}

// --- Monitor ----------------------------------------------------------------

func TestMonitorFlowAccounting(t *testing.T) {
	mon := nf.NewMonitor("mon", 0, 0)
	a := udpFrame(t, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{1, 1, 1, 1}, 10, 20, make([]byte, 100))
	bfr := udpFrame(t, packet.IPv4Addr{10, 0, 0, 2}, packet.IPv4Addr{1, 1, 1, 1}, 30, 40, make([]byte, 300))
	for i := 0; i < 3; i++ {
		ctx, _ := mkCtx(t, a, 0)
		mon.Process(ctx)
	}
	ctx, _ := mkCtx(t, bfr, 0)
	mon.Process(ctx)
	if mon.FlowCount() != 2 {
		t.Errorf("flows = %d", mon.FlowCount())
	}
	pkts, bytes := mon.Totals()
	if pkts != 4 || bytes == 0 {
		t.Errorf("totals = %d pkts %d bytes", pkts, bytes)
	}
	top := mon.TopTalkers(1)
	if len(top) != 1 || top[0].Pkts != 3 {
		t.Errorf("top = %+v", top)
	}
}

func TestMonitorSnapshotRestore(t *testing.T) {
	mon := nf.NewMonitor("mon", 0, 0)
	fr := udpFrame(t, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{1, 1, 1, 1}, 10, 20, nil)
	ctx, _ := mkCtx(t, fr, 0)
	mon.Process(ctx)
	blob, err := mon.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	mon2 := nf.NewMonitor("mon", 0, 0)
	if err := mon2.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if mon2.FlowCount() != 1 {
		t.Errorf("restored flows = %d", mon2.FlowCount())
	}
	pkts, _ := mon2.Totals()
	if pkts != 1 {
		t.Errorf("restored pkts = %d", pkts)
	}
}

// A migrated monitor keeps the TTL and the bound it was built with: an idle
// flow still starts afresh and the table still evicts when full.
func TestMonitorRestoreKeepsTTLAndBound(t *testing.T) {
	const ttl, maxFlows = 100 * time.Millisecond, 16
	src, dst := packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{1, 1, 1, 1}
	mon := nf.NewMonitor("mon", ttl, maxFlows)
	for i := 0; i < 3; i++ {
		ctx, _ := mkCtx(t, udpFrame(t, src, dst, 10, 20, nil), 0)
		mon.Process(ctx)
	}
	blob, err := mon.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	mon2 := nf.NewMonitor("mon", ttl, maxFlows)
	if err := mon2.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if top := mon2.TopTalkers(1); len(top) != 1 || top[0].Pkts != 3 {
		t.Fatalf("restored flow = %+v, want 3 packets", top)
	}
	ctx, _ := mkCtx(t, udpFrame(t, src, dst, 10, 20, nil), time.Second) // idle ≫ ttl
	mon2.ProcessBatch([]*nf.Ctx{ctx})
	if top := mon2.TopTalkers(1); len(top) != 1 || top[0].Pkts != 1 {
		t.Errorf("flow idle past the TTL was not evicted after Restore: %+v", top)
	}
	for i := 0; i < 200; i++ {
		ctx, _ := mkCtx(t, udpFrame(t, packet.IPv4Addr{10, 1, byte(i), 1}, dst, uint16(1000+i), 20, nil), time.Second)
		mon2.Process(ctx)
	}
	if n := mon2.FlowCount(); n > maxFlows {
		t.Errorf("restored monitor holds %d flows, bound is %d", n, maxFlows)
	}
}

// --- LoadBalancer -----------------------------------------------------------

func TestLoadBalancerStickyRewrite(t *testing.T) {
	lb, err := nf.NewLoadBalancer("lb", nf.DefaultBackends())
	if err != nil {
		t.Fatal(err)
	}
	fr := udpFrame(t, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{20, 0, 0, 9}, 700, 80, []byte("req"))
	ctx, dec := mkCtx(t, fr, 0)
	if v, err := lb.Process(ctx); v != nf.VerdictPass || err != nil {
		t.Fatalf("verdict=%v err=%v", v, err)
	}
	if _, err := dec.Decode(fr); err != nil {
		t.Fatal(err)
	}
	first := dec.IP4.Dst
	found := false
	for _, b := range lb.Backends() {
		if b.IP == first {
			found = true
		}
	}
	if !found {
		t.Fatalf("rewritten dst %v is not a backend", first)
	}
	if !packet.VerifyIPv4Checksum(fr[packet.EthernetHeaderLen:]) {
		t.Error("checksum invalid after rewrite")
	}
	// Same flow → same backend on every subsequent packet.
	for i := 0; i < 5; i++ {
		fr2 := udpFrame(t, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{20, 0, 0, 9}, 700, 80, []byte("req"))
		ctx2, dec2 := mkCtx(t, fr2, time.Duration(i))
		lb.Process(ctx2)
		dec2.Decode(fr2)
		if dec2.IP4.Dst != first {
			t.Fatalf("flow moved backend: %v vs %v", dec2.IP4.Dst, first)
		}
	}
}

func TestLoadBalancerSpreadsFlows(t *testing.T) {
	lb, err := nf.NewLoadBalancer("lb", nf.DefaultBackends())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[packet.IPv4Addr]int{}
	dec := packet.NewDecoder()
	for i := 0; i < 200; i++ {
		fr := udpFrame(t, packet.IPv4Addr{10, 0, byte(i), byte(i%250 + 1)}, packet.IPv4Addr{20, 0, 0, 9}, uint16(1000+i), 80, nil)
		ctx, _ := mkCtx(t, fr, 0)
		lb.Process(ctx)
		dec.Decode(fr)
		counts[dec.IP4.Dst]++
	}
	if len(counts) < 3 {
		t.Errorf("flows landed on %d backends, want 3: %v", len(counts), counts)
	}
	// The weight-2 backend should receive roughly twice the share.
	heavy := counts[packet.IPv4Addr{192, 168, 100, 3}]
	if heavy < 60 {
		t.Errorf("weight-2 backend got %d/200", heavy)
	}
}

func TestLoadBalancerNeedsBackends(t *testing.T) {
	if _, err := nf.NewLoadBalancer("lb", nil); err == nil {
		t.Error("empty backends accepted")
	}
}

func TestLoadBalancerSnapshotRestore(t *testing.T) {
	lb, _ := nf.NewLoadBalancer("lb", nf.DefaultBackends())
	fr := udpFrame(t, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{20, 0, 0, 9}, 700, 80, nil)
	ctx, dec := mkCtx(t, fr, 0)
	lb.Process(ctx)
	dec.Decode(fr)
	bound := dec.IP4.Dst

	blob, err := lb.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	lb2, _ := nf.NewLoadBalancer("lb", []nf.Backend{{IP: packet.IPv4Addr{9, 9, 9, 9}}})
	if err := lb2.Restore(blob); err != nil {
		t.Fatal(err)
	}
	// The restored instance must keep the existing binding.
	fr2 := udpFrame(t, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{20, 0, 0, 9}, 700, 80, nil)
	ctx2, dec2 := mkCtx(t, fr2, time.Millisecond)
	lb2.Process(ctx2)
	dec2.Decode(fr2)
	if dec2.IP4.Dst != bound {
		t.Errorf("binding lost across migration: %v vs %v", dec2.IP4.Dst, bound)
	}
}

// --- NAT --------------------------------------------------------------------

func TestNATRewritesAndIsStable(t *testing.T) {
	n, err := nf.NewNAT("nat", packet.IPv4Addr{203, 0, 113, 7}, 40000, 40010)
	if err != nil {
		t.Fatal(err)
	}
	fr := udpFrame(t, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{1, 2, 3, 4}, 1234, 80, []byte("x"))
	ctx, dec := mkCtx(t, fr, 0)
	if v, err := n.Process(ctx); v != nf.VerdictPass || err != nil {
		t.Fatalf("verdict=%v err=%v", v, err)
	}
	dec.Decode(fr)
	if dec.IP4.Src != (packet.IPv4Addr{203, 0, 113, 7}) {
		t.Errorf("src = %v", dec.IP4.Src)
	}
	port1 := dec.UDP.SrcPort
	if port1 < 40000 || port1 > 40010 {
		t.Errorf("port = %d outside range", port1)
	}
	if !packet.VerifyIPv4Checksum(fr[packet.EthernetHeaderLen:]) {
		t.Error("bad IP checksum after NAT")
	}
	// Same flow gets the same port.
	fr2 := udpFrame(t, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{1, 2, 3, 4}, 1234, 80, []byte("y"))
	ctx2, dec2 := mkCtx(t, fr2, 0)
	n.Process(ctx2)
	dec2.Decode(fr2)
	if dec2.UDP.SrcPort != port1 {
		t.Errorf("binding unstable: %d vs %d", dec2.UDP.SrcPort, port1)
	}
}

func TestNATPortExhaustion(t *testing.T) {
	n, _ := nf.NewNAT("nat", packet.IPv4Addr{203, 0, 113, 7}, 40000, 40001)
	for i := 0; i < 2; i++ {
		fr := udpFrame(t, packet.IPv4Addr{10, 0, 0, byte(i + 1)}, packet.IPv4Addr{1, 2, 3, 4}, uint16(1000+i), 80, nil)
		ctx, _ := mkCtx(t, fr, 0)
		if v, _ := n.Process(ctx); v != nf.VerdictPass {
			t.Fatalf("flow %d rejected early", i)
		}
	}
	fr := udpFrame(t, packet.IPv4Addr{10, 0, 0, 99}, packet.IPv4Addr{1, 2, 3, 4}, 999, 80, nil)
	ctx, _ := mkCtx(t, fr, 0)
	if v, _ := n.Process(ctx); v != nf.VerdictDrop {
		t.Error("exhausted NAT accepted new flow")
	}
}

func TestNATSnapshotRestoreKeepsBindings(t *testing.T) {
	n, _ := nf.NewNAT("nat", packet.IPv4Addr{203, 0, 113, 7}, 40000, 40010)
	fr := udpFrame(t, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{1, 2, 3, 4}, 1234, 80, nil)
	ctx, dec := mkCtx(t, fr, 0)
	n.Process(ctx)
	dec.Decode(fr)
	port := dec.UDP.SrcPort

	blob, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := nf.NewNAT("nat", packet.IPv4Addr{0, 0, 0, 0}, 1, 2)
	if err := n2.Restore(blob); err != nil {
		t.Fatal(err)
	}
	fr2 := udpFrame(t, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{1, 2, 3, 4}, 1234, 80, nil)
	ctx2, dec2 := mkCtx(t, fr2, 0)
	n2.Process(ctx2)
	dec2.Decode(fr2)
	if dec2.UDP.SrcPort != port {
		t.Errorf("binding lost: %d vs %d", dec2.UDP.SrcPort, port)
	}
	if len(n2.Bindings()) != 1 {
		t.Errorf("bindings = %d", len(n2.Bindings()))
	}
}

// --- DPI --------------------------------------------------------------------

func TestDPIMatchesAndBlocks(t *testing.T) {
	d := nf.NewDPI("dpi", []string{"EVIL", "BAD"}, true)
	hit := udpFrame(t, packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 1, 2, []byte("xxEVILxx"))
	ctx, _ := mkCtx(t, hit, 0)
	if v, _ := d.Process(ctx); v != nf.VerdictDrop {
		t.Error("signature packet passed")
	}
	clean := udpFrame(t, packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 1, 2, []byte("hello world"))
	ctx, _ = mkCtx(t, clean, 0)
	if v, _ := d.Process(ctx); v != nf.VerdictPass {
		t.Error("clean packet dropped")
	}
	if d.Hits()["EVIL"] != 1 {
		t.Errorf("hits = %v", d.Hits())
	}
}

func TestDPIOverlappingPatterns(t *testing.T) {
	d := nf.NewDPI("dpi", []string{"abc", "bcd", "cde"}, false)
	fr := udpFrame(t, packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 1, 2, []byte("xabcdex"))
	ctx, _ := mkCtx(t, fr, 0)
	d.Process(ctx)
	h := d.Hits()
	if h["abc"] != 1 || h["bcd"] != 1 || h["cde"] != 1 {
		t.Errorf("hits = %v, want all three overlapping patterns", h)
	}
}

func TestDPISnapshotRestore(t *testing.T) {
	d := nf.NewDPI("dpi", []string{"SIG"}, true)
	fr := udpFrame(t, packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 1, 2, []byte("SIG"))
	ctx, _ := mkCtx(t, fr, 0)
	d.Process(ctx)
	blob, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d2 := nf.NewDPI("dpi", nil, false)
	if err := d2.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if d2.Hits()["SIG"] != 1 {
		t.Errorf("hits lost: %v", d2.Hits())
	}
	// The automaton must be rebuilt: new matches still detected and blocked.
	ctx2, _ := mkCtx(t, fr, 0)
	if v, _ := d2.Process(ctx2); v != nf.VerdictDrop {
		t.Error("restored DPI no longer blocks")
	}
}

// --- RateLimiter ------------------------------------------------------------

func TestRateLimiterGlobalCap(t *testing.T) {
	rl := nf.NewRateLimiter("rl", 0.001, 0) // 1 Mbps → 125 KB/s; burst 3 KB
	fr := udpFrame(t, packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 1, 2, make([]byte, 1000))
	passed, dropped := 0, 0
	// Offer 100 KB instantly (t=0): only the burst passes.
	for i := 0; i < 100; i++ {
		ctx, _ := mkCtx(t, fr, 0)
		v, _ := rl.Process(ctx)
		if v == nf.VerdictPass {
			passed++
		} else {
			dropped++
		}
	}
	if passed == 0 || dropped == 0 {
		t.Fatalf("passed=%d dropped=%d, want both nonzero", passed, dropped)
	}
	if passed > 5 {
		t.Errorf("passed=%d exceeds burst", passed)
	}
	// After a second, tokens refill.
	ctx, _ := mkCtx(t, fr, time.Second)
	if v, _ := rl.Process(ctx); v != nf.VerdictPass {
		t.Error("refilled bucket still drops")
	}
}

func TestRateLimiterPerFlow(t *testing.T) {
	rl := nf.NewRateLimiter("rl", 0, 0.001)
	frA := udpFrame(t, packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 1, 2, make([]byte, 1000))
	frB := udpFrame(t, packet.IPv4Addr{3, 3, 3, 3}, packet.IPv4Addr{2, 2, 2, 2}, 9, 2, make([]byte, 1000))
	// Exhaust flow A's bucket.
	for i := 0; i < 50; i++ {
		ctx, _ := mkCtx(t, frA, 0)
		rl.Process(ctx)
	}
	ctxA, _ := mkCtx(t, frA, 0)
	vA, _ := rl.Process(ctxA)
	ctxB, _ := mkCtx(t, frB, 0)
	vB, _ := rl.Process(ctxB)
	if vA != nf.VerdictDrop {
		t.Error("exhausted flow passed")
	}
	if vB != nf.VerdictPass {
		t.Error("fresh flow dropped (per-flow isolation broken)")
	}
}

func TestRateLimiterSnapshotRestore(t *testing.T) {
	rl := nf.NewRateLimiter("rl", 0.001, 0)
	fr := udpFrame(t, packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 1, 2, make([]byte, 2900))
	ctx, _ := mkCtx(t, fr, 0)
	rl.Process(ctx) // drains most of the 3000-byte burst
	blob, err := rl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rl2 := nf.NewRateLimiter("rl", 1, 1)
	if err := rl2.Restore(blob); err != nil {
		t.Fatal(err)
	}
	// The restored bucket must still be nearly empty at t=0.
	ctx2, _ := mkCtx(t, fr, 0)
	if v, _ := rl2.Process(ctx2); v != nf.VerdictDrop {
		t.Error("restored limiter forgot bucket level")
	}
}

// --- IDS --------------------------------------------------------------------

func TestIDSSynFlood(t *testing.T) {
	ids := nf.NewIDS("ids", 10, 1000)
	attacker := packet.IPv4Addr{6, 6, 6, 6}
	var blocked bool
	for i := 0; i < 15; i++ {
		fr := tcpFrame(t, attacker, packet.IPv4Addr{10, 0, 0, 2}, uint16(2000+i), 80, packet.TCPSyn)
		ctx, _ := mkCtx(t, fr, 0)
		v, _ := ids.Process(ctx)
		if v == nf.VerdictDrop {
			blocked = true
		}
	}
	if !blocked {
		t.Fatal("syn flood not detected")
	}
	if ids.FlaggedCount() != 1 {
		t.Errorf("flagged = %d", ids.FlaggedCount())
	}
	alerts := ids.Alerts()
	if len(alerts) != 1 || alerts[0].Reason != "syn-flood" {
		t.Errorf("alerts = %v", alerts)
	}
	// Innocent source still passes.
	fr := tcpFrame(t, packet.IPv4Addr{10, 0, 0, 50}, packet.IPv4Addr{10, 0, 0, 2}, 5555, 80, packet.TCPAck)
	ctx, _ := mkCtx(t, fr, 0)
	if v, _ := ids.Process(ctx); v != nf.VerdictPass {
		t.Error("innocent source blocked")
	}
}

func TestIDSPortScan(t *testing.T) {
	ids := nf.NewIDS("ids", 1000, 20)
	scanner := packet.IPv4Addr{7, 7, 7, 7}
	var blocked bool
	for p := uint16(1); p <= 30; p++ {
		fr := tcpFrame(t, scanner, packet.IPv4Addr{10, 0, 0, 2}, 4000, p, packet.TCPAck)
		ctx, _ := mkCtx(t, fr, 0)
		if v, _ := ids.Process(ctx); v == nf.VerdictDrop {
			blocked = true
		}
	}
	if !blocked {
		t.Fatal("port scan not detected")
	}
}

func TestIDSSnapshotRestore(t *testing.T) {
	ids := nf.NewIDS("ids", 5, 1000)
	attacker := packet.IPv4Addr{6, 6, 6, 6}
	for i := 0; i < 10; i++ {
		fr := tcpFrame(t, attacker, packet.IPv4Addr{10, 0, 0, 2}, uint16(2000+i), 80, packet.TCPSyn)
		ctx, _ := mkCtx(t, fr, 0)
		ids.Process(ctx)
	}
	blob, err := ids.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ids2 := nf.NewIDS("ids", 5, 1000)
	if err := ids2.Restore(blob); err != nil {
		t.Fatal(err)
	}
	// The flag must survive migration: attacker stays blocked.
	fr := tcpFrame(t, attacker, packet.IPv4Addr{10, 0, 0, 2}, 9999, 80, packet.TCPAck)
	ctx, _ := mkCtx(t, fr, 0)
	if v, _ := ids2.Process(ctx); v != nf.VerdictDrop {
		t.Error("restored IDS forgot flagged source")
	}
}

// --- factory ----------------------------------------------------------------

func TestFactoryBuildsEveryCatalogType(t *testing.T) {
	types := []string{
		device.TypeFirewall, device.TypeLogger, device.TypeMonitor,
		device.TypeLoadBalancer, device.TypeNAT, device.TypeDPI,
		device.TypeRateLimiter, device.TypeIDS,
	}
	synth := traffic.NewSynth(4, 1)
	for _, typ := range types {
		inst, err := nf.New("x-"+typ, typ)
		if err != nil {
			t.Fatalf("New(%s): %v", typ, err)
		}
		if inst.Type() != typ {
			t.Errorf("type = %q, want %q", inst.Type(), typ)
		}
		// Every instance must process a realistic frame without error.
		fr := synth.Frame(0, 512)
		ctx, _ := mkCtx(t, fr, 0)
		if _, err := inst.Process(ctx); err != nil {
			t.Errorf("%s.Process: %v", typ, err)
		}
	}
	if _, err := nf.New("x", "bogus"); err == nil {
		t.Error("unknown type accepted")
	}
}

// Every stateful NF's snapshot must round-trip through a fresh instance of
// the same type without error (migration safety).
func TestAllStatefulSnapshotRoundTrip(t *testing.T) {
	types := []string{
		device.TypeFirewall, device.TypeLogger, device.TypeMonitor,
		device.TypeLoadBalancer, device.TypeNAT, device.TypeDPI,
		device.TypeRateLimiter, device.TypeIDS,
	}
	synth := traffic.NewSynth(8, 2)
	for _, typ := range types {
		src, err := nf.New("m-"+typ, typ)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			fr := synth.Frame(uint64(i%8), 256)
			ctx, _ := mkCtx(t, fr, time.Duration(i)*time.Microsecond)
			src.Process(ctx)
		}
		sf, ok := src.(nf.Stateful)
		if !ok {
			t.Fatalf("%s is not Stateful", typ)
		}
		blob, err := sf.Snapshot()
		if err != nil {
			t.Fatalf("%s snapshot: %v", typ, err)
		}
		dst, _ := nf.New("m-"+typ, typ)
		if err := dst.(nf.Stateful).Restore(blob); err != nil {
			t.Fatalf("%s restore: %v", typ, err)
		}
	}
}
