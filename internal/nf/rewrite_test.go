package nf_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/flow"
	"repro/internal/nf"
	"repro/internal/packet"
	"repro/internal/traffic"
)

// Offsets into an Ethernet/IPv4 frame without IP options, which is what the
// synthesizer and the test builders mint.
const (
	ipOff  = packet.EthernetHeaderLen
	srcOff = ipOff + 12
	dstOff = ipOff + 16
	l4Off  = ipOff + packet.IPv4MinHeaderLen
)

// l4CkOff is where the frame's TCP or UDP checksum sits.
func l4CkOff(frame []byte) int {
	if packet.IPProto(frame[ipOff+9]) == packet.ProtoTCP {
		return l4Off + 16
	}
	return l4Off + 6
}

// recompute is the reference the incremental update is held to: both
// checksums summed from scratch over the whole header and the whole
// segment, the way LoadBalancer and NAT did before they patched them.
func recompute(frame []byte) {
	ipb := frame[ipOff:]
	ipb[10], ipb[11] = 0, 0
	binary.BigEndian.PutUint16(ipb[10:12], packet.Checksum(ipb[:packet.IPv4MinHeaderLen]))
	var src, dst packet.IPv4Addr
	copy(src[:], ipb[12:16])
	copy(dst[:], ipb[16:20])
	proto := packet.IPProto(ipb[9])
	seg := ipb[packet.IPv4MinHeaderLen:binary.BigEndian.Uint16(ipb[2:4])]
	ck := frame[l4CkOff(frame):][:2]
	ck[0], ck[1] = 0, 0
	sum := packet.PseudoHeaderChecksum(src, dst, proto, seg)
	if proto == packet.ProtoUDP && sum == 0 {
		sum = 0xffff
	}
	binary.BigEndian.PutUint16(ck, sum)
}

// runLB and runNAT process a private copy of frame through a fresh context
// and return the copy as the NF left it.
func runLB(t *testing.T, lb *nf.LoadBalancer, frame []byte) []byte {
	t.Helper()
	out := append([]byte(nil), frame...)
	ctx, _ := mkCtx(t, out, 0)
	if v, err := lb.Process(ctx); v != nf.VerdictPass || err != nil || !ctx.Rewritten {
		t.Fatalf("lb: verdict=%v err=%v rewritten=%v", v, err, ctx.Rewritten)
	}
	return out
}

func runNAT(t *testing.T, n *nf.NAT, frame []byte) []byte {
	t.Helper()
	out := append([]byte(nil), frame...)
	ctx, _ := mkCtx(t, out, 0)
	if v, err := n.Process(ctx); v != nf.VerdictPass || err != nil || !ctx.Rewritten {
		t.Fatalf("nat: verdict=%v err=%v rewritten=%v", v, err, ctx.Rewritten)
	}
	return out
}

func newLBNAT(t *testing.T) (*nf.LoadBalancer, *nf.NAT) {
	t.Helper()
	lb, err := nf.NewLoadBalancer("lb", nf.DefaultBackends())
	if err != nil {
		t.Fatal(err)
	}
	n, err := nf.NewNAT("nat", packet.IPv4Addr{203, 0, 113, 1}, 20000, 60000)
	if err != nil {
		t.Fatal(err)
	}
	return lb, n
}

// TestRewriteMatchesFullRecompute: for every frame the synthesizer mints —
// TCP and UDP flows, odd and even lengths, minimum to MTU — the bytes
// LoadBalancer and NAT emit equal the same rewrite followed by a full
// re-sum of both checksums.
func TestRewriteMatchesFullRecompute(t *testing.T) {
	const flows = 256
	synth := traffic.NewSynth(flows, 11)
	lb, n := newLBNAT(t)
	backends := map[packet.IPv4Addr]bool{}
	for _, b := range lb.Backends() {
		backends[b.IP] = true
	}
	for _, size := range []int{64, 65, 127, 512, 1499, 1500} {
		for f := uint64(0); f < flows; f++ {
			in := synth.Frame(f, size)

			got := runLB(t, lb, in)
			var backend packet.IPv4Addr
			copy(backend[:], got[dstOff:])
			if !backends[backend] {
				t.Fatalf("flow %d: dst %v is not a backend", f, backend)
			}
			want := append([]byte(nil), in...)
			copy(want[dstOff:], backend[:])
			recompute(want)
			if !bytes.Equal(got, want) {
				t.Fatalf("lb: flow %d size %d: incremental rewrite differs from full recompute", f, size)
			}

			got = runNAT(t, n, in)
			want = append([]byte(nil), in...)
			copy(want[srcOff:], got[srcOff:srcOff+4])
			copy(want[l4Off:], got[l4Off:l4Off+2]) // the allocated source port
			recompute(want)
			if !bytes.Equal(got, want) {
				t.Fatalf("nat: flow %d size %d: incremental rewrite differs from full recompute", f, size)
			}
			if got[srcOff] != 203 || binary.BigEndian.Uint16(got[l4Off:]) < 20000 {
				t.Fatalf("nat: flow %d: source %v:%d not translated", f, got[srcOff:srcOff+4], binary.BigEndian.Uint16(got[l4Off:]))
			}
		}
	}
}

// onesDiff is a-b in one's-complement arithmetic, with both zeros as 0.
func onesDiff(a, b uint16) uint16 {
	return uint16((uint32(a) + 0xffff - uint32(b)%0xffff) % 0xffff)
}

// TestRewriteDoesNotLaunderCorruption: a frame whose transport checksum is
// wrong on arrival — a payload edited after the sender summed it, which is
// what the benchmark's latency stamps are — leaves wrong by the same amount.
// A full recompute would have declared the damaged payload good.
func TestRewriteDoesNotLaunderCorruption(t *testing.T) {
	synth := traffic.NewSynth(8, 3)
	lb, n := newLBNAT(t)
	for f := uint64(0); f < 8; f++ {
		good := synth.Frame(f, 512)
		bad := append([]byte(nil), good...)
		copy(bad[len(bad)-10:], "\xa5\x5astamped!") // payload edit, checksum not redone
		ck := l4CkOff(good)
		ref := append([]byte(nil), bad...)
		recompute(ref)
		delta := onesDiff(binary.BigEndian.Uint16(bad[ck:]), binary.BigEndian.Uint16(ref[ck:]))
		if delta == 0 {
			t.Fatalf("flow %d: the edit did not invalidate the checksum", f)
		}
		for name, run := range map[string]func([]byte) []byte{
			"lb":  func(fr []byte) []byte { return runLB(t, lb, fr) },
			"nat": func(fr []byte) []byte { return runNAT(t, n, fr) },
		} {
			got := run(bad)
			ref := append([]byte(nil), got...)
			recompute(ref)
			if d := onesDiff(binary.BigEndian.Uint16(got[ck:]), binary.BigEndian.Uint16(ref[ck:])); d != delta {
				t.Errorf("%s: flow %d: checksum off by %#04x after the rewrite, %#04x before", name, f, d, delta)
			}
			if !packet.VerifyIPv4Checksum(got[ipOff:]) || !bytes.Equal(got[l4Off+packet.TCPMinHeaderLen:], bad[l4Off+packet.TCPMinHeaderLen:]) {
				t.Errorf("%s: flow %d: IP checksum invalid or payload changed", name, f)
			}
		}
	}
}

// TestRewriteUDPZeroChecksums: a UDP checksum of zero means none was
// computed and stays zero; a checksum that computes to zero is sent as all
// ones.
func TestRewriteUDPZeroChecksums(t *testing.T) {
	lb, n := newLBNAT(t)
	src, dst := packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{20, 0, 0, 9}
	const ck = l4Off + 6

	none := udpFrame(t, src, dst, 700, 80, []byte("no checksum"))
	none[ck], none[ck+1] = 0, 0
	for name, got := range map[string][]byte{"lb": runLB(t, lb, none), "nat": runNAT(t, n, none)} {
		if got[ck] != 0 || got[ck+1] != 0 {
			t.Errorf("%s: absent UDP checksum became %#x", name, got[ck:ck+2])
		}
		if !packet.VerifyIPv4Checksum(got[ipOff:]) {
			t.Errorf("%s: IP checksum invalid", name)
		}
	}

	// Steer the first payload word so the checksum *after* each NF's rewrite
	// computes to zero: with the word at 0 the rewritten frame sums to c, so
	// a word of c makes it sum to all ones. The incoming checksum is then
	// made valid for the incoming header.
	for name, run := range map[string]func([]byte) []byte{
		"lb":  func(fr []byte) []byte { return runLB(t, lb, fr) },
		"nat": func(fr []byte) []byte { return runNAT(t, n, fr) },
	} {
		in := udpFrame(t, src, dst, 700, 80, []byte{0, 0, 'p', 'a', 'd'})
		probe := run(in)
		recompute(probe)
		copy(in[l4Off+packet.UDPHeaderLen:], probe[ck:ck+2])
		recompute(in)
		got := run(in)
		want := append([]byte(nil), got...)
		recompute(want)
		if binary.BigEndian.Uint16(got[ck:]) != 0xffff || !bytes.Equal(got, want) {
			t.Errorf("%s: computed-zero UDP checksum sent as %#x, want ffff", name, got[ck:ck+2])
		}
	}
}

// TestRewriteRefusesMalformedUntouched: every input the full-recompute
// fixups refused is still refused — counted as an error, dropped — and now
// leaves the frame as it came and takes no binding.
func TestRewriteRefusesMalformedUntouched(t *testing.T) {
	src, dst := packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{20, 0, 0, 9}
	tcp := tcpFrame(t, src, dst, 700, 80, packet.TCPAck)
	udp := udpFrame(t, src, dst, 700, 80, []byte("payload"))
	mut := func(fr []byte, fn func([]byte) []byte) []byte { return fn(append([]byte(nil), fr...)) }
	cases := []struct {
		name  string
		proto packet.IPProto
		frame []byte
		want  error
	}{
		{"truncated IP header", packet.ProtoTCP, tcp[:l4Off-1], packet.ErrTruncated},
		{"not IPv4", packet.ProtoTCP, mut(tcp, func(f []byte) []byte { f[12], f[13] = 0x08, 0x06; return f }), packet.ErrUnsupported},
		{"IHL below minimum", packet.ProtoTCP, mut(tcp, func(f []byte) []byte { f[ipOff] = 0x43; return f }), packet.ErrBadHeader},
		{"IHL beyond frame", packet.ProtoUDP, mut(udp, func(f []byte) []byte { f[ipOff] = 0x4f; return f }), packet.ErrBadHeader},
		{"short tcp", packet.ProtoTCP, tcp[:l4Off+packet.TCPMinHeaderLen-1], packet.ErrTruncated},
		{"short udp", packet.ProtoUDP, udp[:l4Off+packet.UDPHeaderLen-1], packet.ErrTruncated},
	}
	for _, c := range cases {
		lb, n := newLBNAT(t)
		for name, inst := range map[string]nf.NF{"lb": lb, "nat": n} {
			fr := append([]byte(nil), c.frame...)
			// The decoder rejects these frames too; the context is built by
			// hand the way a caller that trusts its own parse would.
			ctx := &nf.Ctx{Frame: fr, Decoder: packet.NewDecoder(), HasFlow: true,
				FlowKey: flow.Key{SrcIP: src, DstIP: dst, SrcPort: 700, DstPort: 80, Proto: c.proto}}
			v, err := inst.Process(ctx)
			if v != nf.VerdictDrop || !errors.Is(err, c.want) {
				t.Errorf("%s: %s: verdict=%v err=%v, want drop with %v", name, c.name, v, err, c.want)
			}
			if !bytes.Equal(fr, c.frame) || ctx.Rewritten {
				t.Errorf("%s: %s: refused frame was modified", name, c.name)
			}
			if st := inst.Stats(); st.Errors != 1 || st.Processed != 1 || st.Passed != 0 {
				t.Errorf("%s: %s: stats %v", name, c.name, st)
			}
		}
		if len(n.Bindings()) != 0 {
			t.Errorf("nat: %s: refused frame took a binding", c.name)
		}
	}
}
