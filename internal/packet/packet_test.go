package packet_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

func sampleEth() packet.Ethernet {
	return packet.Ethernet{
		Src:  packet.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01},
		Dst:  packet.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x02},
		Type: packet.EtherTypeIPv4,
	}
}

func sampleIP() packet.IPv4 {
	return packet.IPv4{
		Version: 4,
		TTL:     64,
		Src:     packet.IPv4Addr{10, 0, 0, 1},
		Dst:     packet.IPv4Addr{192, 168, 1, 2},
	}
}

func TestUDPRoundTrip(t *testing.T) {
	b := packet.NewBuilder()
	payload := []byte("hello pam")
	frame := b.BuildUDP4(sampleEth(), sampleIP(), packet.UDP{SrcPort: 1234, DstPort: 53}, payload)

	d := packet.NewDecoder()
	layers, err := d.Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	want := []packet.LayerType{packet.LayerEthernet, packet.LayerIPv4, packet.LayerUDP, packet.LayerPayload}
	if len(layers) != len(want) {
		t.Fatalf("layers = %v, want %v", layers, want)
	}
	for i := range want {
		if layers[i] != want[i] {
			t.Fatalf("layers = %v, want %v", layers, want)
		}
	}
	if d.UDP.SrcPort != 1234 || d.UDP.DstPort != 53 {
		t.Errorf("ports = %d,%d", d.UDP.SrcPort, d.UDP.DstPort)
	}
	if !bytes.Equal(d.Payload, payload) {
		t.Errorf("payload = %q, want %q", d.Payload, payload)
	}
	if d.IP4.Src != (packet.IPv4Addr{10, 0, 0, 1}) {
		t.Errorf("src = %v", d.IP4.Src)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	b := packet.NewBuilder()
	tcp := packet.TCP{SrcPort: 4000, DstPort: 443, Seq: 7, Ack: 9, Flags: packet.TCPSyn | packet.TCPAck, Window: 1024}
	frame := b.BuildTCP4(sampleEth(), sampleIP(), tcp, []byte("payload"))
	d := packet.NewDecoder()
	if _, err := d.Decode(frame); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !d.Has(packet.LayerTCP) {
		t.Fatal("no TCP layer decoded")
	}
	if d.TCP.Seq != 7 || d.TCP.Ack != 9 || d.TCP.Flags != packet.TCPSyn|packet.TCPAck {
		t.Errorf("tcp = %+v", d.TCP)
	}
}

func TestICMPRoundTrip(t *testing.T) {
	b := packet.NewBuilder()
	frame := b.BuildICMP4(sampleEth(), sampleIP(), packet.ICMPv4{Type: packet.ICMPEchoRequest, ID: 3, Seq: 4}, []byte("ping"))
	d := packet.NewDecoder()
	if _, err := d.Decode(frame); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !d.Has(packet.LayerICMPv4) || d.ICMP.ID != 3 || d.ICMP.Seq != 4 {
		t.Errorf("icmp = %+v", d.ICMP)
	}
}

func TestChecksumsValid(t *testing.T) {
	b := packet.NewBuilder()
	frame := b.BuildUDP4(sampleEth(), sampleIP(), packet.UDP{SrcPort: 1, DstPort: 2}, []byte("x"))
	ipb := frame[packet.EthernetHeaderLen:]
	if !packet.VerifyIPv4Checksum(ipb) {
		t.Error("IPv4 checksum invalid")
	}
	// Verify UDP checksum: pseudo-header checksum over the segment (bounded
	// by the IP total length — the frame carries Ethernet padding beyond
	// it) with the stored checksum zeroed must equal the stored value.
	var src, dst packet.IPv4Addr
	copy(src[:], ipb[12:16])
	copy(dst[:], ipb[16:20])
	totalLen := int(ipb[2])<<8 | int(ipb[3])
	seg := append([]byte(nil), ipb[20:totalLen]...)
	stored := uint16(seg[6])<<8 | uint16(seg[7])
	seg[6], seg[7] = 0, 0
	if got := packet.PseudoHeaderChecksum(src, dst, packet.ProtoUDP, seg); got != stored {
		t.Errorf("udp checksum = %04x, stored %04x", got, stored)
	}
}

func TestMinFramePadding(t *testing.T) {
	b := packet.NewBuilder()
	frame := b.BuildUDP4(sampleEth(), sampleIP(), packet.UDP{}, nil)
	if len(frame) != packet.MinFrameSize {
		t.Errorf("frame = %dB, want padded to %d", len(frame), packet.MinFrameSize)
	}
}

func TestDecodeTruncated(t *testing.T) {
	d := packet.NewDecoder()
	if _, err := d.Decode([]byte{1, 2, 3}); !errors.Is(err, packet.ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
	// Truncated IP header after valid Ethernet.
	b := packet.NewBuilder()
	frame := b.BuildUDP4(sampleEth(), sampleIP(), packet.UDP{}, nil)
	if _, err := d.Decode(frame[:packet.EthernetHeaderLen+4]); !errors.Is(err, packet.ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestDecodeUnknownEtherType(t *testing.T) {
	frame := make([]byte, 64)
	frame[12], frame[13] = 0x08, 0x06 // ARP
	d := packet.NewDecoder()
	layers, err := d.Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(layers) < 1 || layers[0] != packet.LayerEthernet {
		t.Fatalf("layers = %v", layers)
	}
	if d.Has(packet.LayerIPv4) {
		t.Error("spurious IPv4 decode")
	}
}

func TestBadIPVersion(t *testing.T) {
	b := packet.NewBuilder()
	frame := append([]byte(nil), b.BuildUDP4(sampleEth(), sampleIP(), packet.UDP{}, nil)...)
	frame[packet.EthernetHeaderLen] = 0x65 // version 6 in an IPv4 slot
	d := packet.NewDecoder()
	if _, err := d.Decode(frame); !errors.Is(err, packet.ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	var ip6 packet.IPv6
	ip6.TrafficClass = 0xAB
	ip6.FlowLabel = 0x12345
	ip6.NextHeader = packet.ProtoUDP
	ip6.HopLimit = 64
	ip6.Src[15] = 1
	ip6.Dst[15] = 2
	payload := []byte("sixsixsix")
	ip6.Length = uint16(packet.UDPHeaderLen + len(payload))

	buf := make([]byte, packet.EthernetHeaderLen+packet.IPv6HeaderLen+packet.UDPHeaderLen+len(payload))
	eth := sampleEth()
	eth.Type = packet.EtherTypeIPv6
	eth.Serialize(buf)
	ip6.Serialize(buf[packet.EthernetHeaderLen:])
	udp := packet.UDP{SrcPort: 9, DstPort: 10, Length: uint16(packet.UDPHeaderLen + len(payload))}
	udp.Serialize(buf[packet.EthernetHeaderLen+packet.IPv6HeaderLen:])
	copy(buf[packet.EthernetHeaderLen+packet.IPv6HeaderLen+packet.UDPHeaderLen:], payload)

	d := packet.NewDecoder()
	if _, err := d.Decode(buf); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !d.Has(packet.LayerIPv6) || !d.Has(packet.LayerUDP) {
		t.Fatal("missing layers")
	}
	if d.IP6.TrafficClass != 0xAB || d.IP6.FlowLabel != 0x12345 {
		t.Errorf("ip6 = %+v", d.IP6)
	}
	if !bytes.Equal(d.Payload, payload) {
		t.Errorf("payload = %q", d.Payload)
	}
}

// Property: UpdateChecksum over a rewritten aligned field equals the full
// re-sum, for any data, field position and replacement — and a checksum that
// was off by d before the rewrite is off by d after it.
func TestPropertyUpdateChecksumMatchesResum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 2+r.Intn(1500))
		r.Read(data)
		n := 2 * (1 + r.Intn(3)) // 2, 4 or 6 bytes
		if n > len(data)&^1 {
			n = 2
		}
		off := 2 * r.Intn((len(data)-n)/2+1)
		to := make([]byte, n)
		r.Read(to)
		before := packet.Checksum(data)
		from := append([]byte(nil), data[off:off+n]...)
		copy(data[off:], to)
		after := packet.Checksum(data)
		if got := packet.UpdateChecksum(before, from, to); onesDiff(got, after) != 0 {
			t.Logf("seed %d: update %04x, re-sum %04x", seed, got, after)
			return false
		}
		d := uint16(1 + r.Intn(0xfffe))
		return onesDiff(packet.UpdateChecksum(before+d, from, to), after) == onesDiff(before+d, before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// onesDiff is a-b in one's-complement arithmetic, with both zeros as 0.
func onesDiff(a, b uint16) uint16 {
	return uint16((uint32(a) + 0xffff - uint32(b)%0xffff) % 0xffff)
}

func TestRewriterRefusesMalformedUntouched(t *testing.T) {
	b := packet.NewBuilder()
	tcp := append([]byte(nil), b.BuildTCP4(sampleEth(), sampleIP(), packet.TCP{SrcPort: 80, DstPort: 81}, []byte("abc"))...)
	udp := append([]byte(nil), b.BuildUDP4(sampleEth(), sampleIP(), packet.UDP{SrcPort: 5, DstPort: 6}, []byte("abcd"))...)
	ipOff := packet.EthernetHeaderLen
	mut := func(src []byte, fn func(f []byte) []byte) []byte { return fn(append([]byte(nil), src...)) }
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"short frame", tcp[:ipOff+packet.IPv4MinHeaderLen-1], packet.ErrTruncated},
		{"not IPv4", mut(tcp, func(f []byte) []byte { f[12], f[13] = 0x86, 0xdd; return f }), packet.ErrUnsupported},
		{"IHL below minimum", mut(tcp, func(f []byte) []byte { f[ipOff] = 0x44; return f }), packet.ErrBadHeader},
		{"IHL beyond frame", mut(tcp, func(f []byte) []byte { f[ipOff] = 0x4f; return f[:ipOff+40] }), packet.ErrBadHeader},
		{"short tcp", tcp[:ipOff+packet.IPv4MinHeaderLen+packet.TCPMinHeaderLen-1], packet.ErrTruncated},
		{"short udp", udp[:ipOff+packet.IPv4MinHeaderLen+packet.UDPHeaderLen-1], packet.ErrTruncated},
		{"short tcp by total length", mut(tcp, func(f []byte) []byte { f[ipOff+2], f[ipOff+3] = 0, 30; return f }), packet.ErrTruncated},
	}
	for _, c := range cases {
		before := append([]byte(nil), c.frame...)
		if _, err := packet.NewRewriter(c.frame); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if !bytes.Equal(c.frame, before) {
			t.Errorf("%s: refused frame was modified", c.name)
		}
	}
	// ICMP has no pseudo-header checksum: accepted, ports absent.
	icmp := append([]byte(nil), b.BuildICMP4(sampleEth(), sampleIP(), packet.ICMPv4{Type: packet.ICMPEchoRequest}, []byte("ping"))...)
	rw, err := packet.NewRewriter(icmp)
	if err != nil || rw.HasPorts() {
		t.Fatalf("icmp: err=%v hasPorts=%v", err, rw.HasPorts())
	}
	body := append([]byte(nil), icmp[ipOff+packet.IPv4MinHeaderLen:]...)
	rw.SetDstIP(packet.IPv4Addr{9, 9, 9, 9})
	if !packet.VerifyIPv4Checksum(icmp[ipOff:]) || !bytes.Equal(icmp[ipOff+packet.IPv4MinHeaderLen:], body) {
		t.Error("icmp: IP checksum invalid or ICMP bytes touched after rewrite")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: the checksum of this sequence is 0xddf2
	// complemented.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := packet.Checksum(data); got != ^uint16(0xddf2) {
		t.Errorf("checksum = %04x, want %04x", got, ^uint16(0xddf2))
	}
}

func TestAddrHelpers(t *testing.T) {
	a := packet.IPv4Addr{1, 2, 3, 4}
	if a.String() != "1.2.3.4" {
		t.Errorf("String = %q", a.String())
	}
	if packet.IPv4FromUint32(a.Uint32()) != a {
		t.Error("Uint32 round trip failed")
	}
	m := packet.MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Errorf("MAC = %q", m.String())
	}
}

// Property: any UDP frame the builder produces decodes back to the same
// header fields and payload, regardless of payload size.
func TestPropertyBuildDecodeRoundTrip(t *testing.T) {
	b := packet.NewBuilder()
	d := packet.NewDecoder()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ip := sampleIP()
		ip.Src = packet.IPv4FromUint32(r.Uint32())
		ip.Dst = packet.IPv4FromUint32(r.Uint32())
		udp := packet.UDP{SrcPort: uint16(r.Intn(65536)), DstPort: uint16(r.Intn(65536))}
		payload := make([]byte, r.Intn(1200))
		r.Read(payload)
		frame := b.BuildUDP4(sampleEth(), ip, udp, payload)
		if _, err := d.Decode(frame); err != nil {
			return false
		}
		if d.IP4.Src != ip.Src || d.IP4.Dst != ip.Dst {
			return false
		}
		if d.UDP.SrcPort != udp.SrcPort || d.UDP.DstPort != udp.DstPort {
			return false
		}
		if len(payload) > 0 && !bytes.Equal(d.Payload, payload) {
			return false
		}
		return packet.VerifyIPv4Checksum(frame[packet.EthernetHeaderLen:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding never panics on arbitrary bytes.
func TestPropertyDecodeNeverPanics(t *testing.T) {
	d := packet.NewDecoder()
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %x: %v", data, r)
			}
		}()
		_, _ = d.Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
