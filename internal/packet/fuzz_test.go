package packet_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/packet"
)

// FuzzDecode hammers the decoder with arbitrary bytes: it must never panic,
// and whenever it reports success for an IPv4 frame the header fields must
// be self-consistent.
func FuzzDecode(f *testing.F) {
	b := packet.NewBuilder()
	f.Add([]byte{})
	f.Add(b.BuildUDP4(sampleEth(), sampleIP(), packet.UDP{SrcPort: 1, DstPort: 2}, []byte("seed")))
	f.Add(b.BuildTCP4(sampleEth(), sampleIP(), packet.TCP{SrcPort: 3, DstPort: 4}, nil))
	f.Add(b.BuildICMP4(sampleEth(), sampleIP(), packet.ICMPv4{Type: packet.ICMPEchoRequest}, nil))

	d := packet.NewDecoder()
	f.Fuzz(func(t *testing.T, data []byte) {
		layers, err := d.Decode(data)
		if err != nil {
			return
		}
		for _, lt := range layers {
			if lt == packet.LayerIPv4 {
				if d.IP4.Version != 4 {
					t.Fatalf("accepted IPv4 with version %d", d.IP4.Version)
				}
				if int(d.IP4.IHL)*4 < packet.IPv4MinHeaderLen {
					t.Fatalf("accepted IPv4 with IHL %d", d.IP4.IHL)
				}
			}
		}
	})
}

// FuzzRewriter hammers the incremental-checksum rewrite with arbitrary
// bytes: it must never panic, a refused frame is left untouched, and a
// rewrite keeps whatever held before it — a valid IPv4 header checksum, a
// valid TCP/UDP checksum, an absent (zero) UDP checksum — while changing
// exactly the address, port and checksum bytes.
func FuzzRewriter(f *testing.F) {
	b := packet.NewBuilder()
	f.Add(b.BuildUDP4(sampleEth(), sampleIP(), packet.UDP{SrcPort: 5, DstPort: 6}, []byte("x")))
	f.Add(b.BuildTCP4(sampleEth(), sampleIP(), packet.TCP{SrcPort: 7, DstPort: 8}, []byte("odd")))
	f.Add(b.BuildICMP4(sampleEth(), sampleIP(), packet.ICMPv4{Type: packet.ICMPEchoRequest}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := append([]byte(nil), data...)
		rw, err := packet.NewRewriter(frame)
		if err != nil {
			if !bytes.Equal(frame, data) {
				t.Fatal("refused frame was modified")
			}
			return
		}
		ipb := data[packet.EthernetHeaderLen:]
		hlen := int(ipb[0]&0x0f) * 4
		end := int(binary.BigEndian.Uint16(ipb[2:4]))
		if end < hlen || end > len(ipb) {
			end = len(ipb)
		}
		ckOff := -1 // transport checksum offset within the frame
		switch packet.IPProto(ipb[9]) {
		case packet.ProtoTCP:
			ckOff = packet.EthernetHeaderLen + hlen + 16
		case packet.ProtoUDP:
			ckOff = packet.EthernetHeaderLen + hlen + 6
		}
		if rw.HasPorts() != (ckOff >= 0) {
			t.Fatalf("HasPorts = %v for protocol %d", rw.HasPorts(), ipb[9])
		}
		transportOK := func(fr []byte) bool {
			ip := fr[packet.EthernetHeaderLen:]
			var src, dst packet.IPv4Addr
			copy(src[:], ip[12:16])
			copy(dst[:], ip[16:20])
			return packet.PseudoHeaderChecksum(src, dst, packet.IPProto(ip[9]), ip[hlen:end]) == 0
		}
		ipValid := packet.VerifyIPv4Checksum(ipb)
		noUDPSum := packet.IPProto(ipb[9]) == packet.ProtoUDP && data[ckOff] == 0 && data[ckOff+1] == 0
		l4Valid := ckOff >= 0 && !noUDPSum && transportOK(data)

		rw.SetDstIP(packet.IPv4Addr{192, 168, 100, 3})
		rw.SetSrcIP(packet.IPv4Addr{203, 0, 113, 1})
		if rw.HasPorts() {
			rw.SetSrcPort(40000)
		}

		if ipValid && !packet.VerifyIPv4Checksum(frame[packet.EthernetHeaderLen:]) {
			t.Fatal("valid IPv4 header checksum became invalid")
		}
		if l4Valid && !transportOK(frame) {
			t.Fatal("valid transport checksum became invalid")
		}
		if noUDPSum && (frame[ckOff] != 0 || frame[ckOff+1] != 0) {
			t.Fatal("absent UDP checksum was filled in")
		}
		if ckOff >= 0 && packet.IPProto(ipb[9]) == packet.ProtoUDP && !noUDPSum && frame[ckOff] == 0 && frame[ckOff+1] == 0 {
			t.Fatal("computed UDP checksum sent as zero")
		}
		// Only addresses, source port and the two checksum fields may differ.
		may := map[int]bool{}
		for i := 10; i < 20; i++ { // header checksum, source, destination
			may[packet.EthernetHeaderLen+i] = true
		}
		if ckOff >= 0 {
			may[packet.EthernetHeaderLen+hlen], may[packet.EthernetHeaderLen+hlen+1] = true, true
			may[ckOff], may[ckOff+1] = true, true
		}
		for i := range frame {
			if frame[i] != data[i] && !may[i] {
				t.Fatalf("byte %d changed", i)
			}
		}
	})
}
