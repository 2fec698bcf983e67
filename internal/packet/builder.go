package packet

import "encoding/binary"

// Builder assembles complete Ethernet frames front-to-back into a reusable
// buffer, fixing up length and checksum fields that depend on outer/inner
// layers. It is the serialization counterpart of Decoder and is used by the
// traffic generator; NFs that rewrite a frame in place use Rewriter.
//
// A Builder is not safe for concurrent use.
type Builder struct {
	buf []byte
}

// NewBuilder returns a Builder with capacity for a maximum-size frame.
func NewBuilder() *Builder {
	return &Builder{buf: make([]byte, 0, MaxFrameSize)}
}

// Bytes returns the most recently built frame. The slice is valid until the
// next Build call; callers that retain frames must copy.
func (b *Builder) Bytes() []byte { return b.buf }

// BuildUDP4 assembles Ethernet/IPv4/UDP with the given payload, computing
// all lengths and checksums. The frame is padded to MinFrameSize if shorter.
// It returns the frame (valid until the next call) and its length.
func (b *Builder) BuildUDP4(eth Ethernet, ip IPv4, udp UDP, payload []byte) []byte {
	ipHL := IPv4MinHeaderLen + len(ip.Options)
	total := EthernetHeaderLen + ipHL + UDPHeaderLen + len(payload)
	b.grow(total)

	eth.Type = EtherTypeIPv4
	eth.Serialize(b.buf[0:])

	ip.Version = 4
	ip.Protocol = ProtoUDP
	ip.Length = uint16(ipHL + UDPHeaderLen + len(payload))
	ipOff := EthernetHeaderLen

	udp.Length = uint16(UDPHeaderLen + len(payload))
	udpOff := ipOff + ipHL
	udp.Serialize(b.buf[udpOff:])
	copy(b.buf[udpOff+UDPHeaderLen:], payload)

	ip.Serialize(b.buf[ipOff:]) // computes IP header checksum

	// UDP checksum over pseudo-header + segment.
	seg := b.buf[udpOff : udpOff+UDPHeaderLen+len(payload)]
	ck := PseudoHeaderChecksum(ip.Src, ip.Dst, ProtoUDP, seg)
	if ck == 0 {
		ck = 0xffff // RFC 768: transmitted as all ones
	}
	binary.BigEndian.PutUint16(seg[6:8], ck)

	b.pad(total)
	return b.buf
}

// BuildTCP4 assembles Ethernet/IPv4/TCP with the given payload, computing
// all lengths and checksums. The frame is padded to MinFrameSize if shorter.
func (b *Builder) BuildTCP4(eth Ethernet, ip IPv4, tcp TCP, payload []byte) []byte {
	ipHL := IPv4MinHeaderLen + len(ip.Options)
	tcpHL := TCPMinHeaderLen + len(tcp.Options)
	total := EthernetHeaderLen + ipHL + tcpHL + len(payload)
	b.grow(total)

	eth.Type = EtherTypeIPv4
	eth.Serialize(b.buf[0:])

	ip.Version = 4
	ip.Protocol = ProtoTCP
	ip.Length = uint16(ipHL + tcpHL + len(payload))
	ipOff := EthernetHeaderLen

	tcpOff := ipOff + ipHL
	tcp.Serialize(b.buf[tcpOff:])
	copy(b.buf[tcpOff+tcpHL:], payload)

	ip.Serialize(b.buf[ipOff:])

	seg := b.buf[tcpOff : tcpOff+tcpHL+len(payload)]
	ck := PseudoHeaderChecksum(ip.Src, ip.Dst, ProtoTCP, seg)
	binary.BigEndian.PutUint16(seg[16:18], ck)

	b.pad(total)
	return b.buf
}

// BuildICMP4 assembles Ethernet/IPv4/ICMPv4 with the given payload.
func (b *Builder) BuildICMP4(eth Ethernet, ip IPv4, icmp ICMPv4, payload []byte) []byte {
	ipHL := IPv4MinHeaderLen + len(ip.Options)
	total := EthernetHeaderLen + ipHL + ICMPHeaderLen + len(payload)
	b.grow(total)

	eth.Type = EtherTypeIPv4
	eth.Serialize(b.buf[0:])

	ip.Version = 4
	ip.Protocol = ProtoICMP
	ip.Length = uint16(ipHL + ICMPHeaderLen + len(payload))
	ipOff := EthernetHeaderLen

	icmpOff := ipOff + ipHL
	icmp.Serialize(b.buf[icmpOff:])
	copy(b.buf[icmpOff+ICMPHeaderLen:], payload)

	ip.Serialize(b.buf[ipOff:])

	seg := b.buf[icmpOff : icmpOff+ICMPHeaderLen+len(payload)]
	ck := Checksum(seg)
	binary.BigEndian.PutUint16(seg[2:4], ck)

	b.pad(total)
	return b.buf
}

func (b *Builder) grow(n int) {
	if cap(b.buf) < n {
		b.buf = make([]byte, n)
	} else {
		b.buf = b.buf[:n]
	}
	clear(b.buf)
}

// pad extends the frame with zero bytes to the Ethernet minimum when needed.
func (b *Builder) pad(n int) {
	if n >= MinFrameSize {
		return
	}
	b.buf = b.buf[:MinFrameSize]
	clear(b.buf[n:MinFrameSize])
}
