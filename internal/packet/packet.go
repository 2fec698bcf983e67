// Package packet implements a compact packet model for the PAM reproduction:
// wire-format parsing and serialization for Ethernet, IPv4, IPv6, TCP, UDP
// and ICMPv4, an allocation-free decoder in the style of gopacket's
// DecodingLayerParser, checksum computation, and builders used by the
// traffic generator.
//
// Design notes (following the gopacket guide): decoding writes into
// caller-preallocated layer structs instead of allocating per packet, which
// keeps the emulated dataplane hot path garbage-free; serialization appends
// layers back-to-front into a reusable buffer.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// Supported EtherTypes.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeARP  EtherType = 0x0806
	EtherTypeIPv6 EtherType = 0x86DD
)

// String names well-known EtherTypes.
func (e EtherType) String() string {
	switch e {
	case EtherTypeIPv4:
		return "IPv4"
	case EtherTypeARP:
		return "ARP"
	case EtherTypeIPv6:
		return "IPv6"
	default:
		return fmt.Sprintf("EtherType(0x%04x)", uint16(e))
	}
}

// IPProto identifies the transport protocol of an IP packet.
type IPProto uint8

// Supported IP protocol numbers.
const (
	ProtoICMP IPProto = 1
	ProtoTCP  IPProto = 6
	ProtoUDP  IPProto = 17
)

// String names well-known IP protocols.
func (p IPProto) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("IPProto(%d)", uint8(p))
	}
}

// Wire-format size constants in bytes.
const (
	EthernetHeaderLen = 14
	IPv4MinHeaderLen  = 20
	IPv6HeaderLen     = 40
	TCPMinHeaderLen   = 20
	UDPHeaderLen      = 8
	ICMPHeaderLen     = 8

	// MinFrameSize and MaxFrameSize bound Ethernet frame sizes the
	// generator produces (64B minimum without FCS per the DPDK sender the
	// paper uses; 1500B MTU + 14B header).
	MinFrameSize = 60
	MaxFrameSize = 1514
)

// Decoding errors.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrBadVersion  = errors.New("packet: bad IP version")
	ErrBadHeader   = errors.New("packet: malformed header")
	ErrUnsupported = errors.New("packet: unsupported layer")
)

// MAC is a 6-byte Ethernet hardware address. The array form keeps it usable
// as a map key.
type MAC [6]byte

// String formats the address in colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4Addr is an IPv4 address in network byte order. The fixed-size form
// keeps it allocation-free and usable as a map key.
type IPv4Addr [4]byte

// String formats the address in dotted decimal.
func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Uint32 returns the address as a big-endian integer, convenient for LPM.
func (a IPv4Addr) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// IPv4FromUint32 builds an address from a big-endian integer.
func IPv4FromUint32(v uint32) IPv4Addr {
	var a IPv4Addr
	binary.BigEndian.PutUint32(a[:], v)
	return a
}

// Ethernet is a decoded Ethernet II header.
type Ethernet struct {
	Src, Dst MAC
	Type     EtherType
}

// Decode parses the header from data and returns the payload.
func (e *Ethernet) Decode(data []byte) (payload []byte, err error) {
	if len(data) < EthernetHeaderLen {
		return nil, fmt.Errorf("ethernet: %w: %d bytes", ErrTruncated, len(data))
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.Type = EtherType(binary.BigEndian.Uint16(data[12:14]))
	return data[EthernetHeaderLen:], nil
}

// Serialize writes the header into b, which must have room for
// EthernetHeaderLen bytes. It returns the number of bytes written.
func (e *Ethernet) Serialize(b []byte) int {
	copy(b[0:6], e.Dst[:])
	copy(b[6:12], e.Src[:])
	binary.BigEndian.PutUint16(b[12:14], uint16(e.Type))
	return EthernetHeaderLen
}

// IPv4 is a decoded IPv4 header. Options are preserved as a sub-slice of the
// original data and are not interpreted.
type IPv4 struct {
	Version  uint8
	IHL      uint8 // header length in 32-bit words
	TOS      uint8
	Length   uint16 // total length including header
	ID       uint16
	Flags    uint8  // 3 bits
	FragOff  uint16 // 13 bits
	TTL      uint8
	Protocol IPProto
	Checksum uint16
	Src, Dst IPv4Addr
	Options  []byte
}

// Decode parses the header from data and returns the payload (bounded by the
// header's Length field when it is consistent).
func (ip *IPv4) Decode(data []byte) (payload []byte, err error) {
	if len(data) < IPv4MinHeaderLen {
		return nil, fmt.Errorf("ipv4: %w: %d bytes", ErrTruncated, len(data))
	}
	vihl := data[0]
	ip.Version = vihl >> 4
	if ip.Version != 4 {
		return nil, fmt.Errorf("ipv4: %w: version %d", ErrBadVersion, ip.Version)
	}
	ip.IHL = vihl & 0x0f
	hlen := int(ip.IHL) * 4
	if hlen < IPv4MinHeaderLen {
		return nil, fmt.Errorf("ipv4: %w: IHL %d", ErrBadHeader, ip.IHL)
	}
	if len(data) < hlen {
		return nil, fmt.Errorf("ipv4: %w: header %d > %d", ErrTruncated, hlen, len(data))
	}
	ip.TOS = data[1]
	ip.Length = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = IPProto(data[9])
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	copy(ip.Src[:], data[12:16])
	copy(ip.Dst[:], data[16:20])
	ip.Options = data[IPv4MinHeaderLen:hlen]
	end := int(ip.Length)
	if end < hlen || end > len(data) {
		// Tolerate padded or trimmed frames; deliver what we have.
		end = len(data)
	}
	return data[hlen:end], nil
}

// Serialize writes the header into b (which must have room for HeaderLen
// bytes), computing the header checksum. It returns bytes written.
func (ip *IPv4) Serialize(b []byte) int {
	hlen := IPv4MinHeaderLen + len(ip.Options)
	ip.IHL = uint8(hlen / 4)
	b[0] = ip.Version<<4 | ip.IHL
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:4], ip.Length)
	binary.BigEndian.PutUint16(b[4:6], ip.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	b[8] = ip.TTL
	b[9] = uint8(ip.Protocol)
	b[10], b[11] = 0, 0
	copy(b[12:16], ip.Src[:])
	copy(b[16:20], ip.Dst[:])
	copy(b[IPv4MinHeaderLen:hlen], ip.Options)
	ip.Checksum = Checksum(b[:hlen])
	binary.BigEndian.PutUint16(b[10:12], ip.Checksum)
	return hlen
}

// VerifyChecksum reports whether the header bytes carry a valid checksum.
func VerifyIPv4Checksum(header []byte) bool {
	if len(header) < IPv4MinHeaderLen {
		return false
	}
	hlen := int(header[0]&0x0f) * 4
	if hlen < IPv4MinHeaderLen || hlen > len(header) {
		return false
	}
	return Checksum(header[:hlen]) == 0
}

// IPv6 is a decoded IPv6 fixed header. Extension headers are not chased; the
// NextHeader value is exposed as-is.
type IPv6 struct {
	Version      uint8
	TrafficClass uint8
	FlowLabel    uint32
	Length       uint16 // payload length
	NextHeader   IPProto
	HopLimit     uint8
	Src, Dst     [16]byte
}

// Decode parses the fixed header and returns the payload.
func (ip *IPv6) Decode(data []byte) (payload []byte, err error) {
	if len(data) < IPv6HeaderLen {
		return nil, fmt.Errorf("ipv6: %w: %d bytes", ErrTruncated, len(data))
	}
	v := data[0] >> 4
	if v != 6 {
		return nil, fmt.Errorf("ipv6: %w: version %d", ErrBadVersion, v)
	}
	ip.Version = v
	ip.TrafficClass = data[0]<<4 | data[1]>>4
	ip.FlowLabel = uint32(data[1]&0x0f)<<16 | uint32(data[2])<<8 | uint32(data[3])
	ip.Length = binary.BigEndian.Uint16(data[4:6])
	ip.NextHeader = IPProto(data[6])
	ip.HopLimit = data[7]
	copy(ip.Src[:], data[8:24])
	copy(ip.Dst[:], data[24:40])
	end := IPv6HeaderLen + int(ip.Length)
	if end > len(data) {
		end = len(data)
	}
	return data[IPv6HeaderLen:end], nil
}

// Serialize writes the fixed header into b and returns bytes written.
func (ip *IPv6) Serialize(b []byte) int {
	b[0] = 6<<4 | ip.TrafficClass>>4
	b[1] = ip.TrafficClass<<4 | uint8(ip.FlowLabel>>16)
	b[2] = uint8(ip.FlowLabel >> 8)
	b[3] = uint8(ip.FlowLabel)
	binary.BigEndian.PutUint16(b[4:6], ip.Length)
	b[6] = uint8(ip.NextHeader)
	b[7] = ip.HopLimit
	copy(b[8:24], ip.Src[:])
	copy(b[24:40], ip.Dst[:])
	return IPv6HeaderLen
}

// TCP flag bits.
const (
	TCPFin uint8 = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// TCP is a decoded TCP header. Options are preserved uninterpreted.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOffset       uint8 // header length in 32-bit words
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	Options          []byte
}

// Decode parses the header from data and returns the payload.
func (t *TCP) Decode(data []byte) (payload []byte, err error) {
	if len(data) < TCPMinHeaderLen {
		return nil, fmt.Errorf("tcp: %w: %d bytes", ErrTruncated, len(data))
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.DataOffset = data[12] >> 4
	hlen := int(t.DataOffset) * 4
	if hlen < TCPMinHeaderLen {
		return nil, fmt.Errorf("tcp: %w: data offset %d", ErrBadHeader, t.DataOffset)
	}
	if len(data) < hlen {
		return nil, fmt.Errorf("tcp: %w: header %d > %d", ErrTruncated, hlen, len(data))
	}
	t.Flags = data[13] & 0x3f
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	t.Options = data[TCPMinHeaderLen:hlen]
	return data[hlen:], nil
}

// Serialize writes the header into b without computing the checksum (the
// pseudo-header checksum is applied by the builder, which knows the IP
// layer). Returns bytes written.
func (t *TCP) Serialize(b []byte) int {
	hlen := TCPMinHeaderLen + len(t.Options)
	t.DataOffset = uint8(hlen / 4)
	binary.BigEndian.PutUint16(b[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], t.DstPort)
	binary.BigEndian.PutUint32(b[4:8], t.Seq)
	binary.BigEndian.PutUint32(b[8:12], t.Ack)
	b[12] = t.DataOffset << 4
	b[13] = t.Flags & 0x3f
	binary.BigEndian.PutUint16(b[14:16], t.Window)
	binary.BigEndian.PutUint16(b[16:18], 0)
	binary.BigEndian.PutUint16(b[18:20], t.Urgent)
	copy(b[TCPMinHeaderLen:hlen], t.Options)
	return hlen
}

// UDP is a decoded UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// Decode parses the header from data and returns the payload.
func (u *UDP) Decode(data []byte) (payload []byte, err error) {
	if len(data) < UDPHeaderLen {
		return nil, fmt.Errorf("udp: %w: %d bytes", ErrTruncated, len(data))
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	end := int(u.Length)
	if end < UDPHeaderLen || end > len(data) {
		end = len(data)
	}
	return data[UDPHeaderLen:end], nil
}

// Serialize writes the header into b without the checksum and returns bytes
// written.
func (u *UDP) Serialize(b []byte) int {
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	binary.BigEndian.PutUint16(b[4:6], u.Length)
	binary.BigEndian.PutUint16(b[6:8], 0)
	return UDPHeaderLen
}

// ICMPv4 is a decoded ICMPv4 header.
type ICMPv4 struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	ID, Seq  uint16
}

// ICMP type values used by the tests and generator.
const (
	ICMPEchoReply   = 0
	ICMPEchoRequest = 8
)

// Decode parses the header from data and returns the payload.
func (ic *ICMPv4) Decode(data []byte) (payload []byte, err error) {
	if len(data) < ICMPHeaderLen {
		return nil, fmt.Errorf("icmp: %w: %d bytes", ErrTruncated, len(data))
	}
	ic.Type = data[0]
	ic.Code = data[1]
	ic.Checksum = binary.BigEndian.Uint16(data[2:4])
	ic.ID = binary.BigEndian.Uint16(data[4:6])
	ic.Seq = binary.BigEndian.Uint16(data[6:8])
	return data[ICMPHeaderLen:], nil
}

// Serialize writes the header into b with a zero checksum field (the builder
// computes it over header+payload) and returns bytes written.
func (ic *ICMPv4) Serialize(b []byte) int {
	b[0] = ic.Type
	b[1] = ic.Code
	b[2], b[3] = 0, 0
	binary.BigEndian.PutUint16(b[4:6], ic.ID)
	binary.BigEndian.PutUint16(b[6:8], ic.Seq)
	return ICMPHeaderLen
}

// Checksum computes the RFC 1071 Internet checksum of data.
func Checksum(data []byte) uint16 {
	var sum uint32
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// PseudoHeaderChecksum computes the transport checksum for an IPv4
// pseudo-header plus the given transport segment (header and payload with a
// zeroed checksum field).
func PseudoHeaderChecksum(src, dst IPv4Addr, proto IPProto, segment []byte) uint16 {
	var sum uint32
	sum += uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(len(segment))
	n := len(segment)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(segment[i])<<8 | uint32(segment[i+1])
	}
	if n%2 == 1 {
		sum += uint32(segment[n-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
