package packet

import (
	"encoding/binary"
	"fmt"
)

// UpdateChecksum returns the Internet checksum hc of some data after the
// bytes from in it were overwritten with to, without re-summing the data:
// RFC 1624 eq. 3, HC' = ~(~HC + ~m + m'), applied to each 16-bit word. from
// and to have the same even length and sit at an even offset of the summed
// data. An hc that was wrong stays wrong by the same amount.
func UpdateChecksum(hc uint16, from, to []byte) uint16 {
	sum := uint32(^hc)
	for i := 0; i+1 < len(from); i += 2 {
		sum += uint32(^(uint16(from[i])<<8 | uint16(from[i+1])))
		sum += uint32(to[i])<<8 | uint32(to[i+1])
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Checksum field offsets within the TCP and UDP headers.
const (
	tcpChecksumOff = 16
	udpChecksumOff = 6
)

// Rewriter rewrites the addresses and the source port of one Ethernet/IPv4
// frame in place, patching the IPv4 header checksum and the TCP or UDP
// checksum (whose pseudo-header covers the addresses) incrementally with
// UpdateChecksum. NewRewriter validates the frame, so the setters cannot
// fail and a refused frame is never half-written.
type Rewriter struct {
	ip  []byte // the IPv4 header and everything after it
	seg []byte // the TCP or UDP segment; nil for any other protocol
	ck  int    // offset of the checksum field in seg
}

// NewRewriter validates frame as Ethernet/IPv4 with a whole header and, for
// TCP and UDP, a whole transport header. Other protocols are accepted and
// get only the IPv4 header checksum maintained.
func NewRewriter(frame []byte) (Rewriter, error) {
	if len(frame) < EthernetHeaderLen+IPv4MinHeaderLen {
		return Rewriter{}, fmt.Errorf("rewrite: %w", ErrTruncated)
	}
	if EtherType(binary.BigEndian.Uint16(frame[12:14])) != EtherTypeIPv4 {
		return Rewriter{}, fmt.Errorf("rewrite: %w: not IPv4", ErrUnsupported)
	}
	ipb := frame[EthernetHeaderLen:]
	hlen := int(ipb[0]&0x0f) * 4
	if hlen < IPv4MinHeaderLen || hlen > len(ipb) {
		return Rewriter{}, fmt.Errorf("rewrite: %w: bad IHL", ErrBadHeader)
	}
	totalLen := int(binary.BigEndian.Uint16(ipb[2:4]))
	if totalLen < hlen || totalLen > len(ipb) {
		totalLen = len(ipb) // padded or trimmed frame, as Decode tolerates
	}
	rw := Rewriter{ip: ipb}
	seg := ipb[hlen:totalLen]
	switch IPProto(ipb[9]) {
	case ProtoTCP:
		if len(seg) < TCPMinHeaderLen {
			return Rewriter{}, fmt.Errorf("rewrite: %w: short tcp", ErrTruncated)
		}
		rw.seg, rw.ck = seg, tcpChecksumOff
	case ProtoUDP:
		if len(seg) < UDPHeaderLen {
			return Rewriter{}, fmt.Errorf("rewrite: %w: short udp", ErrTruncated)
		}
		rw.seg, rw.ck = seg, udpChecksumOff
	}
	return rw, nil
}

// HasPorts reports whether the frame carries a TCP or UDP header.
func (rw Rewriter) HasPorts() bool { return rw.seg != nil }

// SetSrcIP overwrites the IPv4 source address.
func (rw Rewriter) SetSrcIP(a IPv4Addr) { rw.setAddr(12, a) }

// SetDstIP overwrites the IPv4 destination address.
func (rw Rewriter) SetDstIP(a IPv4Addr) { rw.setAddr(16, a) }

// SetSrcPort overwrites the TCP or UDP source port; HasPorts must be true.
func (rw Rewriter) SetSrcPort(p uint16) {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], p)
	rw.patchTransport(rw.seg[0:2], b[:])
	copy(rw.seg[0:2], b[:])
}

func (rw Rewriter) setAddr(off int, a IPv4Addr) {
	old, ck := rw.ip[off:off+4], rw.ip[10:12]
	binary.BigEndian.PutUint16(ck, UpdateChecksum(binary.BigEndian.Uint16(ck), old, a[:]))
	rw.patchTransport(old, a[:])
	copy(old, a[:])
}

// patchTransport updates the TCP or UDP checksum for from becoming to in the
// segment or its pseudo-header. A UDP checksum of zero means the sender
// computed none and stays zero (RFC 768, RFC 3022 §4.1); a computed zero is
// sent as all ones.
func (rw Rewriter) patchTransport(from, to []byte) {
	if rw.seg == nil {
		return
	}
	ck := rw.seg[rw.ck : rw.ck+2]
	hc := binary.BigEndian.Uint16(ck)
	udp := rw.ck == udpChecksumOff
	if udp && hc == 0 {
		return
	}
	if hc = UpdateChecksum(hc, from, to); udp && hc == 0 {
		hc = 0xffff
	}
	binary.BigEndian.PutUint16(ck, hc)
}
