package packet

import (
	"fmt"
)

// LayerType identifies a protocol layer decoded by Decoder.
type LayerType uint8

// Layer types produced by Decoder.
const (
	LayerNone LayerType = iota
	LayerEthernet
	LayerIPv4
	LayerIPv6
	LayerTCP
	LayerUDP
	LayerICMPv4
	LayerPayload
)

// String names the layer type.
func (lt LayerType) String() string {
	switch lt {
	case LayerNone:
		return "None"
	case LayerEthernet:
		return "Ethernet"
	case LayerIPv4:
		return "IPv4"
	case LayerIPv6:
		return "IPv6"
	case LayerTCP:
		return "TCP"
	case LayerUDP:
		return "UDP"
	case LayerICMPv4:
		return "ICMPv4"
	case LayerPayload:
		return "Payload"
	default:
		return fmt.Sprintf("LayerType(%d)", uint8(lt))
	}
}

// Decoder decodes Ethernet/IPv4(6)/transport stacks into preallocated layer
// structs, in the style of gopacket's DecodingLayerParser: no allocation on
// the hot path, layers overwritten on each call. A Decoder is not safe for
// concurrent use; each dataplane worker owns one.
type Decoder struct {
	Eth     Ethernet
	IP4     IPv4
	IP6     IPv6
	TCP     TCP
	UDP     UDP
	ICMP    ICMPv4
	Payload []byte

	decoded []LayerType
	has     uint8 // bit lt is set when decoded holds lt
}

// NewDecoder returns a ready Decoder.
func NewDecoder() *Decoder {
	return &Decoder{decoded: make([]LayerType, 0, 4)}
}

// Decode parses data starting at the Ethernet layer. It returns the list of
// decoded layers (valid until the next call). Unknown or unsupported inner
// layers terminate decoding with the bytes exposed as Payload; that is not
// an error. Truncated or malformed headers return an error alongside the
// layers decoded so far.
func (d *Decoder) Decode(data []byte) ([]LayerType, error) {
	d.decoded, d.has = d.decoded[:0], 0
	d.Payload = nil

	rest, err := d.Eth.Decode(data)
	if err != nil {
		return d.decoded, err
	}
	d.add(LayerEthernet)

	var proto IPProto
	switch d.Eth.Type {
	case EtherTypeIPv4:
		rest, err = d.IP4.Decode(rest)
		if err != nil {
			return d.decoded, err
		}
		d.add(LayerIPv4)
		proto = d.IP4.Protocol
	case EtherTypeIPv6:
		rest, err = d.IP6.Decode(rest)
		if err != nil {
			return d.decoded, err
		}
		d.add(LayerIPv6)
		proto = d.IP6.NextHeader
	default:
		d.Payload = rest
		if len(rest) > 0 {
			d.add(LayerPayload)
		}
		return d.decoded, nil
	}

	switch proto {
	case ProtoTCP:
		rest, err = d.TCP.Decode(rest)
		if err != nil {
			return d.decoded, err
		}
		d.add(LayerTCP)
	case ProtoUDP:
		rest, err = d.UDP.Decode(rest)
		if err != nil {
			return d.decoded, err
		}
		d.add(LayerUDP)
	case ProtoICMP:
		rest, err = d.ICMP.Decode(rest)
		if err != nil {
			return d.decoded, err
		}
		d.add(LayerICMPv4)
	default:
		d.Payload = rest
		if len(rest) > 0 {
			d.add(LayerPayload)
		}
		return d.decoded, nil
	}

	d.Payload = rest
	if len(rest) > 0 {
		d.add(LayerPayload)
	}
	return d.decoded, nil
}

// add records lt in the returned list and in the bitmask Has reads.
func (d *Decoder) add(lt LayerType) {
	d.decoded = append(d.decoded, lt)
	d.has |= 1 << lt
}

// Has reports whether the last Decode produced the given layer.
func (d *Decoder) Has(lt LayerType) bool { return d.has&(1<<lt) != 0 }

// SrcPort returns the transport source port of the last decoded packet, or
// 0 when no transport layer was decoded.
func (d *Decoder) SrcPort() uint16 {
	if d.Has(LayerTCP) {
		return d.TCP.SrcPort
	}
	if d.Has(LayerUDP) {
		return d.UDP.SrcPort
	}
	return 0
}

// DstPort returns the transport destination port of the last decoded packet,
// or 0 when no transport layer was decoded.
func (d *Decoder) DstPort() uint16 {
	if d.Has(LayerTCP) {
		return d.TCP.DstPort
	}
	if d.Has(LayerUDP) {
		return d.UDP.DstPort
	}
	return 0
}
