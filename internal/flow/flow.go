// Package flow provides flow identification for the NF dataplane: 5-tuple
// keys extracted from decoded packets, a symmetric non-cryptographic hash
// suitable for load balancing (both directions of a connection map to the
// same value, as in gopacket's FastHash), and the flow table used by the
// Monitor, Firewall and LoadBalancer NFs.
//
// The table is what a frame spends most of its NF time in — three touches
// on the Figure-1 chain — so a touch is one hash, one lock and one short
// probe: sixteen mutex stripes (the worker pool and control goroutines use
// a table at once), each an open-addressed array of {hash, pointer} slots,
// with lazy TTL expiry and constant-time sampled-LRU eviction at the
// table's bound. Table documents the design.
package flow

import (
	"fmt"

	"repro/internal/packet"
)

// Key is a canonical IPv4 5-tuple. It is comparable and therefore usable as
// a map key.
type Key struct {
	SrcIP   packet.IPv4Addr
	DstIP   packet.IPv4Addr
	SrcPort uint16
	DstPort uint16
	Proto   packet.IPProto
}

// String renders the key as "proto src:port>dst:port".
func (k Key) String() string {
	return fmt.Sprintf("%v %v:%d>%v:%d", k.Proto, k.SrcIP, k.SrcPort, k.DstIP, k.DstPort)
}

// Reverse returns the key for the opposite direction of the same flow.
func (k Key) Reverse() Key {
	return Key{
		SrcIP:   k.DstIP,
		DstIP:   k.SrcIP,
		SrcPort: k.DstPort,
		DstPort: k.SrcPort,
		Proto:   k.Proto,
	}
}

// Canonical returns the direction-independent form of the key: the
// (IP, port) endpoint pair is ordered so that both directions produce the
// same canonical key.
func (k Key) Canonical() Key {
	if less(k.DstIP, k.SrcIP) || (k.DstIP == k.SrcIP && k.DstPort < k.SrcPort) {
		return k.Reverse()
	}
	return k
}

func less(a, b packet.IPv4Addr) bool { return a.Uint32() < b.Uint32() }

// Fill sets k to the flow key of the most recent Decode of d and reports
// whether the packet has an IPv4 layer; without one k becomes the zero key.
// Non-TCP/UDP packets produce a key with zero ports. Writing the fields
// through the pointer puts the key where it will be read: returning the
// 13-byte struct by value assembles it on the stack a byte and a halfword at
// a time and reloads it in words, a store-forwarding stall per frame.
func (k *Key) Fill(d *packet.Decoder) bool {
	if !d.Has(packet.LayerIPv4) {
		*k = Key{}
		return false
	}
	k.SrcIP = d.IP4.Src
	k.DstIP = d.IP4.Dst
	k.Proto = d.IP4.Protocol
	k.SrcPort = d.SrcPort()
	k.DstPort = d.DstPort()
	return true
}

// FromDecoder returns the key Fill extracts from d.
func FromDecoder(d *packet.Decoder) (k Key, ok bool) {
	ok = k.Fill(d)
	return k, ok
}

// fnv-1a constants (64-bit).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvAddr(h uint64, a packet.IPv4Addr) uint64 {
	h = fnvByte(h, a[0])
	h = fnvByte(h, a[1])
	h = fnvByte(h, a[2])
	return fnvByte(h, a[3])
}

func fnvPort(h uint64, p uint16) uint64 {
	h = fnvByte(h, byte(p>>8))
	return fnvByte(h, byte(p))
}

// Hash returns a direction-sensitive FNV-1a hash of the key.
func (k Key) Hash() uint64 {
	h := uint64(fnvOffset)
	h = fnvAddr(h, k.SrcIP)
	h = fnvAddr(h, k.DstIP)
	h = fnvPort(h, k.SrcPort)
	h = fnvPort(h, k.DstPort)
	return fnvByte(h, byte(k.Proto))
}

// SymmetricHash returns a hash that is identical for both directions of a
// flow (A→B and B→A), the property load balancers need to keep a connection
// pinned to one backend. It hashes the canonical form.
func (k Key) SymmetricHash() uint64 {
	return k.Canonical().Hash()
}
