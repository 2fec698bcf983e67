package nf

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/flow"
	"repro/internal/packet"
)

// NAT is a source-NAT: outbound flows are rewritten to the external IP with
// an allocated external port; the binding table (flow → external port) is
// the migratable state. Port allocation is deterministic round-robin over
// the configured range so migrated instances continue the sequence.
type NAT struct {
	base
	externalIP packet.IPv4Addr
	portMin    uint16
	portMax    uint16

	mu       sync.Mutex
	nextPort uint16
	bindings map[flow.Key]uint16
	inUse    map[uint16]bool
}

// NewNAT builds a source-NAT translating to externalIP with ports from
// [portMin, portMax].
func NewNAT(name string, externalIP packet.IPv4Addr, portMin, portMax uint16) (*NAT, error) {
	if portMax < portMin {
		return nil, fmt.Errorf("nat %s: empty port range [%d,%d]", name, portMin, portMax)
	}
	n := &NAT{
		base:       newBase(name, device.TypeNAT),
		externalIP: externalIP,
		portMin:    portMin,
		portMax:    portMax,
		nextPort:   portMin,
		bindings:   make(map[flow.Key]uint16),
		inUse:      make(map[uint16]bool),
	}
	n.attach(n, true) // binding allocation under one mutex
	return n, nil
}

// Process implements NF: allocate or reuse a binding, rewrite source
// IP/port, fix checksums. Non-TCP/UDP IPv4 passes with only the IP
// rewritten; non-IPv4 passes untouched. A frame the rewriter refuses is
// dropped unmodified and takes no binding.
func (n *NAT) Process(ctx *Ctx) (Verdict, error) {
	if !ctx.HasFlow {
		return n.account(VerdictPass, nil)
	}
	rw, err := packet.NewRewriter(ctx.Frame)
	hasPorts := ctx.FlowKey.Proto == packet.ProtoTCP || ctx.FlowKey.Proto == packet.ProtoUDP
	if err == nil && hasPorts && !rw.HasPorts() {
		err = fmt.Errorf("rewrite: %w: flow key is %v, frame is not", packet.ErrUnsupported, ctx.FlowKey.Proto)
	}
	if err != nil {
		return n.account(VerdictDrop, fmt.Errorf("nat %s: %w", n.name, err))
	}
	if hasPorts {
		port, err := n.bind(ctx.FlowKey)
		if err != nil {
			return n.account(VerdictDrop, err)
		}
		rw.SetSrcPort(port)
	}
	rw.SetSrcIP(n.externalIP)
	ctx.Rewritten = true
	return n.account(VerdictPass, nil)
}

// bind returns the flow's external port, allocating one if new.
func (n *NAT) bind(k flow.Key) (uint16, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.bindings[k]; ok {
		return p, nil
	}
	span := int(n.portMax-n.portMin) + 1
	for tries := 0; tries < span; tries++ {
		p := n.nextPort
		n.nextPort++
		if n.nextPort > n.portMax || n.nextPort < n.portMin {
			n.nextPort = n.portMin
		}
		if !n.inUse[p] {
			n.inUse[p] = true
			n.bindings[k] = p
			return p, nil
		}
	}
	return 0, fmt.Errorf("nat %s: port range exhausted", n.name)
}

// Bindings returns a copy of the active flow→port map.
func (n *NAT) Bindings() map[flow.Key]uint16 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[flow.Key]uint16, len(n.bindings))
	for k, v := range n.bindings {
		out[k] = v
	}
	return out
}

type natState struct {
	ExternalIP packet.IPv4Addr
	PortMin    uint16
	PortMax    uint16
	NextPort   uint16
	Bindings   map[flow.Key]uint16
}

// Snapshot implements Stateful.
func (n *NAT) Snapshot() ([]byte, error) {
	n.mu.Lock()
	st := natState{
		ExternalIP: n.externalIP,
		PortMin:    n.portMin,
		PortMax:    n.portMax,
		NextPort:   n.nextPort,
		Bindings:   make(map[flow.Key]uint16, len(n.bindings)),
	}
	for k, v := range n.bindings {
		st.Bindings[k] = v
	}
	n.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("nat %s: snapshot: %w", n.name, err)
	}
	return buf.Bytes(), nil
}

// Restore implements Stateful.
func (n *NAT) Restore(data []byte) error {
	var st natState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("nat %s: restore: %w", n.name, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.externalIP = st.ExternalIP
	n.portMin, n.portMax = st.PortMin, st.PortMax
	n.nextPort = st.NextPort
	n.bindings = st.Bindings
	if n.bindings == nil {
		n.bindings = make(map[flow.Key]uint16)
	}
	n.inUse = make(map[uint16]bool, len(n.bindings))
	for _, p := range n.bindings {
		n.inUse[p] = true
	}
	return nil
}

var (
	_ NF       = (*NAT)(nil)
	_ Stateful = (*NAT)(nil)
)
