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

// Action is a firewall rule's disposition.
type Action uint8

// Actions.
const (
	ActionAllow Action = iota
	ActionDeny
)

// String names the action.
func (a Action) String() string {
	if a == ActionDeny {
		return "deny"
	}
	return "allow"
}

// Rule is a classic 5-tuple firewall rule with CIDR prefixes and port
// ranges. Zero-valued fields are wildcards (PrefixLen 0 matches everything;
// a port range of [0, 0] matches all ports when PortMax is 0).
type Rule struct {
	Priority               int // lower number = higher priority
	Proto                  packet.IPProto
	AnyProto               bool
	SrcIP                  packet.IPv4Addr
	SrcBits                uint8 // prefix length 0..32
	DstIP                  packet.IPv4Addr
	DstBits                uint8
	SrcPortMin, SrcPortMax uint16
	DstPortMin, DstPortMax uint16
	Action                 Action
}

// Matches reports whether the rule covers the flow key.
func (r Rule) Matches(k flow.Key) bool {
	if !r.AnyProto && r.Proto != k.Proto {
		return false
	}
	if !prefixMatch(r.SrcIP, r.SrcBits, k.SrcIP) {
		return false
	}
	if !prefixMatch(r.DstIP, r.DstBits, k.DstIP) {
		return false
	}
	if !portMatch(r.SrcPortMin, r.SrcPortMax, k.SrcPort) {
		return false
	}
	if !portMatch(r.DstPortMin, r.DstPortMax, k.DstPort) {
		return false
	}
	return true
}

func prefixMatch(net packet.IPv4Addr, bits uint8, ip packet.IPv4Addr) bool {
	if bits == 0 {
		return true
	}
	if bits > 32 {
		bits = 32
	}
	mask := ^uint32(0) << (32 - uint32(bits))
	return net.Uint32()&mask == ip.Uint32()&mask
}

func portMatch(lo, hi, p uint16) bool {
	if hi == 0 && lo == 0 {
		return true
	}
	return p >= lo && p <= hi
}

// Firewall is a stateful 5-tuple firewall: packets are matched against the
// prioritized rule table; established flows (previously allowed) short-cut
// the table via a connection cache, which is the migratable state.
type Firewall struct {
	base
	mu          sync.RWMutex
	rules       []Rule
	defaultDrop bool
	conns       *flow.Table
}

// NewFirewall builds a firewall with the given rule set. defaultDrop selects
// the policy for packets matching no rule. Rules are evaluated in priority
// order (stable for equal priorities).
func NewFirewall(name string, rules []Rule, defaultDrop bool) *Firewall {
	f := &Firewall{
		base:        newBase(name, device.TypeFirewall),
		defaultDrop: defaultDrop,
		conns:       flow.NewTable(0, 1<<16),
	}
	f.attach(f, true) // rule table under RWMutex, conn cache sharded
	f.setRules(rules)
	return f
}

func (f *Firewall) setRules(rules []Rule) {
	cp := make([]Rule, len(rules))
	copy(cp, rules)
	// Stable insertion sort by priority keeps equal-priority order.
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j].Priority < cp[j-1].Priority; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	f.mu.Lock()
	f.rules = cp
	f.mu.Unlock()
}

// Rules returns a copy of the active rule table in evaluation order.
func (f *Firewall) Rules() []Rule {
	f.mu.RLock()
	defer f.mu.RUnlock()
	cp := make([]Rule, len(f.rules))
	copy(cp, f.rules)
	return cp
}

// Process implements NF: allow/deny by connection cache, then rule table,
// then default policy. Non-IPv4 frames pass (the firewall is L3/L4).
func (f *Firewall) Process(ctx *Ctx) (Verdict, error) {
	rules, defaultDrop := f.policy()
	return f.account(f.decide(ctx, rules, defaultDrop), nil)
}

// ProcessBatch implements the batch fast path: the rule table is read once
// per burst instead of once per packet, and the four outcome counters are
// updated once per burst.
func (f *Firewall) ProcessBatch(ctxs []*Ctx) []Verdict {
	out := passAll(len(ctxs))
	rules, defaultDrop := f.policy()
	var dropped uint64
	for i, ctx := range ctxs {
		if f.decide(ctx, rules, defaultDrop) == VerdictDrop {
			out = setVerdict(out, i, VerdictDrop)
			dropped++
		}
	}
	f.accountN(uint64(len(ctxs))-dropped, dropped, 0)
	return out
}

// policy reads the rule table and default. setRules replaces the slice
// wholesale, so holding the header outside the lock is safe.
func (f *Firewall) policy() (rules []Rule, defaultDrop bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.rules, f.defaultDrop
}

// decide returns one packet's verdict. An established flow costs one walk
// of the connection cache; a new one is matched against rules and, when
// allowed, cached.
func (f *Firewall) decide(ctx *Ctx, rules []Rule, defaultDrop bool) Verdict {
	if !ctx.HasFlow {
		return VerdictPass
	}
	k := ctx.FlowKey.Canonical()
	if _, ok := f.conns.TouchIfPresent(k, len(ctx.Frame), ctx.Now); ok {
		return VerdictPass
	}
	verdict := VerdictPass
	if defaultDrop {
		verdict = VerdictDrop
	}
	for _, r := range rules {
		if r.Matches(ctx.FlowKey) {
			verdict = VerdictPass
			if r.Action == ActionDeny {
				verdict = VerdictDrop
			}
			break
		}
	}
	if verdict == VerdictPass {
		f.conns.Touch(k, len(ctx.Frame), ctx.Now)
	}
	return verdict
}

// ConnCount returns the number of cached established connections.
func (f *Firewall) ConnCount() int { return f.conns.Len() }

// firewallState is the gob-serialized migratable state.
type firewallState struct {
	Rules       []Rule
	DefaultDrop bool
	Conns       []flow.Entry
}

// Snapshot implements Stateful.
func (f *Firewall) Snapshot() ([]byte, error) {
	f.mu.RLock()
	st := firewallState{
		Rules:       append([]Rule(nil), f.rules...),
		DefaultDrop: f.defaultDrop,
		Conns:       f.conns.Snapshot(),
	}
	f.mu.RUnlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("firewall %s: snapshot: %w", f.name, err)
	}
	return buf.Bytes(), nil
}

// Restore implements Stateful.
func (f *Firewall) Restore(data []byte) error {
	var st firewallState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("firewall %s: restore: %w", f.name, err)
	}
	f.setRules(st.Rules)
	f.mu.Lock()
	f.defaultDrop = st.DefaultDrop
	f.mu.Unlock()
	f.conns.Restore(st.Conns)
	return nil
}

var (
	_ NF       = (*Firewall)(nil)
	_ Stateful = (*Firewall)(nil)
)
