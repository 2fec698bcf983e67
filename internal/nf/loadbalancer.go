package nf

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/packet"
)

// Backend is a load-balancer target.
type Backend struct {
	IP     packet.IPv4Addr
	Weight int // ≥1; relative share of new flows
}

// LoadBalancer is an L4 load balancer: new flows are assigned to a backend
// by weighted rendezvous hashing on the symmetric flow hash (so both
// directions stick), the destination IP is rewritten and checksums fixed.
// The flow→backend binding table is the migratable state — exactly the kind
// of state OpenNF/UNO-style migration must move without loss.
type LoadBalancer struct {
	base
	mu       sync.RWMutex
	backends []Backend
	bindings *flow.Table
	rewrites metrics.Counter
}

// NewLoadBalancer builds a load balancer over the given backends (at least
// one; weights below 1 are raised to 1).
func NewLoadBalancer(name string, backends []Backend) (*LoadBalancer, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("loadbalancer %s: no backends", name)
	}
	cp := make([]Backend, len(backends))
	copy(cp, backends)
	for i := range cp {
		if cp[i].Weight < 1 {
			cp[i].Weight = 1
		}
	}
	lb := &LoadBalancer{
		base:     newBase(name, device.TypeLoadBalancer),
		backends: cp,
		bindings: flow.NewTable(0, 1<<16),
	}
	// Binding entries are only mutated by the shard owning the flow.
	lb.attach(lb, true)
	return lb, nil
}

// Backends returns a copy of the backend set.
func (lb *LoadBalancer) Backends() []Backend {
	lb.mu.RLock()
	defer lb.mu.RUnlock()
	cp := make([]Backend, len(lb.backends))
	copy(cp, lb.backends)
	return cp
}

// Process implements NF: bind the flow to a backend (existing binding wins),
// rewrite the destination IP, and fix checksums.
func (lb *LoadBalancer) Process(ctx *Ctx) (Verdict, error) {
	rewrote, err := lb.forward(ctx)
	if rewrote {
		lb.rewrites.Inc()
	}
	return lb.account(VerdictPass, err)
}

// ProcessBatch implements the batch fast path: the rewrite and outcome
// counters are updated once per burst; the binding touch and the rewrite
// stay per-packet.
func (lb *LoadBalancer) ProcessBatch(ctxs []*Ctx) []Verdict {
	out := passAll(len(ctxs))
	var rewrites, errs uint64
	for i, ctx := range ctxs {
		rewrote, err := lb.forward(ctx)
		if err != nil {
			out = setVerdict(out, i, VerdictDrop)
			errs++
		} else if rewrote {
			rewrites++
		}
	}
	lb.rewrites.Add(rewrites)
	lb.accountN(uint64(len(ctxs))-errs, 0, errs)
	return out
}

// forward steers one packet: an established flow costs one walk of the
// binding table, a new one a pick and an insert. Non-IPv4 passes untouched
// (rewrote false); a frame the rewriter refuses is returned unmodified with
// the error.
func (lb *LoadBalancer) forward(ctx *Ctx) (rewrote bool, err error) {
	if !ctx.HasFlow {
		return false, nil
	}
	rw, err := packet.NewRewriter(ctx.Frame)
	if err != nil {
		return false, fmt.Errorf("loadbalancer %s: %w", lb.name, err)
	}
	key := ctx.FlowKey.Canonical()
	e, ok := lb.bindings.TouchIfPresent(key, len(ctx.Frame), ctx.Now)
	if !ok {
		e = lb.bindings.Touch(key, len(ctx.Frame), ctx.Now)
		e.Value = lb.pick(key)
	}
	rw.SetDstIP(e.Value.(packet.IPv4Addr))
	ctx.Rewritten = true
	return true, nil
}

// pick selects a backend by weighted rendezvous hashing: deterministic for
// a key regardless of backend order, stable under backend addition/removal
// except for the moved share.
func (lb *LoadBalancer) pick(key flow.Key) packet.IPv4Addr {
	lb.mu.RLock()
	defer lb.mu.RUnlock()
	h := key.SymmetricHash()
	var best uint64
	var bestIP packet.IPv4Addr
	for _, b := range lb.backends {
		score := mix(h ^ uint64(b.IP.Uint32()))
		// Weighted rendezvous: replicate weight times with distinct salts.
		for w := 0; w < b.Weight; w++ {
			s := mix(score + uint64(w)*0x9e3779b97f4a7c15)
			if s > best {
				best, bestIP = s, b.IP
			}
		}
	}
	return bestIP
}

// mix is a 64-bit finalizer (splitmix64's avalanche).
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// lbBinding is the serializable flow→backend pair.
type lbBinding struct {
	Entry flow.Entry
	IP    packet.IPv4Addr
}

type lbState struct {
	Backends []Backend
	Bindings []lbBinding
}

// Snapshot implements Stateful.
func (lb *LoadBalancer) Snapshot() ([]byte, error) {
	st := lbState{Backends: lb.Backends()}
	for _, e := range lb.bindings.Snapshot() {
		ip, _ := e.Value.(packet.IPv4Addr)
		e.Value = nil
		st.Bindings = append(st.Bindings, lbBinding{Entry: e, IP: ip})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("loadbalancer %s: snapshot: %w", lb.name, err)
	}
	return buf.Bytes(), nil
}

// Restore implements Stateful.
func (lb *LoadBalancer) Restore(data []byte) error {
	var st lbState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("loadbalancer %s: restore: %w", lb.name, err)
	}
	lb.mu.Lock()
	lb.backends = st.Backends
	lb.mu.Unlock()
	entries := make([]flow.Entry, len(st.Bindings))
	for i, b := range st.Bindings {
		entries[i] = b.Entry
		entries[i].Value = b.IP
	}
	lb.bindings.Restore(entries)
	return nil
}

var (
	_ NF       = (*LoadBalancer)(nil)
	_ Stateful = (*LoadBalancer)(nil)
)
