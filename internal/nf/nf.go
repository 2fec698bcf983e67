// Package nf is the network-function framework of the reproduction: the NF
// interface real packets flow through in the execution emulator, the
// processing context with its pre-decoded layers, verdicts, per-NF
// statistics, and state snapshot/restore hooks consumed by the UNO-style
// migration mechanism (internal/migrate).
//
// Eight NFs are implemented: the paper's four (Firewall, Logger, Monitor,
// LoadBalancer) plus NAT, DPI, RateLimiter and IDS for wider chains. All are
// functionally real — the Firewall matches rules, the NAT rewrites headers
// and fixes checksums, the DPI scans payloads with Aho–Corasick — because
// migration must move real state between devices.
//
// The dataplane contract is batch-granular: the emulator hands each NF a
// burst of contexts via ProcessBatch, which every NF supports (the embedded
// base adapter falls back to per-packet Process; Firewall, Logger, Monitor,
// LoadBalancer and RateLimiter implement hand-written fast paths that
// amortize locking and accounting across the burst). The verdicts it returns
// are read-only and copy-on-drop: VerdictPass is the zero value, so a burst
// in which every frame passes — the steady state of every NF here — returns
// a window of one shared all-pass array and allocates nothing, and the first
// non-pass verdict of a burst moves that burst to a private slice (passAll,
// setVerdict).
//
// A context is decoded once per ring hop: frames the emulator carries
// run-to-completion into a successor keep their context, and an NF that
// rewrites header bytes (LoadBalancer, NAT) sets Ctx.Rewritten so exactly
// those frames are decoded again before the next NF sees them.
// ConcurrencySafe advertises whether an instance tolerates concurrent
// ProcessBatch calls from multiple worker shards — true for all built-in
// NFs, which lock internally — under the proviso that packets of one flow
// are never processed concurrently (the emulator guarantees this by
// flow-hash sharding).
package nf

import (
	"fmt"
	"time"

	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/packet"
)

// Verdict is an NF's decision for a packet.
type Verdict uint8

// Verdicts.
const (
	// VerdictPass forwards the packet to the next NF unchanged or modified
	// in place.
	VerdictPass Verdict = iota
	// VerdictDrop discards the packet (firewall deny, rate limit, IDS
	// block).
	VerdictDrop
)

// String names the verdict.
func (v Verdict) String() string {
	if v == VerdictDrop {
		return "drop"
	}
	return "pass"
}

// Ctx carries one packet through an NF. Frame is the mutable wire frame;
// Decoder holds its pre-decoded layers (decoded by the runtime once per
// ring hop and kept across run-to-completion hops); Now is virtual or
// wall-clock time; FlowKey is the extracted 5-tuple when IPv4. An NF that
// changes header bytes of Frame sets Rewritten: Decoder and FlowKey then
// describe the frame as it arrived, and the runtime decodes it again before
// the next NF.
type Ctx struct {
	Frame     []byte
	Decoder   *packet.Decoder
	Now       time.Duration
	FlowKey   flow.Key
	HasFlow   bool
	Rewritten bool
}

// NF is a network function instance. Process and ProcessBatch must be safe
// for concurrent calls only if ConcurrencySafe reports true; the emulator
// serializes calls onto a single worker otherwise. Implementations must not
// retain ctx (or its frame or decoder) beyond the call — the runtime reuses
// context and layer structs across bursts.
type NF interface {
	// Name returns the instance name (unique within a chain).
	Name() string
	// Type returns the catalog type name (device.Type*).
	Type() string
	// Process handles one packet and returns the verdict and an error for
	// malformed input the NF refuses to handle (counted, packet dropped).
	Process(ctx *Ctx) (Verdict, error)
	// ProcessBatch handles a burst of packets and returns one verdict per
	// context, in order. It is the hot path of the batched dataplane:
	// implementations amortize locks and counters across the burst where
	// they can, and fall back to per-packet Process (via the base adapter)
	// where they can't. The returned slice is read-only to the caller and
	// may be shared between calls: an all-pass burst is a window of one
	// package-level array, and only a burst with a non-pass verdict gets a
	// slice of its own.
	ProcessBatch(ctxs []*Ctx) []Verdict
	// ConcurrencySafe reports whether the instance tolerates concurrent
	// Process/ProcessBatch calls from multiple dataplane shards, provided
	// no two shards carry packets of the same flow (the emulator's
	// flow-hash sharding guarantees that). NFs return false unless they
	// opt in; the emulator then pins them to one worker.
	ConcurrencySafe() bool
	// Stats returns a snapshot of the NF's counters.
	Stats() Stats
}

// Stateful is implemented by NFs carrying migratable runtime state. The
// migration mechanism calls Snapshot on the source instance, transfers the
// bytes, and Restore on the destination instance.
type Stateful interface {
	NF
	// Snapshot serializes the NF's dynamic state.
	Snapshot() ([]byte, error)
	// Restore installs a snapshot taken from an instance of the same type.
	Restore(data []byte) error
}

// Stats counts an NF's packet outcomes.
type Stats struct {
	Processed uint64
	Passed    uint64
	Dropped   uint64
	Errors    uint64
}

// String renders the stats.
func (s Stats) String() string {
	return fmt.Sprintf("processed=%d passed=%d dropped=%d errors=%d",
		s.Processed, s.Passed, s.Dropped, s.Errors)
}

// base carries the bookkeeping shared by all NF implementations and adapts
// them to the batch contract: it supplies a correct (serial) ProcessBatch
// default and the ConcurrencySafe capability flag, so an NF only writes a
// batch fast path when one is worth having.
type base struct {
	name       string
	typ        string
	self       NF // the embedding NF, for the serial batch fallback
	concurrent bool
	processed  metrics.Counter
	passed     metrics.Counter
	dropped    metrics.Counter
	errors     metrics.Counter
}

func newBase(name, typ string) base { return base{name: name, typ: typ} }

// attach registers the embedding NF (so the default ProcessBatch can dispatch
// to its Process) and its concurrency capability. Every constructor calls
// it once before the instance escapes.
func (b *base) attach(self NF, concurrent bool) {
	b.self = self
	b.concurrent = concurrent
}

// Name implements NF.
func (b *base) Name() string { return b.name }

// Type implements NF.
func (b *base) Type() string { return b.typ }

// Stats implements NF.
func (b *base) Stats() Stats {
	return Stats{
		Processed: b.processed.Load(),
		Passed:    b.passed.Load(),
		Dropped:   b.dropped.Load(),
		Errors:    b.errors.Load(),
	}
}

// ProcessBatch implements NF with the serial fallback: one Process call per
// context. NFs with a profitable amortization (batched locking, batched
// accounting) shadow this method.
func (b *base) ProcessBatch(ctxs []*Ctx) []Verdict {
	out := passAll(len(ctxs))
	for i, ctx := range ctxs {
		v, _ := b.self.Process(ctx)
		out = setVerdict(out, i, v)
	}
	return out
}

// allPass backs the verdicts of every burst in which all frames pass.
// Nothing writes to it: setVerdict copies before the first write, and
// callers of ProcessBatch only read.
var allPass [256]Verdict

// passAll returns n pass verdicts: a window of allPass, capped so an append
// cannot reach the shared array either, or a private slice for a burst
// longer than it.
func passAll(n int) []Verdict {
	if n > len(allPass) {
		return make([]Verdict, n)
	}
	return allPass[:n:n]
}

// setVerdict records v for packet i of a burst whose verdicts began as
// passAll. Pass is what the slice already says; the first other verdict
// moves the burst off the shared array — every entry so far is pass, so the
// copy is a fresh zeroed slice.
func setVerdict(out []Verdict, i int, v Verdict) []Verdict {
	if v == VerdictPass {
		return out
	}
	if &out[0] == &allPass[0] {
		out = make([]Verdict, len(out))
	}
	out[i] = v
	return out
}

// ConcurrencySafe implements NF. The default is false — a new NF must opt
// in (via attach) after auditing its locking.
func (b *base) ConcurrencySafe() bool { return b.concurrent }

// account records the outcome of one Process call.
func (b *base) account(v Verdict, err error) (Verdict, error) {
	b.processed.Inc()
	if err != nil {
		b.errors.Inc()
		return VerdictDrop, err
	}
	if v == VerdictDrop {
		b.dropped.Inc()
	} else {
		b.passed.Inc()
	}
	return v, nil
}

// accountN records the aggregate outcome of one batch in four atomic adds,
// the batched counterpart of account used by the ProcessBatch fast paths.
func (b *base) accountN(passed, dropped, errs uint64) {
	b.processed.Add(passed + dropped + errs)
	b.passed.Add(passed)
	b.dropped.Add(dropped)
	b.errors.Add(errs)
}
