package emul

// Chain-granular drain/freeze/handoff hooks: the dataplane side of a
// cross-server chain migration. The fleet tier (internal/fleet) composes
// them into the staged sequence
//
//	destination: FreezeChain            — rings buffer rerouted arrivals
//	(traffic rerouted to the destination server)
//	source:      QuiesceChain           — ingress closed, stragglers rejected
//	source:      DrainChain             — in-flight frames finish
//	source:      FreezeChain            — belt and braces: no burst anywhere
//	source:      SnapshotChain          — per-element placement + NF state
//	destination: RestoreChain           — state installed, placement replayed
//	destination: ThawChain              — buffered frames replay in FIFO order
//
// after which the source chain stays quiesced and frozen (parked: its
// meters stop, its demand disappears from the source server's telemetry)
// until a later handoff migrates the tenant back. Every hook is control
// plane: the only hot-path cost of the whole feature is one atomic load
// (quiesced) and one atomic add (inflight) per accepted frame.
//
// The hooks enforce their protocol — SnapshotChain and RestoreChain refuse
// elements that are not frozen, RestoreChain refuses a snapshot whose
// element names or types do not match — so a coordinator bug surfaces as
// an error, not silent frame corruption.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/nf"
)

// ChainSnapshot is the migratable image of one chain: per-element placement
// and serialized NF state, taken on a quiesced + drained + frozen source
// chain and installed on a frozen destination chain.
type ChainSnapshot struct {
	Chain    string
	Elements []ElementSnapshot
}

// StateBytes sums the serialized NF state across elements — the transfer
// size a cross-server migration ships.
func (s ChainSnapshot) StateBytes() int {
	n := 0
	for _, e := range s.Elements {
		n += len(e.State)
	}
	return n
}

// ElementSnapshot is one element's slice of a ChainSnapshot.
type ElementSnapshot struct {
	Name string
	Type string
	// Loc is the element's device placement at snapshot time; RestoreChain
	// replays it so the destination reproduces the source's border
	// positions, not the chain's initial layout.
	Loc device.Kind
	// State is the NF's serialized dynamic state; nil for a stateless NF.
	State []byte
}

// findChain resolves a chain index with the started/closed/range checks
// every handoff hook shares. Callers hold closeMu.RLock.
func (r *Runtime) findChain(ci int) (*tenantChain, error) {
	if !r.started.Load() {
		return nil, errors.New("emul: not started")
	}
	if r.closed.Load() {
		return nil, errors.New("emul: closed")
	}
	if ci < 0 || ci >= len(r.chains) {
		return nil, fmt.Errorf("emul: no chain %d", ci)
	}
	return r.chains[ci], nil
}

// ChainIndex returns the index of the named hosted chain, or -1.
func (r *Runtime) ChainIndex(name string) int {
	for ci, tc := range r.chains {
		if tc.name == name {
			return ci
		}
	}
	return -1
}

// QuiesceChain closes a chain's ingress: subsequent SendChain calls report
// false without metering. In-flight frames keep forwarding — pair with
// DrainChain to empty the pipeline.
func (r *Runtime) QuiesceChain(ci int) error {
	r.closeMu.RLock()
	defer r.closeMu.RUnlock()
	tc, err := r.findChain(ci)
	if err != nil {
		return err
	}
	tc.quiesced.Store(true)
	return nil
}

// ResumeChain reopens a quiesced chain's ingress and unfreezes its
// elements — the abort path of a failed handoff, and the receive path when
// a tenant migrates back onto a parked chain.
func (r *Runtime) ResumeChain(ci int) error {
	r.closeMu.RLock()
	defer r.closeMu.RUnlock()
	tc, err := r.findChain(ci)
	if err != nil {
		return err
	}
	for _, el := range tc.elems {
		if el.paused.Load() {
			el.unfreeze()
		}
	}
	tc.quiesced.Store(false)
	return nil
}

// DrainChain blocks until every accepted frame of the chain has left the
// pipeline, or the timeout expires. The chain must be quiesced first (new
// arrivals would never let the count settle) and must not be frozen
// (frozen rings never drain). Other chains keep forwarding throughout.
// Once it returns nil the chain stays empty: a sender takes its ticket
// before it reads quiesced (see SendChain), so none can be admitted behind
// the zero this reads.
func (r *Runtime) DrainChain(ci int, timeout time.Duration) error {
	r.closeMu.RLock()
	tc, err := r.findChain(ci)
	r.closeMu.RUnlock()
	if err != nil {
		return err
	}
	if !tc.quiesced.Load() {
		return fmt.Errorf("emul: chain %q not quiesced; drain would race ingress", tc.name)
	}
	if !tc.awaitIdle(time.Now().Add(timeout)) {
		return fmt.Errorf("emul: chain %q drain timeout: %d frames in flight", tc.name, tc.inflight.Load())
	}
	return nil
}

// FreezeChain freezes every element of the chain, head to tail, via the
// same pause rendezvous a live migration uses: once it returns, no burst
// of any of the chain's elements is in flight anywhere, and each element's
// rings buffer whatever arrives. Other chains — including ones sharing the
// same pool workers — keep forwarding.
func (r *Runtime) FreezeChain(ci int) error {
	r.closeMu.RLock()
	defer r.closeMu.RUnlock()
	tc, err := r.findChain(ci)
	if err != nil {
		return err
	}
	for _, el := range tc.elems {
		el.migMu.Lock()
		el.freeze()
		el.migMu.Unlock()
	}
	return nil
}

// ThawChain resumes every element of a frozen chain and reopens its
// ingress, returning how many frames were waiting in the freeze buffers —
// FIFO consumption replays them in order, so a handoff that froze the
// destination before rerouting traffic loses nothing.
func (r *Runtime) ThawChain(ci int) (buffered int, err error) {
	r.closeMu.RLock()
	defer r.closeMu.RUnlock()
	tc, err := r.findChain(ci)
	if err != nil {
		return 0, err
	}
	for _, el := range tc.elems {
		for _, s := range el.shards {
			buffered += s.q.pending()
		}
	}
	for _, el := range tc.elems {
		el.migMu.Lock()
		el.unfreeze()
		el.migMu.Unlock()
	}
	tc.quiesced.Store(false)
	return buffered, nil
}

// SnapshotChain captures a frozen chain's migratable image: every
// element's current placement and serialized NF state. It refuses a chain
// that is not fully frozen — on a live chain the instances could be mid-
// ProcessBatch on another worker.
func (r *Runtime) SnapshotChain(ci int) (ChainSnapshot, error) {
	r.closeMu.RLock()
	defer r.closeMu.RUnlock()
	tc, err := r.findChain(ci)
	if err != nil {
		return ChainSnapshot{}, err
	}
	snap := ChainSnapshot{Chain: tc.name, Elements: make([]ElementSnapshot, 0, len(tc.elems))}
	for _, el := range tc.elems {
		el.migMu.Lock()
		if !el.paused.Load() {
			el.migMu.Unlock()
			return ChainSnapshot{}, fmt.Errorf("emul: chain %q element %q not frozen; snapshot would race the dataplane", tc.name, el.name)
		}
		es := ElementSnapshot{Name: el.name, Type: el.typ, Loc: device.Kind(el.loc.Load())}
		if st, ok := (*el.inst.Load()).(nf.Stateful); ok {
			blob, err := st.Snapshot()
			if err != nil {
				el.migMu.Unlock()
				return ChainSnapshot{}, fmt.Errorf("emul: snapshot %q: %w", el.name, err)
			}
			es.State = blob
		}
		el.migMu.Unlock()
		snap.Elements = append(snap.Elements, es)
	}
	return snap, nil
}

// RestoreChain installs a snapshot into the chain: fresh NF instances
// restored from the shipped state, and the snapshot's placements replayed
// element by element (with the telemetry epoch cut and gate re-attachment
// a local migration performs). The chain must be frozen — FreezeChain
// first, ThawChain after — and must structurally match the snapshot
// (same element names and types in order). Returns the installed state
// size in bytes.
func (r *Runtime) RestoreChain(ci int, snap ChainSnapshot) (stateBytes int, err error) {
	r.closeMu.RLock()
	defer r.closeMu.RUnlock()
	tc, err := r.findChain(ci)
	if err != nil {
		return 0, err
	}
	if len(snap.Elements) != len(tc.elems) {
		return 0, fmt.Errorf("emul: snapshot of %q has %d elements; chain %q has %d",
			snap.Chain, len(snap.Elements), tc.name, len(tc.elems))
	}
	for i, el := range tc.elems {
		es := snap.Elements[i]
		if es.Name != el.name || es.Type != el.typ {
			return 0, fmt.Errorf("emul: snapshot element %d is %s/%s; chain %q hosts %s/%s",
				i, es.Name, es.Type, tc.name, el.name, el.typ)
		}
	}
	for i, el := range tc.elems {
		es := snap.Elements[i]
		el.migMu.Lock()
		if !el.paused.Load() {
			el.migMu.Unlock()
			return stateBytes, fmt.Errorf("emul: chain %q element %q not frozen; restore would race the dataplane", tc.name, el.name)
		}
		if err := el.restoreFrom(es); err != nil {
			el.migMu.Unlock()
			return stateBytes, err
		}
		stateBytes += len(es.State)
		el.migMu.Unlock()
	}
	return stateBytes, nil
}

// restoreFrom installs one element's snapshot slice: a fresh instance
// restored from the shipped state replaces the current one, and the
// element re-places onto the snapshot's device. Callers hold el.migMu with
// the element frozen.
func (el *element) restoreFrom(es ElementSnapshot) error {
	r := el.parent
	fresh, err := nf.New(el.name, el.typ)
	if err != nil {
		return err
	}
	if es.State != nil {
		st, ok := fresh.(nf.Stateful)
		if !ok {
			return fmt.Errorf("emul: element %q carries state but NF type %q is stateless", el.name, el.typ)
		}
		if err := st.Restore(es.State); err != nil {
			return fmt.Errorf("emul: restore %q: %w", el.name, err)
		}
	}
	// Frozen: no ProcessBatch call is in flight anywhere, so the swap is a
	// plain publish (same argument as doMigrate).
	el.inst.Store(&fresh)
	from := device.Kind(el.loc.Load())
	if from == es.Loc {
		return nil
	}
	rate, err := r.cfg.Catalog.Lookup(el.typ, es.Loc)
	if err != nil {
		return err
	}
	gate, err := r.gateFor(es.Loc)
	if err != nil {
		return err
	}
	// Cut the telemetry attribution before the placement flips, exactly as
	// a local migration does: anything this element served so far was on
	// the old device.
	el.epochMu.Lock()
	el.epochs = append(el.epochs, locEpoch{
		loc:          from,
		bytes:        el.meter.Bytes(),
		pkts:         el.meter.Packets(),
		drops:        el.meter.Drops(),
		offeredBytes: el.offeredBytes.Load(),
		offeredPkts:  el.offeredPkts.Load(),
	})
	el.epochMu.Unlock()
	el.loc.Store(int32(es.Loc))
	el.place(gate, bytesPerSec(rate, r.cfg.Scale))
	return nil
}
