// Package fleet is the cross-server tier above the per-server control
// loop: a Coordinator owning the tenant→server placement registry and one
// Agent per server, each wrapping an orchestrator.Live / emul.Runtime pair
// as the leaf.
//
// The per-server loop handles overload by pushing border vNFs across its
// own SmartNIC↔CPU boundary (the paper's PAM). When that search hits the
// paper's terminal case — both devices hot, no feasible Multi-PAM plan —
// the loop no longer dead-ends: it reports a structured core.Escalation
// upward, and the coordinator relieves the server by migrating the
// offending tenant's whole chain to a calm server. That is the paper's
// "scale out" arrow, mechanized: push your neighbor aside first; when
// every neighbor on the box is hot too, push the tenant to the next box.
//
// Cross-server chain migration is staged (prepare → detach → commit →
// finalize) over a Transport, with the destination's pre-provisioned chain
// frozen before traffic reroutes so rerouted frames buffer and replay
// instead of dropping, and the source's chain quiesced, drained and
// snapshot under a suspended local loop. All coordinator↔agent
// communication crosses the Transport boundary; the in-process
// ChanTransport keeps the whole fleet in one test binary, -race clean.
package fleet

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/emul"
)

// ServerID names one server (one Agent / runtime pair) in the fleet.
type ServerID string

// Escalation is a server-level scale-out report: the per-server loop's
// structured terminal-case verdict, stamped with the reporting server and
// the per-tenant load breakdown the coordinator ranks offenders by.
type Escalation struct {
	Server ServerID
	Core   core.Escalation
	// Chains is the escalating window's per-tenant breakdown (demand per
	// device, delivered, loss), copied from the server's last load sample.
	Chains []emul.ChainLoad
}

func (e Escalation) String() string {
	return fmt.Sprintf("server %s: %v", e.Server, e.Core)
}

// Migration records one executed cross-server chain migration.
type Migration struct {
	Tenant string
	From   ServerID
	To     ServerID
	// Reason is the escalation verdict that triggered the move; zero-valued
	// for rebalance-driven moves.
	Reason core.EscalationReason
	// StateBytes is the serialized NF state shipped source→destination.
	StateBytes int
	// Buffered counts frames that arrived at the destination during the
	// freeze window and replayed after the thaw.
	Buffered int
	// Took is the wall-clock span of the staged sequence (prepare→finalize).
	Took time.Duration
}

func (m Migration) String() string {
	return fmt.Sprintf("%s: %s -> %s (%d state bytes, %d replayed, %v)",
		m.Tenant, m.From, m.To, m.StateBytes, m.Buffered, m.Took)
}
