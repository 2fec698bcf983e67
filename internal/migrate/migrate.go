// Package migrate implements the vNF migration mechanism PAM assumes — the
// paper adopts "the NF migration mechanism between SmartNIC and CPU
// introduced in [4] (UNO)", which is itself an OpenNF-style loss-free move:
//
//  1. Freeze — the source instance stops accepting packets; arrivals are
//     buffered.
//  2. Snapshot — the source's dynamic state is serialized (nf.Stateful).
//  3. Transfer — the snapshot crosses the PCIe link (cost modelled from its
//     size and the link parameters).
//  4. Restore — a destination instance of the same type installs the state.
//  5. Replay — buffered packets are re-injected at the destination, then
//     live traffic resumes.
//
// The package provides the state mover and the transfer-cost model; the
// execution emulator's live migration drives them. The freeze buffer is
// the frozen element's own input rings: frames queue there during the move
// and drain at the destination.
package migrate

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/nf"
	"repro/internal/pcie"
)

// ErrTypeMismatch reports source/destination of different catalog types.
var ErrTypeMismatch = errors.New("migrate: source and destination types differ")

// PCIeTransport moves snapshots across the NIC↔CPU PCIe link, paying the
// link's propagation latency once per direction plus serialization at the
// link bandwidth, and a fixed control-plane setup cost (UNO reports
// millisecond-scale moves).
type PCIeTransport struct {
	Link  pcie.Link
	Setup time.Duration // control-plane handshake; negative values clamp to 0
}

// TransferTime returns how long moving n bytes takes.
func (t PCIeTransport) TransferTime(n int) time.Duration {
	d := t.Setup
	if d < 0 {
		d = 0
	}
	return d + t.Link.PropDelay + t.Link.SerializationTime(n)
}

// Report describes one completed migration.
type Report struct {
	Element    string
	StateBytes int
	Transfer   time.Duration // snapshot transfer time (downtime component)
	Buffered   int           // packets buffered during the freeze
	Replayed   int           // packets replayed at the destination
	Stateless  bool          // true when the NF carries no migratable state
}

// String renders the report.
func (r Report) String() string {
	return fmt.Sprintf("migrated %s: state=%dB transfer=%v buffered=%d replayed=%d",
		r.Element, r.StateBytes, r.Transfer, r.Buffered, r.Replayed)
}

// Move transfers dynamic state from src to dst (same catalog type). When the
// type is stateless (does not implement nf.Stateful) the move is just the
// control-plane handshake. The returned report carries the modelled transfer
// time; the caller applies it as downtime.
func Move(src, dst nf.NF, tr PCIeTransport) (Report, error) {
	if src.Type() != dst.Type() {
		return Report{}, fmt.Errorf("%w: %s vs %s", ErrTypeMismatch, src.Type(), dst.Type())
	}
	rep := Report{Element: src.Name()}
	ssrc, okS := src.(nf.Stateful)
	sdst, okD := dst.(nf.Stateful)
	if !okS || !okD {
		rep.Stateless = true
		rep.Transfer = tr.TransferTime(0)
		return rep, nil
	}
	blob, err := ssrc.Snapshot()
	if err != nil {
		return Report{}, fmt.Errorf("migrate %s: %w", src.Name(), err)
	}
	rep.StateBytes = len(blob)
	rep.Transfer = tr.TransferTime(len(blob))
	if err := sdst.Restore(blob); err != nil {
		return Report{}, fmt.Errorf("migrate %s: %w", src.Name(), err)
	}
	return rep, nil
}
