package scenario

// The live dataplane under every scenario spec: the calibrated emulator and
// control-loop parameters (DESIGN.md §4), and the one emul.Config literal
// every runtime — a spec's servers and the benchmark's Figure-1 runtime —
// is built from.

import (
	"time"

	"repro/internal/chain"
	"repro/internal/device"
	"repro/internal/emul"
	"repro/internal/pcie"
	"repro/internal/telemetry"
)

// LiveParams parameterizes the wall-clock closed loop. Rates everywhere are
// in catalog (Table-1) units; Scale maps them onto what a development
// machine can actually push. The defaults named below are
// DefaultLiveParams' values; start from it.
type LiveParams struct {
	// Scale divides catalog rates (and multiplies measurements back) so the
	// emulated devices saturate at development-machine rates. Default 1000.
	Scale float64
	// BatchSize and Workers configure the burst dataplane (defaults 8, 2).
	// The default batch is smaller than the emulator's usual 32: a burst is
	// admitted through the shared device gate in one transaction at a cost
	// of bytes/rate device-seconds, so at Scale 1000 a Logger burst of
	// 8×512 B already occupies the NIC for ~16 ms — larger batches stall
	// every co-resident element for tens of milliseconds per burst and blur
	// the 25 ms sampling windows (DESIGN.md §4).
	//
	// A runtime hosting more chains than Workers gets one worker per chain:
	// the run-to-completion pool assigns a chain's elements to worker
	// chainIdx%Workers, and a worker that blocks inside a saturated gate's
	// FIFO carries every ring it owns with it. With one worker per chain
	// the only cross-tenant coupling is the gate itself — exactly the
	// physics the collapse assertions are calibrated against (DESIGN.md §5).
	BatchSize int
	Workers   int
	// QueueDepth bounds each element's input queue (default 128 — shallow
	// enough that overload surfaces as loss within a few windows).
	QueueDepth int
	// FrameSize is the synthesized frame size in bytes of a tenant that
	// names none (default 512).
	FrameSize int
	// Flows spreads each tenant's traffic across this many synthetic flows
	// (default 32), exercising the flow-hash sharding of the dataplane.
	Flows int
	// PollEvery is the control loop's sampling period (default 25 ms).
	PollEvery time.Duration
	// Detector tunes overload detection. The default is Consecutive 3 and
	// Alpha 0.5: fast enough to catch a ramp within ~3 windows, smoothed
	// enough that the measured θcur at decision time is meaningful.
	Detector telemetry.DetectorConfig
	// Cooldown suppresses plans after a migration (0 selects the loop's
	// 2×PollEvery).
	Cooldown time.Duration
}

// LiveOverloadGbps is the live hotspot schedule's overload rate (provenance
// in DESIGN.md §5). It must sit between the shared-NIC saturation of the
// Figure-1 placement (≈1.096 Gbps: under the per-device capacity gate the
// whole chain collapses there, not at the Logger's private 2 Gbps) and the
// rate whose offered demand would overload the CPU as well — the LB's
// θC = 4 before the push, the LB+Logger's combined 1/(1/4+1/4) = 2 Gbps
// after it. At 1.8 Gbps the NIC's measured demand reaches ≈1.4 while the
// CPU stays ≤ 0.9 before and after the migration, so the episode detects,
// relieves and settles cleanly. (Not Params.OverloadGbps: with the
// emulator's shared device gates the DES overload rate of 4 Gbps would
// demand-overload the CPU too, turning the episode into the paper's
// scale-out terminal case.)
const LiveOverloadGbps = 1.8

// DefaultLiveParams returns the calibrated live-loop defaults (DESIGN.md §4).
func DefaultLiveParams() LiveParams {
	return LiveParams{
		Scale:      1000,
		BatchSize:  8,
		Workers:    2,
		QueueDepth: 128,
		FrameSize:  512,
		Flows:      32,
		PollEvery:  25 * time.Millisecond,
		Detector:   telemetry.DetectorConfig{Consecutive: 3, Alpha: 0.5},
	}
}

// LiveRuntime builds the Figure-1 chain on the batched emulator under the
// live parameters.
func LiveRuntime(p Params, lp LiveParams) (*emul.Runtime, error) {
	return newRuntime(p, lp, []*chain.Chain{Figure1Chain()}, p.PCIeBandwidthGbps)
}

// newRuntime builds one emulated server hosting the chains. linkGbps is the
// PCIe link's effective bandwidth — the shared DMA engine's budget.
func newRuntime(p Params, lp LiveParams, chains []*chain.Chain, linkGbps float64) (*emul.Runtime, error) {
	// One pool worker per tenant, so a worker parked in a saturated device
	// or DMA gate's FIFO stalls only its own chain's rings and the measured
	// squeeze is the gate's doing alone (see LiveParams.Workers).
	if lp.Workers < len(chains) {
		lp.Workers = len(chains)
	}
	return emul.New(emul.Config{
		Chains:     chains,
		Catalog:    device.Table1(),
		Link:       pcie.Link{PropDelay: p.PCIeLatency, BandwidthGbps: linkGbps},
		Scale:      lp.Scale,
		QueueDepth: lp.QueueDepth,
		BatchSize:  lp.BatchSize,
		Workers:    lp.Workers,
		PoolFrames: true,
		// PCIe crossings and state transfers are charged, not slept: at
		// Scale ≫ 1 real microsecond sleeps would be out of proportion to
		// the slowed-down dataplane.
		SleepPCIe: false,
	})
}
