// Package pcie models the PCIe interconnect between the SmartNIC and the
// host CPU — the cost PAM exists to avoid paying more of. The paper's §1
// measures "tens of microseconds" of added latency per extra traversal; the
// model decomposes a crossing into:
//
//   - a fixed propagation/setup latency (DMA descriptor post, doorbell,
//     completion interrupt) that dominates at NFV packet sizes, and
//   - a size-proportional serialization time at the link's effective
//     bandwidth, and
//   - optional FIFO queueing when crossings contend for the DMA engine.
//
// The same parameterization serves the discrete-event simulator (which adds
// queueing via sim.Server) and the live emulator (which sleeps).
package pcie

import (
	"fmt"
	"time"
)

// Link describes one direction of the SmartNIC↔CPU PCIe path.
type Link struct {
	// PropDelay is the fixed per-crossing latency.
	PropDelay time.Duration
	// BandwidthGbps is the effective serialization bandwidth; zero disables
	// the size-proportional term.
	BandwidthGbps float64
}

// DefaultLink returns the calibrated link of DESIGN.md §5: 43 µs fixed
// latency and 64 Gbps effective bandwidth (PCIe gen3 x8).
func DefaultLink() Link {
	return Link{PropDelay: 43 * time.Microsecond, BandwidthGbps: 64}
}

// SerializationTime returns the time the frame occupies the link.
//
//pam:hotpath
func (l Link) SerializationTime(frameBytes int) time.Duration {
	if l.BandwidthGbps <= 0 || frameBytes <= 0 {
		return 0
	}
	bits := float64(frameBytes) * 8
	sec := bits / (l.BandwidthGbps * 1e9)
	return time.Duration(sec * float64(time.Second))
}

// CrossingTime returns the total unloaded latency of one crossing for a
// frame: propagation plus serialization.
//
//pam:hotpath
func (l Link) CrossingTime(frameBytes int) time.Duration {
	return l.PropDelay + l.SerializationTime(frameBytes)
}

// EngineSeconds returns the DMA-engine occupancy of one burst crossing of n
// bytes, in seconds of the shared engine budget: the fixed per-burst
// descriptor overhead (PropDelay — post, doorbell, completion) plus the
// serialization time at the link slowed by scale. An emulator dividing its
// catalog rates by scale must multiply the size-proportional term by the
// same factor so that crossings saturate the engine at the same
// catalog-unit throughput the real link would.
//
//pam:hotpath
func (l Link) EngineSeconds(bytes int, scale float64) float64 {
	if scale <= 0 {
		scale = 1
	}
	return l.PropDelay.Seconds() + l.SerializationTime(bytes).Seconds()*scale
}

// Validate rejects nonsensical parameters.
func (l Link) Validate() error {
	if l.PropDelay < 0 {
		return fmt.Errorf("pcie: negative propagation delay %v", l.PropDelay)
	}
	if l.BandwidthGbps < 0 {
		return fmt.Errorf("pcie: negative bandwidth %v", l.BandwidthGbps)
	}
	return nil
}

// String describes the link.
func (l Link) String() string {
	return fmt.Sprintf("pcie(prop=%v bw=%.0fGbps)", l.PropDelay, l.BandwidthGbps)
}
