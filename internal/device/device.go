// Package device models the two packet-processing devices of the paper —
// the SmartNIC (NPU-based, e.g. Netronome Agilio CX) and the host CPU — via
// the linear resource-utilization model PAM adopts from CoCo [5]:
//
//	a vNF i with device capacity θd_i running at chain throughput θcur
//	consumes the fraction θcur/θd_i of device d's resources, and device d
//	is overloaded when the sum over resident vNFs exceeds 1.
//
// The package also carries the paper's Table 1 capacity catalog, an
// FPGA-style profile for the future-work experiment, and helpers to compute
// aggregate utilization and fluid-model saturation throughput.
package device

import (
	"fmt"
	"math"
)

// Kind enumerates device classes NFs can be placed on.
type Kind uint8

// Device kinds. KindFPGA models the paper's future-work target (§4).
const (
	KindSmartNIC Kind = iota
	KindCPU
	KindFPGA
)

// Kinds lists every device kind, in declaration order. Registries that key
// per-device resources by kind (the emulator's shared capacity gates) build
// from this list, so adding a kind here automatically materializes its
// entry everywhere instead of leaving a nil lookup to trip over.
func Kinds() []Kind {
	return []Kind{KindSmartNIC, KindCPU, KindFPGA}
}

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSmartNIC:
		return "SmartNIC"
	case KindCPU:
		return "CPU"
	case KindFPGA:
		return "FPGA"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Gbps expresses throughput in gigabits per second. The //pam:unit
// directive registers it as a unit domain with cmd/pamlint's unitcheck
// analyzer: converting it to or from plain numerics anywhere outside a
// //pam:unitconv helper (MeasuredGbps, Float, the utilization math below)
// is rejected, so a raw measurement or a bytes/s quantity cannot be
// laundered into catalog units by a bare cast.
//
//pam:unit gbps
type Gbps float64

// MeasuredGbps types a raw throughput measurement — a meter reading, a
// smoothed control-loop estimate — as catalog Gbps. It is the one blessed
// entry point from plain float64 into the Gbps domain; every other
// non-constant cast is a unitcheck violation.
//
//pam:unitconv
func MeasuredGbps(v float64) Gbps { return Gbps(v) }

// Float strips the Gbps unit for display, serialization and config structs
// that carry plain numerics — the blessed exit from the domain.
//
//pam:unitconv
func (g Gbps) Float() float64 { return float64(g) }

// Capacity is the per-device throughput capacity of one vNF type (Table 1's
// θS and θC, plus an FPGA column for the future-work profile). A zero value
// means "cannot run on that device"; Unbounded marks entries the paper lists
// as ">10 Gbps".
type Capacity struct {
	SmartNIC Gbps
	CPU      Gbps
	FPGA     Gbps
}

// Unbounded is the stand-in capacity for Table 1 entries given as ">10 Gbps";
// large enough never to constrain the experiments.
const Unbounded Gbps = 1000

// On returns the capacity on the given device kind.
func (c Capacity) On(k Kind) Gbps {
	switch k {
	case KindSmartNIC:
		return c.SmartNIC
	case KindCPU:
		return c.CPU
	case KindFPGA:
		return c.FPGA
	default:
		return 0
	}
}

// Catalog maps vNF type names to capacities. It is the algorithm's source of
// θd_i values.
type Catalog map[string]Capacity

// Canonical vNF type names used across the repository.
const (
	TypeFirewall     = "Firewall"
	TypeLogger       = "Logger"
	TypeMonitor      = "Monitor"
	TypeLoadBalancer = "LoadBalancer"
	TypeNAT          = "NAT"
	TypeDPI          = "DPI"
	TypeRateLimiter  = "RateLimiter"
	TypeIDS          = "IDS"
)

// Table1 returns the paper's Table 1 verbatim: measured capacities of the
// four vNFs on the SmartNIC (θS) and CPU (θC), in Gbps. The Load Balancer's
// ">10 Gbps" NIC entry is represented by Unbounded. FPGA columns extend the
// catalog for the §4 future-work experiment (profile: pipeline-parallel
// match NFs run faster, stateful NFs at NIC parity).
func Table1() Catalog {
	return Catalog{
		TypeFirewall:     {SmartNIC: 10, CPU: 4, FPGA: 20},
		TypeLogger:       {SmartNIC: 2, CPU: 4, FPGA: 2.5},
		TypeMonitor:      {SmartNIC: 3.2, CPU: 10, FPGA: 6},
		TypeLoadBalancer: {SmartNIC: Unbounded, CPU: 4, FPGA: Unbounded},
	}
}

// ExtendedCatalog returns Table1 plus capacities for the additional NF types
// implemented in this repository, following the same measurement style
// (match-action NFs fast on the NIC, stateful/payload NFs faster on the CPU).
func ExtendedCatalog() Catalog {
	c := Table1()
	c[TypeNAT] = Capacity{SmartNIC: 6, CPU: 5, FPGA: 12}
	c[TypeDPI] = Capacity{SmartNIC: 1.5, CPU: 6, FPGA: 3}
	c[TypeRateLimiter] = Capacity{SmartNIC: 8, CPU: 5, FPGA: 16}
	c[TypeIDS] = Capacity{SmartNIC: 1.8, CPU: 5, FPGA: 3.5}
	return c
}

// Lookup returns the capacity of the vNF type on device kind k, or an error
// when the type is unknown or cannot run there.
func (c Catalog) Lookup(nfType string, k Kind) (Gbps, error) {
	cap, ok := c[nfType]
	if !ok {
		return 0, fmt.Errorf("device: unknown vNF type %q", nfType)
	}
	g := cap.On(k)
	if g <= 0 {
		return 0, fmt.Errorf("device: vNF type %q cannot run on %v", nfType, k)
	}
	return g, nil
}

// Clone returns a deep copy of the catalog.
func (c Catalog) Clone() Catalog {
	out := make(Catalog, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Device is a placement target with a normalized resource budget of 1.0 per
// the linear model. The SmartNIC's DMA engines are a *separate* hardware
// resource (descriptor rings and DMA blocks, not NPU microengines):
// DMAEngineGbps is their aggregate capacity, consumed once per PCIe crossing
// at the chain throughput. Zero means "not modelled" (CPU, FPGA).
type Device struct {
	Name          string
	Kind          Kind
	DMAEngineGbps Gbps
}

// Utilization computes Σ θcur/θd_i for the resident vNF types (with
// multiplicity). It returns an error for unknown types.
//
//pam:unitconv
func (d Device) Utilization(cat Catalog, residents []string, cur Gbps) (float64, error) {
	var u float64
	for _, t := range residents {
		g, err := cat.Lookup(t, d.Kind)
		if err != nil {
			return 0, err
		}
		u += float64(cur) / float64(g)
	}
	return u, nil
}

// DMAUtilization computes the DMA-engine utilization at chain throughput cur
// with the given number of PCIe crossings. It returns 0 when the device does
// not model DMA engines.
//
//pam:unitconv
func (d Device) DMAUtilization(cur Gbps, crossings int) float64 {
	if d.DMAEngineGbps <= 0 || crossings <= 0 {
		return 0
	}
	return float64(crossings) * float64(cur) / float64(d.DMAEngineGbps)
}

// Saturation returns the fluid-model maximum chain throughput supportable by
// the device's vNF budget: the θ at which utilization reaches 1.0. Residents
// with Unbounded capacity contribute negligibly. It returns +Inf for an
// empty device.
//
//pam:unitconv
func (d Device) Saturation(cat Catalog, residents []string) (Gbps, error) {
	var perGbit float64 // utilization per Gbps of chain throughput
	for _, t := range residents {
		g, err := cat.Lookup(t, d.Kind)
		if err != nil {
			return 0, err
		}
		perGbit += 1 / float64(g)
	}
	if perGbit == 0 {
		return Gbps(math.Inf(1)), nil
	}
	return Gbps(1 / perGbit), nil
}

// DMASaturation returns the chain throughput at which the DMA engines
// saturate given the crossing count, or +Inf when unmodelled.
//
//pam:unitconv
func (d Device) DMASaturation(crossings int) Gbps {
	if d.DMAEngineGbps <= 0 || crossings <= 0 {
		return Gbps(math.Inf(1))
	}
	return d.DMAEngineGbps / Gbps(crossings)
}
