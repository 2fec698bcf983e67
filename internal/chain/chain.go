// Package chain models NFV service chains spanning a SmartNIC and the host
// CPU: the ordered vNF sequence, per-vNF placement, PCIe-crossing
// accounting, and the border-vNF identification that is the heart of PAM's
// Step 1.
//
// Geometry convention (Figure 1 of the paper): packets physically arrive at
// and depart from the SmartNIC, so the packet path is
//
//	NIC ingress → vNF_1 → … → vNF_n → NIC egress
//
// and every adjacency whose two sides sit on different devices costs one
// PCIe crossing, including the implicit ingress/egress endpoints when the
// head/tail vNF lives on the CPU.
package chain

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/device"
)

// Element is one vNF instance in a chain: an instance name, the vNF type
// (the key into the capacity catalog) and its current placement.
type Element struct {
	Name string
	Type string
	Loc  device.Kind
}

// Chain is an ordered service chain. The zero value is an empty chain.
type Chain struct {
	Name  string
	Elems []Element
}

// Validation errors.
var (
	ErrEmpty    = errors.New("chain: empty chain")
	ErrDupName  = errors.New("chain: duplicate element name")
	ErrBadLoc   = errors.New("chain: unsupported placement")
	ErrNotFound = errors.New("chain: no such element")
)

// New builds a chain from elements and validates it.
func New(name string, elems ...Element) (*Chain, error) {
	c := &Chain{Name: name, Elems: elems}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate checks structural invariants: non-empty, unique instance names,
// placements restricted to SmartNIC/CPU/FPGA.
func (c *Chain) Validate() error {
	if len(c.Elems) == 0 {
		return ErrEmpty
	}
	seen := make(map[string]bool, len(c.Elems))
	for _, e := range c.Elems {
		if e.Name == "" || e.Type == "" {
			return fmt.Errorf("%w: element %+v", ErrNotFound, e)
		}
		if seen[e.Name] {
			return fmt.Errorf("%w: %q", ErrDupName, e.Name)
		}
		seen[e.Name] = true
		switch e.Loc {
		case device.KindSmartNIC, device.KindCPU, device.KindFPGA:
		default:
			return fmt.Errorf("%w: %v", ErrBadLoc, e.Loc)
		}
	}
	return nil
}

// Clone returns a deep copy; mutating the copy leaves the original intact.
func (c *Chain) Clone() *Chain {
	elems := make([]Element, len(c.Elems))
	copy(elems, c.Elems)
	return &Chain{Name: c.Name, Elems: elems}
}

// Len returns the number of vNFs.
func (c *Chain) Len() int { return len(c.Elems) }

// Index returns the position of the named element, or -1.
func (c *Chain) Index(name string) int {
	for i, e := range c.Elems {
		if e.Name == name {
			return i
		}
	}
	return -1
}

// At returns the element at position i.
func (c *Chain) At(i int) Element { return c.Elems[i] }

// SetLoc re-places the element at position i.
func (c *Chain) SetLoc(i int, k device.Kind) { c.Elems[i].Loc = k }

// Move re-places the named element, returning an error if it is absent.
func (c *Chain) Move(name string, k device.Kind) error {
	i := c.Index(name)
	if i < 0 {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	c.Elems[i].Loc = k
	return nil
}

// On returns the positions of elements placed on kind k, in chain order.
func (c *Chain) On(k device.Kind) []int {
	var out []int
	for i, e := range c.Elems {
		if e.Loc == k {
			out = append(out, i)
		}
	}
	return out
}

// TypesOn returns the vNF type names placed on kind k, in chain order (with
// multiplicity), the form device.Utilization consumes.
func (c *Chain) TypesOn(k device.Kind) []string {
	var out []string
	for _, e := range c.Elems {
		if e.Loc == k {
			out = append(out, e.Type)
		}
	}
	return out
}

// Crossings counts physical PCIe crossings on the packet path, including
// the implicit NIC ingress before vNF_1 and NIC egress after vNF_n.
// FPGA placements count as NIC-side (the future-work FPGA sits on the NIC).
func (c *Chain) Crossings() int {
	if len(c.Elems) == 0 {
		return 0
	}
	n := 0
	prev := device.KindSmartNIC // ingress
	for _, e := range c.Elems {
		loc := normalizeSide(e.Loc)
		if loc != prev {
			n++
		}
		prev = loc
	}
	if prev != device.KindSmartNIC { // egress
		n++
	}
	return n
}

// normalizeSide folds FPGA into the NIC side of the PCIe bus.
func normalizeSide(k device.Kind) device.Kind {
	if k == device.KindFPGA {
		return device.KindSmartNIC
	}
	return k
}

// BorderMode selects how border vNFs are identified (see DESIGN.md §2,
// Inconsistency A discussion).
type BorderMode uint8

const (
	// BorderModePaper matches the paper's Figure 1 literally: a NIC vNF is
	// a border when its upstream (left border) or downstream (right border)
	// neighbour is placed on the CPU, or when it is the chain head/tail
	// (adjacent to the physical port).
	BorderModePaper BorderMode = iota
	// BorderModeStrict counts only CPU-abutting vNFs, which guarantees the
	// invariant "migrating a border vNF never increases PCIe crossings".
	BorderModeStrict
)

// Borders returns the left and right border sets BL and BR (positions of
// SmartNIC-resident vNFs) under the given mode. BL members have their
// upstream neighbour on the CPU (or are the chain head under
// BorderModePaper); BR members have their downstream neighbour on the CPU
// (or are the chain tail under BorderModePaper).
func (c *Chain) Borders(mode BorderMode) (bl, br []int) {
	n := len(c.Elems)
	for i, e := range c.Elems {
		if normalizeSide(e.Loc) != device.KindSmartNIC {
			continue
		}
		upCPU := i > 0 && normalizeSide(c.Elems[i-1].Loc) == device.KindCPU
		downCPU := i < n-1 && normalizeSide(c.Elems[i+1].Loc) == device.KindCPU
		head := i == 0
		tail := i == n-1
		switch mode {
		case BorderModePaper:
			if upCPU || head {
				bl = append(bl, i)
			}
			if downCPU || tail {
				br = append(br, i)
			}
		case BorderModeStrict:
			if upCPU {
				bl = append(bl, i)
			}
			if downCPU {
				br = append(br, i)
			}
		}
	}
	return bl, br
}

// Segments returns the maximal runs of consecutive same-side placements as
// (start, end) inclusive index pairs with their side, in chain order. Used
// by the simulator to schedule device visits and by reports.
type Segment struct {
	Start, End int
	Side       device.Kind
}

// Segments computes the placement runs of the chain.
func (c *Chain) Segments() []Segment {
	var segs []Segment
	for i, e := range c.Elems {
		side := normalizeSide(e.Loc)
		if len(segs) > 0 && segs[len(segs)-1].Side == side {
			segs[len(segs)-1].End = i
			continue
		}
		segs = append(segs, Segment{Start: i, End: i, Side: side})
	}
	return segs
}

// String renders the chain with placements, e.g.
// "LB(CPU) -> Logger(SmartNIC) -> Monitor(SmartNIC) -> Firewall(SmartNIC)".
func (c *Chain) String() string {
	var b strings.Builder
	for i, e := range c.Elems {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%s(%v)", e.Name, e.Loc)
	}
	return b.String()
}
