package chain_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/chain"
	"repro/internal/device"
)

func mk(t *testing.T, locs ...device.Kind) *chain.Chain {
	t.Helper()
	elems := make([]chain.Element, len(locs))
	for i, l := range locs {
		elems[i] = chain.Element{Name: string(rune('a' + i)), Type: device.TypeFirewall, Loc: l}
	}
	c, err := chain.New("t", elems...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

const (
	S = device.KindSmartNIC
	C = device.KindCPU
)

func TestValidateRejectsEmpty(t *testing.T) {
	var c chain.Chain
	if err := c.Validate(); !errors.Is(err, chain.ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestValidateRejectsDuplicateNames(t *testing.T) {
	_, err := chain.New("t",
		chain.Element{Name: "x", Type: device.TypeFirewall, Loc: S},
		chain.Element{Name: "x", Type: device.TypeLogger, Loc: S},
	)
	if !errors.Is(err, chain.ErrDupName) {
		t.Fatalf("err = %v, want ErrDupName", err)
	}
}

func TestCrossings(t *testing.T) {
	cases := []struct {
		locs []device.Kind
		want int
	}{
		{[]device.Kind{S}, 0},
		{[]device.Kind{C}, 2}, // in and out over PCIe
		{[]device.Kind{S, S, S}, 0},
		{[]device.Kind{C, S, S, S}, 2}, // figure 1(a)
		{[]device.Kind{C, S, C, S}, 4}, // figure 1(b): naive split
		{[]device.Kind{C, C, S, S}, 2}, // figure 1(c): PAM result
		{[]device.Kind{S, C, S, C}, 4},
		{[]device.Kind{C, C, C, C}, 2},
	}
	for _, tc := range cases {
		c := mk(t, tc.locs...)
		if got := c.Crossings(); got != tc.want {
			t.Errorf("%v crossings = %d, want %d", c, got, tc.want)
		}
	}
}

func TestBordersFigure1(t *testing.T) {
	// LB(C) -> Logger(S) -> Monitor(S) -> Firewall(S): BL={1}, BR={3}
	// under the paper's mode (tail adjacent to the egress port counts).
	c := mk(t, C, S, S, S)
	bl, br := c.Borders(chain.BorderModePaper)
	if len(bl) != 1 || bl[0] != 1 {
		t.Errorf("BL = %v, want [1]", bl)
	}
	if len(br) != 1 || br[0] != 3 {
		t.Errorf("BR = %v, want [3]", br)
	}
	// Strict mode drops the tail.
	bl, br = c.Borders(chain.BorderModeStrict)
	if len(bl) != 1 || bl[0] != 1 {
		t.Errorf("strict BL = %v, want [1]", bl)
	}
	if len(br) != 0 {
		t.Errorf("strict BR = %v, want []", br)
	}
}

func TestBordersMultiSegment(t *testing.T) {
	// S C S S C S: NIC segments {0}, {2,3}, {5}.
	c := mk(t, S, C, S, S, C, S)
	bl, br := c.Borders(chain.BorderModePaper)
	wantBL := []int{0, 2, 5} // 0 is head; 2 and 5 follow CPU elements
	wantBR := []int{0, 3, 5} // 0 precedes CPU; 3 precedes CPU; 5 is tail
	if !eqInts(bl, wantBL) {
		t.Errorf("BL = %v, want %v", bl, wantBL)
	}
	if !eqInts(br, wantBR) {
		t.Errorf("BR = %v, want %v", br, wantBR)
	}
	bl, br = c.Borders(chain.BorderModeStrict)
	if !eqInts(bl, []int{2, 5}) {
		t.Errorf("strict BL = %v, want [2 5]", bl)
	}
	if !eqInts(br, []int{0, 3}) {
		t.Errorf("strict BR = %v, want [0 3]", br)
	}
}

func TestBordersSingleElementSegment(t *testing.T) {
	// C S C: the lone NIC vNF is both a left and a right border.
	c := mk(t, C, S, C)
	bl, br := c.Borders(chain.BorderModeStrict)
	if !eqInts(bl, []int{1}) || !eqInts(br, []int{1}) {
		t.Errorf("BL=%v BR=%v, want both [1]", bl, br)
	}
}

func TestSegments(t *testing.T) {
	c := mk(t, C, S, S, S)
	segs := c.Segments()
	want := []chain.Segment{{Start: 0, End: 0, Side: C}, {Start: 1, End: 3, Side: S}}
	if len(segs) != len(want) {
		t.Fatalf("segments = %v, want %v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Errorf("segment %d = %v, want %v", i, segs[i], want[i])
		}
	}
}

func TestFPGACountsAsNICSide(t *testing.T) {
	c, err := chain.New("t",
		chain.Element{Name: "a", Type: device.TypeFirewall, Loc: device.KindFPGA},
		chain.Element{Name: "b", Type: device.TypeLogger, Loc: S},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Crossings(); got != 0 {
		t.Errorf("crossings = %d, want 0 (FPGA is NIC-side)", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := mk(t, C, S, S)
	cc := c.Clone()
	cc.SetLoc(1, C)
	if c.At(1).Loc != S {
		t.Error("mutating clone changed original")
	}
}

func TestMoveUnknownElement(t *testing.T) {
	c := mk(t, S)
	if err := c.Move("nope", C); !errors.Is(err, chain.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestString(t *testing.T) {
	c := mk(t, C, S, S)
	if got := c.String(); !strings.Contains(got, "(CPU) -> ") || !strings.HasSuffix(got, "(SmartNIC)") {
		t.Errorf("String = %q, want each element with its placement", got)
	}
}

// Property: crossings always equals the number of side changes along
// NIC→elems→NIC, is even (path starts and ends on the NIC), and is bounded
// by len+1.
func TestPropertyCrossingsParityAndBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		locs := make([]device.Kind, n)
		for i := range locs {
			if r.Intn(2) == 0 {
				locs[i] = C
			} else {
				locs[i] = S
			}
		}
		elems := make([]chain.Element, n)
		for i, l := range locs {
			elems[i] = chain.Element{Name: string(rune('a' + i)), Type: device.TypeLogger, Loc: l}
		}
		c, err := chain.New("p", elems...)
		if err != nil {
			return false
		}
		x := c.Crossings()
		return x%2 == 0 && x >= 0 && x <= n+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: every strict border is also a paper border (strict ⊆ paper).
func TestPropertyStrictSubsetOfPaperBorders(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		elems := make([]chain.Element, n)
		for i := range elems {
			loc := S
			if r.Intn(2) == 0 {
				loc = C
			}
			elems[i] = chain.Element{Name: string(rune('a' + i)), Type: device.TypeLogger, Loc: loc}
		}
		c, err := chain.New("p", elems...)
		if err != nil {
			return false
		}
		sbl, sbr := c.Borders(chain.BorderModeStrict)
		pbl, pbr := c.Borders(chain.BorderModePaper)
		return subset(sbl, pbl) && subset(sbr, pbr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func subset(a, b []int) bool {
	set := make(map[int]bool, len(b))
	for _, x := range b {
		set[x] = true
	}
	for _, x := range a {
		if !set[x] {
			return false
		}
	}
	return true
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
