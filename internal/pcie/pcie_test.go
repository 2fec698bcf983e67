package pcie_test

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/pcie"
)

func TestDefaultLinkIsTensOfMicroseconds(t *testing.T) {
	l := pcie.DefaultLink()
	ct := l.CrossingTime(1024)
	if ct < 10*time.Microsecond || ct > 100*time.Microsecond {
		t.Errorf("crossing = %v, want tens of µs (§1 of the paper)", ct)
	}
}

func TestSerializationTime(t *testing.T) {
	l := pcie.Link{BandwidthGbps: 64}
	// 1024B at 64 Gbps = 8192 bits / 64e9 = 128 ns.
	if got := l.SerializationTime(1024); got != 128*time.Nanosecond {
		t.Errorf("serialization = %v, want 128ns", got)
	}
	if got := l.SerializationTime(0); got != 0 {
		t.Errorf("zero bytes = %v", got)
	}
	if got := (pcie.Link{}).SerializationTime(1024); got != 0 {
		t.Errorf("zero bandwidth = %v", got)
	}
}

func TestCrossingTimeComposition(t *testing.T) {
	l := pcie.Link{PropDelay: 40 * time.Microsecond, BandwidthGbps: 64}
	want := 40*time.Microsecond + 128*time.Nanosecond
	if got := l.CrossingTime(1024); got != want {
		t.Errorf("crossing = %v, want %v", got, want)
	}
}

func TestValidate(t *testing.T) {
	if err := (pcie.Link{PropDelay: -time.Second}).Validate(); err == nil {
		t.Error("negative delay accepted")
	}
	if err := (pcie.Link{BandwidthGbps: -1}).Validate(); err == nil {
		t.Error("negative bandwidth accepted")
	}
	if err := pcie.DefaultLink().Validate(); err != nil {
		t.Errorf("default link invalid: %v", err)
	}
}

func TestEngineSeconds(t *testing.T) {
	const tol = 1e-12
	close := func(a, b float64) bool { return math.Abs(a-b) < tol }
	l := pcie.Link{PropDelay: 40 * time.Microsecond, BandwidthGbps: 64}
	// 1024B at 64 Gbps = 128 ns of serialization; at scale 1000 the scaled
	// link serializes 1000× slower, so one burst occupies the engine for
	// prop + 128 µs.
	if got, want := l.EngineSeconds(1024, 1000), 40e-6+128e-9*1000; !close(got, want) {
		t.Errorf("EngineSeconds = %v, want %v", got, want)
	}
	// Scale ≤ 0 falls back to the unscaled link.
	if got, want := l.EngineSeconds(1024, 0), 40e-6+128e-9; !close(got, want) {
		t.Errorf("unscaled EngineSeconds = %v, want %v", got, want)
	}
	// A zero link costs nothing: the gate degenerates to a no-op.
	if got := (pcie.Link{}).EngineSeconds(1024, 1000); got != 0 {
		t.Errorf("zero link EngineSeconds = %v, want 0", got)
	}
}

// Property: crossing time is monotone in frame size and always at least the
// propagation delay.
func TestPropertyCrossingMonotone(t *testing.T) {
	l := pcie.DefaultLink()
	f := func(a, b uint16) bool {
		x, y := int(a%1500)+1, int(b%1500)+1
		if x > y {
			x, y = y, x
		}
		cx, cy := l.CrossingTime(x), l.CrossingTime(y)
		return cx <= cy && cx >= l.PropDelay
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
