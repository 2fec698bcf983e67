package telemetry_test

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/telemetry"
)

func TestEWMASeedAndConverge(t *testing.T) {
	e := telemetry.EWMA{Alpha: 0.5}
	if e.Value() != 0 {
		t.Error("zero value is not 0")
	}
	if got := e.Observe(10); got != 10 {
		t.Errorf("first observe = %v, want seed value", got)
	}
	e.Observe(0)
	if got := e.Value(); got != 5 {
		t.Errorf("value = %v, want 5", got)
	}
	for i := 0; i < 50; i++ {
		e.Observe(1)
	}
	if math.Abs(e.Value()-1) > 1e-6 {
		t.Errorf("did not converge: %v", e.Value())
	}
}

func TestEWMADefaultAlpha(t *testing.T) {
	var e telemetry.EWMA // Alpha 0 → default 0.3
	e.Observe(0)
	e.Observe(10)
	if math.Abs(e.Value()-3) > 1e-9 {
		t.Errorf("value = %v, want 3 (alpha 0.3)", e.Value())
	}
}

func sample(at int, util, thr float64) telemetry.Sample {
	return telemetry.Sample{At: time.Duration(at) * time.Second, NICUtil: util, DeliveredGbps: thr}
}

func TestDetectorFiresAfterConsecutiveHotWindows(t *testing.T) {
	d := telemetry.NewDetector(telemetry.DetectorConfig{Threshold: 0.9, Consecutive: 3, Alpha: 1})
	for i := 0; i < 2; i++ {
		if fire, _ := d.Observe(sample(i, 0.99, 1)); fire {
			t.Fatalf("fired after %d windows", i+1)
		}
	}
	fire, thr := d.Observe(sample(3, 0.99, 1))
	if !fire {
		t.Fatal("did not fire after 3 hot windows")
	}
	if thr != 1 {
		t.Errorf("throughput = %v", thr)
	}
	if d.Events() != 1 {
		t.Errorf("events = %d", d.Events())
	}
}

func TestDetectorColdWindowResetsStreak(t *testing.T) {
	d := telemetry.NewDetector(telemetry.DetectorConfig{Threshold: 0.9, Consecutive: 3, Alpha: 1})
	d.Observe(sample(0, 0.99, 1))
	d.Observe(sample(1, 0.99, 1))
	d.Observe(sample(2, 0.1, 1)) // streak broken
	d.Observe(sample(3, 0.99, 1))
	if fire, _ := d.Observe(sample(4, 0.99, 1)); fire {
		t.Fatal("fired without 3 consecutive hot windows")
	}
}

func TestDetectorFiresOnDMAOnlyOverload(t *testing.T) {
	// A crossing-bound overload: both device utilizations stay low, only
	// the DMA-engine demand is past threshold. The detector must fire, and
	// must not clear while the engine stays hot.
	d := telemetry.NewDetector(telemetry.DetectorConfig{Threshold: 0.9, Consecutive: 3, Alpha: 1})
	dmaSample := func(at int, dma float64) telemetry.Sample {
		return telemetry.Sample{At: time.Duration(at) * time.Second, NICUtil: 0.3, CPUUtil: 0.2, DMAUtil: dma, DeliveredGbps: 1}
	}
	for i := 0; i < 2; i++ {
		if fire, _ := d.Observe(dmaSample(i, 1.2)); fire {
			t.Fatalf("fired after %d windows", i+1)
		}
	}
	if fire, _ := d.Observe(dmaSample(2, 1.2)); !fire {
		t.Fatal("did not fire after 3 DMA-hot windows")
	}
	if got := d.SmoothedDMAUtil(); got != 1.2 {
		t.Errorf("SmoothedDMAUtil = %v, want 1.2 at alpha 1", got)
	}
	// NIC cooling below the clear threshold does not clear the episode
	// while the engine stays hot: the next observation must not re-fire
	// (hysteresis) and the detector must still report the episode.
	d.Observe(dmaSample(3, 1.2))
	if !d.Fired() {
		t.Fatal("episode cleared while the DMA engine stayed hot")
	}
	// Once the engine cools the episode clears and can fire again.
	d.Observe(dmaSample(4, 0.1))
	if d.Fired() {
		t.Fatal("episode did not clear after the engine cooled")
	}
	for i := 5; i < 8; i++ {
		d.Observe(dmaSample(i, 1.2))
	}
	if d.Events() != 2 {
		t.Errorf("events = %d, want 2", d.Events())
	}
}

func TestDetectorHysteresisFiresOncePerEpisode(t *testing.T) {
	d := telemetry.NewDetector(telemetry.DetectorConfig{Threshold: 0.9, ClearThreshold: 0.5, Consecutive: 1, Alpha: 1})
	fire, _ := d.Observe(sample(0, 0.99, 1))
	if !fire {
		t.Fatal("no fire")
	}
	// Still hot: must not fire again.
	for i := 1; i < 5; i++ {
		if fire, _ := d.Observe(sample(i, 0.99, 1)); fire {
			t.Fatal("refired while hot")
		}
	}
	// Cool below the clear threshold, then heat again → second episode.
	d.Observe(sample(6, 0.1, 1))
	d.Observe(sample(7, 0.1, 1))
	d.Observe(sample(8, 0.1, 1))
	var refired bool
	for i := 9; i < 15; i++ {
		if f, _ := d.Observe(sample(i, 0.99, 1)); f {
			refired = true
		}
	}
	if !refired {
		t.Fatal("did not re-arm after cooling")
	}
	if d.Events() != 2 {
		t.Errorf("events = %d, want 2", d.Events())
	}
}

func TestDetectorLossTrigger(t *testing.T) {
	d := telemetry.NewDetector(telemetry.DetectorConfig{Threshold: 0.99, Consecutive: 1, Alpha: 1, LossTrigger: 0.05})
	// Utilization looks moderate but loss is heavy (saturated device pins
	// util at ~1.0 but never above — loss is the sharper signal).
	s := telemetry.Sample{NICUtil: 0.5, DeliveredGbps: 1, LossRate: 0.2}
	if fire, _ := d.Observe(s); !fire {
		t.Fatal("loss trigger did not fire")
	}
}

func TestDetectorSmoothedThroughput(t *testing.T) {
	d := telemetry.NewDetector(telemetry.DetectorConfig{Threshold: 0.9, Consecutive: 1, Alpha: 0.5})
	d.Observe(sample(0, 0.1, 2.0))
	_, thr := d.Observe(sample(1, 0.1, 1.0))
	if math.Abs(thr-1.5) > 1e-9 {
		t.Errorf("smoothed throughput = %v, want 1.5", thr)
	}
}

// Property: the detector fires at most once between clears, for any random
// utilization sequence.
func TestPropertySingleFirePerEpisode(t *testing.T) {
	f := func(seq []byte) bool {
		d := telemetry.NewDetector(telemetry.DetectorConfig{Threshold: 0.9, ClearThreshold: 0.5, Consecutive: 2, Alpha: 1})
		armed := true
		for i, b := range seq {
			u := float64(b) / 255
			fire, _ := d.Observe(sample(i, u, 1))
			if fire && !armed {
				return false // fired twice without an intervening clear
			}
			if fire {
				armed = false
			}
			if !armed && u < 0.5 {
				armed = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
