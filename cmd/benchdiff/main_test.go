package main

import (
	"strings"
	"testing"
)

func entry(pkg, name string, metrics map[string]float64) Entry {
	return Entry{Name: name, Pkg: pkg, Iterations: 1, Metrics: metrics}
}

func report(es ...Entry) Report {
	return Report{Benchmarks: es}
}

func TestDiffPassesWithinThreshold(t *testing.T) {
	base := report(entry("repro", "BenchmarkDataplane", map[string]float64{
		"frames/s": 100000, "allocs/op": 2, "ns/op": 10000,
	}))
	cur := report(entry("repro", "BenchmarkDataplane", map[string]float64{
		"frames/s": 95000, "allocs/op": 2, "ns/op": 50000, // ns/op is unguarded noise
	}))
	problems, guarded := Diff(base, cur, 0.10, 0)
	if len(problems) != 0 {
		t.Fatalf("problems = %v, want none (5%% drop within 10%%)", problems)
	}
	if guarded != 2 {
		t.Errorf("guarded = %d, want 2 (frames/s + allocs/op; ns/op unguarded)", guarded)
	}
}

func TestDiffCatchesThroughputDrop(t *testing.T) {
	base := report(entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 100000}))
	cur := report(entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 89000}))
	problems, _ := Diff(base, cur, 0.10, 0)
	if len(problems) != 1 || problems[0].Metric != "frames/s" {
		t.Fatalf("problems = %v, want one frames/s regression (11%% drop)", problems)
	}
}

func TestDiffCatchesPerChainGbpsDrop(t *testing.T) {
	base := report(entry("repro", "BenchmarkMultiTenantDataplane", map[string]float64{"perchain_Gbps": 2.0}))
	cur := report(entry("repro", "BenchmarkMultiTenantDataplane", map[string]float64{"perchain_Gbps": 1.5}))
	problems, _ := Diff(base, cur, 0.10, 0)
	if len(problems) != 1 || problems[0].Metric != "perchain_Gbps" {
		t.Fatalf("problems = %v, want one perchain_Gbps regression", problems)
	}
}

func TestDiffCatchesAllocRise(t *testing.T) {
	base := report(entry("repro", "BenchmarkDataplane", map[string]float64{"allocs/op": 2}))
	cur := report(entry("repro", "BenchmarkDataplane", map[string]float64{"allocs/op": 3}))
	problems, _ := Diff(base, cur, 0.10, 0)
	if len(problems) != 1 || problems[0].Metric != "allocs/op" {
		t.Fatalf("problems = %v, want one allocs/op regression (+50%%)", problems)
	}
}

// A zero-alloc baseline is a hard floor: relative thresholds are
// meaningless on zero, so any new allocation must fail regardless of the
// threshold.
func TestDiffZeroAllocBaselineIsHardFloor(t *testing.T) {
	base := report(entry("repro/internal/emul", "BenchmarkGateContention/workers=16",
		map[string]float64{"allocs/op": 0, "frames/s": 5e7}))
	cur := report(entry("repro/internal/emul", "BenchmarkGateContention/workers=16",
		map[string]float64{"allocs/op": 1, "frames/s": 5e7}))
	problems, _ := Diff(base, cur, 0.50, 0)
	if len(problems) != 1 || !strings.Contains(problems[0].Reason, "zero-alloc") {
		t.Fatalf("problems = %v, want the zero-alloc hard floor to trip", problems)
	}
	// And an unchanged zero passes.
	problems, _ = Diff(base, base, 0.10, 0)
	if len(problems) != 0 {
		t.Fatalf("problems = %v on identical reports", problems)
	}
}

func TestDiffMissingBenchmarkFails(t *testing.T) {
	base := report(entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 1}))
	problems, _ := Diff(base, report(), 0.10, 0)
	if len(problems) != 1 || !strings.Contains(problems[0].Reason, "missing") {
		t.Fatalf("problems = %v, want a missing-benchmark failure", problems)
	}
}

func TestDiffNewBenchmarkTolerated(t *testing.T) {
	base := report(entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 100}))
	cur := report(
		entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 100}),
		entry("repro", "BenchmarkBrandNew", map[string]float64{"frames/s": 1}),
	)
	problems, _ := Diff(base, cur, 0.10, 0)
	if len(problems) != 0 {
		t.Fatalf("problems = %v; a benchmark without a baseline must not fail the diff", problems)
	}
}

// An old baseline without pkg qualification must still match the same
// benchmark in a pkg-qualified current run, by bare name.
func TestDiffNameFallbackAcrossArtifactGenerations(t *testing.T) {
	base := report(entry("", "BenchmarkDataplane", map[string]float64{"frames/s": 100000}))
	cur := report(entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 50000}))
	problems, _ := Diff(base, cur, 0.10, 0)
	if len(problems) != 1 || problems[0].Metric != "frames/s" {
		t.Fatalf("problems = %v, want the halved frames/s caught via name fallback", problems)
	}
}

// Fold must reduce a -count=N run to best-of-N per metric: max for
// higher-better metrics, min for lower-better — so one slow sample
// (scheduler noise) cannot fail the ratchet, and one lucky sample in the
// baseline cannot permanently raise the bar for lower-better metrics.
func TestFoldTakesBestOfN(t *testing.T) {
	rep := report(
		entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 80000, "allocs/op": 25, "ns/op": 12000}),
		entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 123000, "allocs/op": 26, "ns/op": 8000}),
		entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 110000, "allocs/op": 25, "ns/op": 9000}),
	)
	folded := Fold(rep)
	if len(folded.Benchmarks) != 1 {
		t.Fatalf("folded to %d entries, want 1", len(folded.Benchmarks))
	}
	m := folded.Benchmarks[0].Metrics
	if m["frames/s"] != 123000 || m["allocs/op"] != 25 || m["ns/op"] != 8000 {
		t.Errorf("folded metrics = %v, want best-of-3 per direction", m)
	}
	// And Diff folds both sides itself: three noisy current runs whose best
	// matches the baseline must pass even though two samples are >10% slow.
	base := report(entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 120000}))
	problems, _ := Diff(base, rep, 0.10, 0)
	if len(problems) != 0 {
		t.Fatalf("problems = %v; best-of-N must absorb slow samples", problems)
	}
}

// The allowed band widens by the baseline's own run-to-run spread: a
// baseline whose three samples swing 40% cannot ratchet a 15% drop of the
// best sample, but a collapse past threshold+spread still fails.
func TestDiffBandWidensByBaselineSpread(t *testing.T) {
	base := report(
		entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 60000}),
		entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 100000}),
		entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 90000}),
	) // spread (100k−60k)/100k = 40% → allowed 50%
	within := report(entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 55000})) // −45%
	problems, _ := Diff(base, within, 0.10, 0)
	if len(problems) != 0 {
		t.Fatalf("problems = %v; −45%% is inside threshold+spread = 50%%", problems)
	}
	collapse := report(entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 40000})) // −60%
	problems, _ = Diff(base, collapse, 0.10, 0)
	if len(problems) != 1 {
		t.Fatalf("problems = %v; −60%% must fail even against a noisy baseline", problems)
	}
}

// allocs/op ratchets only when the baseline reproduces it within 2%: a
// run-to-run-varying allocation count is contention dynamics (slow-path
// timer churn), not per-op work, and must be exempt — while a stable count
// keeps its tight bound.
func TestDiffAllocGuardRequiresStableBaseline(t *testing.T) {
	unstable := report(
		entry("repro", "BenchmarkSharedDeviceContention", map[string]float64{"allocs/op": 306}),
		entry("repro", "BenchmarkSharedDeviceContention", map[string]float64{"allocs/op": 321}),
	) // 4.7% spread → unguarded
	cur := report(entry("repro", "BenchmarkSharedDeviceContention", map[string]float64{"allocs/op": 380}))
	problems, guarded := Diff(unstable, cur, 0.10, 0)
	if len(problems) != 0 || guarded != 0 {
		t.Fatalf("problems = %v guarded = %d; unstable alloc counts must not ratchet", problems, guarded)
	}
	stable := report(
		entry("repro", "BenchmarkDataplane", map[string]float64{"allocs/op": 25}),
		entry("repro", "BenchmarkDataplane", map[string]float64{"allocs/op": 25}),
	)
	problems, guarded = Diff(stable, report(entry("repro", "BenchmarkDataplane", map[string]float64{"allocs/op": 30})), 0.10, 0)
	if len(problems) != 1 || guarded != 1 {
		t.Fatalf("problems = %v guarded = %d; a stable alloc count must keep its bound", problems, guarded)
	}
}

// The noise floor covers cross-smoke regime shifts: samples within one
// smoke share a process and CPU-frequency/neighbor regime, so a baseline
// with a deceptively tight recorded spread must still tolerate a moderate
// drop — while a real collapse past threshold+floor fails, and allocs/op
// keeps its tight band (the floor must not widen it, or every alloc count
// would escape its 2%-stability ratchet).
func TestDiffNoiseFloorAbsorbsRegimeShift(t *testing.T) {
	base := report(
		entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 100000, "allocs/op": 10}),
		entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 99000, "allocs/op": 10}),
	) // 1% recorded spread; floored to 12% → allowed 22%
	shifted := report(entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 82000}))
	problems, _ := Diff(base, shifted, 0.10, 0.12)
	if n := len(problems); n != 1 || problems[0].Metric != "allocs/op" {
		t.Fatalf("problems = %v, want only the vanished allocs/op (−18%% frames/s inside 22%% band)", problems)
	}
	collapsed := report(entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 70000, "allocs/op": 10}))
	problems, _ = Diff(base, collapsed, 0.10, 0.12)
	if len(problems) != 1 || problems[0].Metric != "frames/s" {
		t.Fatalf("problems = %v, want −30%% frames/s caught past the 22%% band", problems)
	}
	// allocs/op band stays threshold+spread, unfloored: +15% must still fail.
	risen := report(entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 100000, "allocs/op": 11.5}))
	problems, _ = Diff(base, risen, 0.10, 0.12)
	if len(problems) != 1 || problems[0].Metric != "allocs/op" {
		t.Fatalf("problems = %v, want the +15%% allocs/op caught despite the 12%% floor", problems)
	}
}

// A guarded metric that vanishes from the current run (e.g. the smoke lost
// -benchmem) must fail rather than silently stop ratcheting.
func TestDiffMissingMetricFails(t *testing.T) {
	base := report(entry("repro", "BenchmarkDataplane", map[string]float64{"allocs/op": 2, "frames/s": 100}))
	cur := report(entry("repro", "BenchmarkDataplane", map[string]float64{"frames/s": 100}))
	problems, _ := Diff(base, cur, 0.10, 0)
	if len(problems) != 1 || problems[0].Metric != "allocs/op" {
		t.Fatalf("problems = %v, want the vanished allocs/op caught", problems)
	}
}
