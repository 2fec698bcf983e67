package main

import (
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDataplane/batch=8-8         	  100000	     10523 ns/op	 95012 frames/s	     144 B/op	       2 allocs/op
BenchmarkPCIeDMAContention/chains=4-8 	       1	 363770313 ns/op	         2.041 agg_Gbps	         4.083 crossing_Gbps	         0.857 fairness
BenchmarkSharedDeviceContention/elems=16-8 	       1	 201000000 ns/op	         3.1 agg_Gbps	         0.92 fairness
PASS
ok  	repro	1.425s
`

// Output of a -benchmem smoke run spanning two packages: the same pkg:
// preamble appears once per package, and every line carries the B/op and
// allocs/op columns.
const multiPkgBenchOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkDataplane/batch=8-8         	  100000	     10523 ns/op	 95012 frames/s	     144 B/op	       2 allocs/op
PASS
ok  	repro	1.425s
goos: linux
goarch: amd64
pkg: repro/internal/emul
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkGateContention/workers=16-8 	138253726	        18.09 ns/op	  55283255 frames/s	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/emul	12.597s
`

func TestParseExtractsMetrics(t *testing.T) {
	rep, err := Parse(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("benchmarks = %d, want 3\n%+v", len(rep.Benchmarks), rep)
	}
	dp := rep.Benchmarks[0]
	if dp.Name != "BenchmarkDataplane/batch=8" {
		t.Errorf("name = %q; the GOMAXPROCS suffix must be stripped", dp.Name)
	}
	if dp.Iterations != 100000 {
		t.Errorf("iterations = %d, want 100000", dp.Iterations)
	}
	if dp.Metrics["frames/s"] != 95012 || dp.Metrics["allocs/op"] != 2 {
		t.Errorf("dataplane metrics = %v", dp.Metrics)
	}
	dma := rep.Benchmarks[1]
	if dma.Metrics["crossing_Gbps"] != 4.083 || dma.Metrics["fairness"] != 0.857 {
		t.Errorf("dma metrics = %v", dma.Metrics)
	}
	if _, ok := rep.Benchmarks[2].Metrics["agg_Gbps"]; !ok {
		t.Errorf("shared-device metrics = %v", rep.Benchmarks[2].Metrics)
	}
}

// TestParseTracksPackageContext feeds a two-package -benchmem run through
// Parse: each entry must carry the package it ran in (so same-named
// benchmarks in different packages cannot alias in a baseline diff), Key()
// must qualify the name with it, and the -benchmem columns (B/op,
// allocs/op) must come through as metrics — zeros included, since a
// zero-alloc hot path is exactly the value a ratchet wants to guard.
func TestParseTracksPackageContext(t *testing.T) {
	rep, err := Parse(strings.NewReader(multiPkgBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d, want 2\n%+v", len(rep.Benchmarks), rep)
	}
	dp, gate := rep.Benchmarks[0], rep.Benchmarks[1]
	if dp.Pkg != "repro" || gate.Pkg != "repro/internal/emul" {
		t.Errorf("pkg attribution = %q / %q", dp.Pkg, gate.Pkg)
	}
	if got := gate.Key(); got != "repro/internal/emul.BenchmarkGateContention/workers=16" {
		t.Errorf("key = %q", got)
	}
	if gate.Metrics["frames/s"] != 55283255 {
		t.Errorf("gate metrics = %v", gate.Metrics)
	}
	for _, unit := range []string{"B/op", "allocs/op"} {
		if v, ok := gate.Metrics[unit]; !ok || v != 0 {
			t.Errorf("%s = %v (present=%v), want an explicit 0", unit, v, ok)
		}
	}
	if dp.Metrics["allocs/op"] != 2 || dp.Metrics["B/op"] != 144 {
		t.Errorf("-benchmem columns lost: %v", dp.Metrics)
	}
	// A bare-name entry (old artifact without pkg) keys by name alone.
	if got := (Entry{Name: "BenchmarkX"}).Key(); got != "BenchmarkX" {
		t.Errorf("bare key = %q", got)
	}
}

func TestParseIgnoresNonBenchLines(t *testing.T) {
	rep, err := Parse(strings.NewReader("PASS\nok  \trepro\t1.2s\nrandom log line\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("benchmarks = %+v, want none", rep.Benchmarks)
	}
}
