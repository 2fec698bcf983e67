package main

// The artifact: the parsed form of `go test -bench` output (one Entry per
// benchmark line, a Report per run) and the parser that extracts it.
// `benchdiff -parse` serializes a Report into the BENCH.json artifact CI
// uploads every run; the diff compares a fresh Report against the
// checked-in baseline.

import (
	"bufio"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// Entry is one benchmark result.
type Entry struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Key identifies the benchmark across runs: the package-qualified name,
// falling back to the bare name for pre-Pkg artifacts.
func (e Entry) Key() string {
	if e.Pkg == "" {
		return e.Name
	}
	return e.Pkg + "." + e.Name
}

// Report is the artifact's top-level shape.
type Report struct {
	Benchmarks []Entry `json:"benchmarks"`
}

// benchLineRE matches "BenchmarkName-8   	 123	 456 ns/op	 7.8 unit ...".
var benchLineRE = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.+)$`)

// Parse reads `go test -bench` output and extracts every benchmark entry,
// attributing each to the most recent `pkg:` preamble line (the form `go
// test` emits once per package in a multi-package run). Each entry carries
// the benchmark's name (GOMAXPROCS suffix stripped), its iteration count,
// and a metrics map keyed by unit (ns/op, B/op, allocs/op with -benchmem,
// plus any custom b.ReportMetric units). Non-bench lines (the goos/goarch
// preamble, PASS, logs) are ignored.
func Parse(r io.Reader) (Report, error) {
	var rep Report
	var pkg string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		m := benchLineRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		e := Entry{Name: m[1], Pkg: pkg, Iterations: iters, Metrics: map[string]float64{}}
		// The tail alternates value/unit pairs: "123 ns/op 0.5 fairness".
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break // not a metric tail (e.g. a stray log line)
			}
			e.Metrics[fields[i+1]] = v
		}
		if len(e.Metrics) == 0 {
			continue
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}
	return rep, sc.Err()
}
