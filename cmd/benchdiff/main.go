// Command benchdiff ratchets the perf trajectory: it compares a freshly
// generated BENCH.json against the checked-in baseline and exits non-zero
// when any guarded metric regresses past the threshold (default 10%), so a
// change that quietly slows the dataplane — fewer frames/s, lower per-chain
// goodput, new allocations on the hot path — fails CI instead of landing.
//
//	go run ./cmd/benchdiff -baseline BENCH.json -current bench_new.json
//
// The artifact itself comes from the same binary: -parse turns `go test
// -bench` output on stdin into BENCH.json-format JSON on stdout (every
// benchmark line one entry with the package it ran in, its iteration count
// and a metrics map keyed by unit), so the perf trajectory can be compared
// across commits without scraping logs:
//
//	go test -run xxx -bench=. -benchmem . | go run ./cmd/benchdiff -parse > bench_new.json
//
// Guarded metrics and their directions are fixed: frames/s, perchain_Gbps,
// agg_Gbps, crossing_Gbps and fairness must not drop; allocs/op must not
// rise (a zero-alloc baseline is a hard floor — any new allocation on a
// zero-alloc path is a regression regardless of threshold, because a
// relative bound on zero is meaningless). ns/op and B/op are reported for
// context but not guarded: wall-time on a shared CI runner is too noisy to
// ratchet, and B/op moves with allocs/op.
//
// Noise control, in two layers (a fixed 10% bound on a single sample of a
// wall-clock emulation flakes hopelessly — see scripts/benchsmoke.sh):
//
//   - The smoke runs every benchmark -count times and the artifact keeps
//     all samples; both sides of the diff are folded best-of-N first, and
//     each metric's allowed band is then widened by the baseline's own
//     observed run-to-run spread. A metric the baseline itself shows
//     swinging 40% between runs cannot honestly be ratcheted at 10% — but
//     the spread travels with the artifact, so the bound is exactly as
//     tight as that benchmark's reproducibility allows, and a real
//     collapse (the lock-free fast path reverting to the mutex, 6×) still
//     fails by an order of magnitude. For throughput metrics the spread is
//     additionally floored at -minnoise (default 12%): samples within one
//     smoke share a process and a CPU-frequency/neighbor regime, so a
//     tight recorded spread can understate the shift between two smokes
//     run minutes apart on a shared runner. The floor does not apply to
//     allocs/op, whose guard depends on the raw spread being tiny.
//   - allocs/op ratchets only when the baseline's samples agree within 2%:
//     a run-to-run-stable allocation count is per-op work (the thing a
//     ratchet should freeze), while a varying one is contention dynamics —
//     timer churn in the gates' slow path, proportional to how often the
//     scheduler made workers collide — and ratcheting it ratchets the
//     scheduler.
//
// Baselines are machine-relative: after an intentional perf change (or a
// runner change), refresh with the one-liner in README §Perf trajectory
// and commit the new BENCH.json alongside the change that justifies it.
// Benchmarks present only in the current run are reported and tolerated
// (new benchmarks need a baseline before they ratchet); benchmarks present
// only in the baseline fail the diff — a deleted benchmark must be deleted
// from the baseline too, deliberately.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// higherBetter metrics must not drop below baseline×(1−threshold).
var higherBetter = map[string]bool{
	"frames/s":      true,
	"perchain_Gbps": true,
	"agg_Gbps":      true,
	"crossing_Gbps": true,
	"fairness":      true,
}

// lowerBetter metrics must not rise above baseline×(1+threshold); a zero
// baseline is a hard floor.
var lowerBetter = map[string]bool{
	"allocs/op": true,
}

// Problem is one detected regression (or structural mismatch).
type Problem struct {
	Bench  string
	Metric string
	Base   float64
	Cur    float64
	Reason string
}

func (p Problem) String() string {
	if p.Metric == "" {
		return fmt.Sprintf("%s: %s", p.Bench, p.Reason)
	}
	return fmt.Sprintf("%s %s: baseline %g, current %g (%s)", p.Bench, p.Metric, p.Base, p.Cur, p.Reason)
}

// Fold merges repeated runs of the same benchmark (a -count=N smoke) into
// one entry per key, taking each guarded metric's best observation — max
// for higher-better, min for lower-better (and min for unguarded metrics,
// which are report-only). Best-of-N on both sides of the diff is the noise
// control that makes a 10% ratchet workable on a shared runner: scheduler
// noise only ever makes a run look slower, so comparing best against best
// cancels it instead of ratcheting against one lucky (or unlucky) sample.
func Fold(rep Report) Report {
	var out Report
	idx := make(map[string]int)
	for _, e := range rep.Benchmarks {
		i, seen := idx[e.Key()]
		if !seen {
			idx[e.Key()] = len(out.Benchmarks)
			c := e
			c.Metrics = make(map[string]float64, len(e.Metrics))
			for m, v := range e.Metrics {
				c.Metrics[m] = v
			}
			out.Benchmarks = append(out.Benchmarks, c)
			continue
		}
		got := out.Benchmarks[i].Metrics
		for m, v := range e.Metrics {
			prev, have := got[m]
			if !have || (higherBetter[m] && v > prev) || (!higherBetter[m] && v < prev) {
				got[m] = v
			}
		}
	}
	return out
}

// allocStableSpread is the agreement bound for ratcheting allocs/op: only
// an allocation count the baseline reproduces within this relative spread
// is per-op work worth freezing.
const allocStableSpread = 0.02

// spreads computes each (benchmark, metric)'s relative run-to-run spread,
// (max−min)/max, across the report's repeated samples. A single sample has
// spread 0.
func spreads(rep Report) map[string]float64 {
	lo := map[string]float64{}
	hi := map[string]float64{}
	for _, e := range rep.Benchmarks {
		for m, v := range e.Metrics {
			k := e.Key() + "\x00" + m
			if prev, ok := lo[k]; !ok || v < prev {
				lo[k] = v
			}
			if prev, ok := hi[k]; !ok || v > prev {
				hi[k] = v
			}
		}
	}
	out := make(map[string]float64, len(lo))
	for k, h := range hi {
		if h > 0 {
			out[k] = (h - lo[k]) / h
		}
	}
	return out
}

// Diff compares the current report against the baseline and returns every
// regression past the allowed band, plus how many (benchmark, metric)
// pairs were actually guarded — a caller can refuse a diff that guarded
// nothing. Both reports are folded to best-of-N first; each higher-better
// metric's band is threshold plus the larger of the baseline's observed
// spread and minNoise (the cross-smoke regime floor); allocs/op uses the
// raw spread both for its band and for its stability gate.
func Diff(base, cur Report, threshold, minNoise float64) (problems []Problem, guarded int) {
	noise := spreads(base)
	base, cur = Fold(base), Fold(cur)
	byKey := make(map[string]Entry, len(cur.Benchmarks))
	byName := make(map[string]Entry, len(cur.Benchmarks))
	for _, e := range cur.Benchmarks {
		byKey[e.Key()] = e
		byName[e.Name] = e
	}
	for _, b := range base.Benchmarks {
		c, ok := byKey[b.Key()]
		if !ok {
			// Tolerate a pkg-qualification mismatch between artifact
			// generations, but never an outright missing benchmark.
			if c, ok = byName[b.Name]; !ok {
				problems = append(problems, Problem{Bench: b.Key(),
					Reason: "present in baseline but missing from current run (delete it from the baseline if intentional)"})
				continue
			}
		}
		metrics := make([]string, 0, len(b.Metrics))
		for m := range b.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			bv := b.Metrics[m]
			cv, have := c.Metrics[m]
			spread := noise[b.Key()+"\x00"+m]
			switch {
			case higherBetter[m]:
				guarded++
				allowed := threshold + max(spread, minNoise)
				if !have {
					problems = append(problems, Problem{Bench: b.Key(), Metric: m, Base: bv, Cur: 0,
						Reason: "metric missing from current run"})
				} else if cv < bv*(1-allowed) {
					problems = append(problems, Problem{Bench: b.Key(), Metric: m, Base: bv, Cur: cv,
						Reason: fmt.Sprintf("dropped %.1f%% (> %.0f%% allowed = threshold + noise band)", (1-cv/bv)*100, allowed*100)})
				}
			case lowerBetter[m]:
				if spread > allocStableSpread {
					continue // contention-dynamics noise, not per-op work
				}
				guarded++
				allowed := threshold + spread
				if !have {
					problems = append(problems, Problem{Bench: b.Key(), Metric: m, Base: bv, Cur: 0,
						Reason: "metric missing from current run (run the smoke with -benchmem)"})
				} else if bv == 0 && cv > 0 {
					problems = append(problems, Problem{Bench: b.Key(), Metric: m, Base: bv, Cur: cv,
						Reason: "allocation on a zero-alloc path"})
				} else if bv > 0 && cv > bv*(1+allowed) {
					problems = append(problems, Problem{Bench: b.Key(), Metric: m, Base: bv, Cur: cv,
						Reason: fmt.Sprintf("rose %.1f%% (> %.0f%% allowed = threshold + baseline spread)", (cv/bv-1)*100, allowed*100)})
				}
			}
		}
	}
	return problems, guarded
}

func load(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// parse is the -parse mode: bench output on r, the JSON artifact on w.
func parse(r io.Reader, w io.Writer) error {
	rep, err := Parse(r)
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return errors.New("no benchmark lines on stdin")
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

func main() {
	parseMode := flag.Bool("parse", false, "turn `go test -bench` output on stdin into artifact JSON on stdout, then exit")
	baseline := flag.String("baseline", "BENCH.json", "checked-in baseline artifact")
	current := flag.String("current", "", "freshly generated artifact to compare (required)")
	threshold := flag.Float64("threshold", 0.10, "allowed relative regression per guarded metric")
	minNoise := flag.Float64("minnoise", 0.12, "floor on the per-metric noise band for throughput metrics (cross-smoke regime shifts)")
	flag.Parse()
	if *parseMode {
		if err := parse(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: parse: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *current == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -current is required")
		os.Exit(2)
	}

	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: baseline: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: current: %v\n", err)
		os.Exit(2)
	}

	problems, guarded := Diff(base, cur, *threshold, *minNoise)
	base, cur = Fold(base), Fold(cur) // dedup for the messages below; Diff folds internally
	if guarded == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no guarded metrics in the baseline — refusing a vacuous pass")
		os.Exit(2)
	}

	known := make(map[string]bool, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		known[b.Key()], known[b.Name] = true, true
	}
	for _, c := range cur.Benchmarks {
		if !known[c.Key()] && !known[c.Name] {
			fmt.Printf("note: %s has no baseline yet (refresh BENCH.json to start ratcheting it)\n", c.Key())
		}
	}

	fmt.Printf("benchdiff: %d guarded metric(s) across %d baseline benchmark(s), threshold %.0f%%\n",
		guarded, len(base.Benchmarks), *threshold*100)
	if len(problems) == 0 {
		fmt.Println("benchdiff: no regressions")
		return
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "REGRESSION: %s\n", p)
	}
	os.Exit(1)
}
