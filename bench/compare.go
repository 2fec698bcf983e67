package main

import (
	"fmt"
	"io"
	"math"
)

// detailBounds gives -compare the bound of each workload-scoped end-to-end
// number (the issue's names): rel is a share of the median, abs an absolute
// distance, and the larger of the two applies. Every untraced run prints
// these numbers, but they are not contract metrics: each belongs to one
// workload, and the contract wants every metric from every workload, steady
// within its bound over ten runs. The info ones are tails and generator
// health: judged and printed, but too noisy to fail a comparison (see
// README, "Why four workloads and six metrics").
var detailBounds = map[string]struct {
	rel, abs float64
	info     bool
}{
	"fail_ratio":        {abs: 1e-4},
	"migrate_wall_ms":   {rel: 0.25},
	"time_to_detect_ms": {rel: 0.10},
	"time_to_relief_ms": {rel: 0.25},
	"recovered_ratio":   {rel: 0.05},
	"handoff_ms":        {rel: 0.25},
	"sweep_host_s":      {rel: 0.25},
	"pam_gap_pct":       {abs: 0.05},
	"latency_p90_us":    {rel: 0.25, info: true},
	"load_query_ms":     {rel: 0.25, info: true},
	"held_yields":       {rel: 0.25, info: true},
	"peak_rss_mb":       {rel: 0.25, info: true},
	"migrate_wall_p90":  {rel: 0.25, info: true},
	"handoff_p90":       {rel: 0.25, info: true},
	"latency_p99_us":    {rel: 0.25, info: true},
	"latency_tail_us":   {rel: 0.25, info: true},
	"gen_late_p99_us":   {rel: 0.25, info: true},
	"send_reject_ratio": {rel: 0.25, abs: 0.01, info: true},
}

// agreement is how one metric behaved across the sets of a -compare run.
type agreement struct {
	median, q1, q3 float64
	spread         float64 // distance between the extremes the verdict uses
	allowed        float64
	unchanged      bool
}

// agree judges values of one metric from several sets of the same commit.
// With four or more sets the spread is the interquartile distance, with
// fewer it is the full range. Sets agree when the spread stays within the
// bound; otherwise the metric is unresolved at this run length — never
// "unchanged".
func agree(values []float64, rel, abs float64) agreement {
	s := sorted(values)
	a := agreement{median: quantile(s, 0.5), q1: quantile(s, 0.25), q3: quantile(s, 0.75)}
	a.spread = a.q3 - a.q1
	if len(s) < 4 {
		a.spread = s[len(s)-1] - s[0]
	}
	a.allowed = math.Max(rel*math.Abs(a.median), abs)
	a.unchanged = a.spread <= a.allowed
	return a
}

// printCompare prints, per workload and end-to-end metric, the median and
// quartiles over the sets and whether the sets agree within the metric's
// bound. It reports whether every metric did.
func printCompare(w io.Writer, sets [][]*outcome) bool {
	if len(sets) < 2 {
		fmt.Fprintln(w, "compare: needs -runs 2 or more")
		return false
	}
	violations := 0
	fmt.Fprintf(w, "\n== compare: %d sets ==\n", len(sets))
	fmt.Fprintf(w, "%-14s %-20s %12s %12s %12s %9s %9s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "allowed", "verdict")
	row := func(workload, name string, values []float64, rel, abs float64, info bool) {
		a := agree(values, rel, abs)
		verdict := "unchanged"
		switch {
		case !a.unchanged && info:
			verdict = "unresolved (informational)"
		case !a.unchanged:
			verdict = "unresolved"
			violations++
		}
		fmt.Fprintf(w, "%-14s %-20s %12.6g %12.6g %12.6g %9.3g %9.3g  %s\n", workload, name, a.median, a.q1, a.q3, a.spread, a.allowed, verdict)
	}
	for wi, first := range sets[0] {
		for _, d := range endToEnd {
			var vs []float64
			for _, set := range sets {
				vs = append(vs, set[wi].e2e[d.Name].value)
			}
			row(first.workload, d.Name, vs, d.Bound, 0, false)
		}
		for _, m := range first.detail {
			b := detailBounds[m.name]
			var vs []float64
			for _, set := range sets {
				for _, sm := range set[wi].detail {
					if sm.name == m.name {
						vs = append(vs, sm.value)
					}
				}
			}
			row(first.workload, m.name, vs, b.rel, b.abs, b.info)
		}
	}
	fmt.Fprintf(w, "compare: %d metric x workload pair(s) unresolved\n", violations)
	return violations == 0
}
