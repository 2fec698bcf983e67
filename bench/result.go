package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
)

// metricDef declares one metric: its name and unit, which direction is
// better, and — for end-to-end metrics — the share of the baseline median by
// which it may worsen before a change counts as a regression. The tables
// below are mirrored verbatim into /BENCHMARK.json (a test keeps them equal).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is the contract's end-to-end set: each of the four contract
// workloads reports every one of them with tracing off, and each means the
// same thing on all four. The workload-scoped numbers (tails, migration and
// handoff times, the control loop's arc) are printed under their own names
// and judged by -compare (see detailBounds); README.md says why each of them
// is not gated here.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "frames_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_frame", Unit: "1", Better: "lower", Bound: 0.10},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "delivered_ratio", Unit: "1", Better: "higher", Bound: 0.01},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
}

// check is one correctness assertion on a workload's outputs.
type check struct {
	name string
	ok   bool
	info string
}

// outcome is everything one run of one workload produced.
type outcome struct {
	workload  string
	attempted int64
	failed    int64
	checks    []check
	e2e       map[string]metric  // contract end-to-end metrics, by name
	detail    []metric           // workload-scoped numbers, issue names
	layers    map[string]float64 // traced run only: module.metric values
}

func newOutcome(workload string) *outcome {
	return &outcome{workload: workload, e2e: map[string]metric{}, layers: map[string]float64{}}
}

func (o *outcome) set(name string, value float64, n int, note string) {
	o.e2e[name] = metric{name: name, value: value, n: n, note: note}
}

func (o *outcome) addDetail(name, unit string, value float64, n int, note string) {
	o.detail = append(o.detail, metric{name: name, unit: unit, value: value, n: n, note: note})
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, info: fmt.Sprintf(format, args...)})
}

// correct reports whether every check passed and every metric is a finite
// number.
func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	for _, m := range o.e2e {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return false
		}
	}
	return true
}

// print writes the human-readable report of one run.
func (o *outcome) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "== %s ==\n", o.workload)
	for _, c := range o.checks {
		state := "ok  "
		if !c.ok {
			state = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-28s %s\n", state, c.name, c.info)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  fail_ratio %.3g\n", o.attempted, o.failed, o.failRatio())
	if !traced {
		for _, d := range endToEnd {
			if m, ok := o.e2e[d.Name]; ok {
				fmt.Fprintf(w, "  %-20s %14.6g %-4s n=%-7d %s\n", d.Name, m.value, d.Unit, m.n, m.note)
			}
		}
		for _, m := range o.detail {
			fmt.Fprintf(w, "  %-20s %14.6g %-4s n=%-7d %s\n", m.name, m.value, m.unit, m.n, m.note)
		}
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, o.layers[d.Name], d.Unit)
	}
	for _, d := range extendedLayers {
		if v, ok := o.layers[d.Name]; ok {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
}

func (o *outcome) failRatio() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}

// jsonLine renders the contract's result object: the last line of standard
// output. Values keep every digit measured.
func (o *outcome) jsonLine(traced bool) string {
	var b strings.Builder
	attempted := o.attempted
	if attempted < 1 {
		attempted = 1
	}
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, o.correct(), attempted, o.failed)
	emit := func(i int, name, unit string, v float64) {
		if i > 0 {
			b.WriteString(", ")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		n, _ := json.Marshal(name)
		u, _ := json.Marshal(unit)
		fmt.Fprintf(&b, `%s: {"value": %s, "unit": %s}`, n, strconv.FormatFloat(v, 'g', -1, 64), u)
	}
	if traced {
		for i, d := range perLayer {
			emit(i, d.Name, d.Unit, o.layers[d.Name])
		}
	} else {
		for i, d := range endToEnd {
			emit(i, d.Name, d.Unit, o.e2e[d.Name].value)
		}
	}
	b.WriteString("}}")
	return b.String()
}

// resetPeakRSS returns freed memory to the system and restarts the process's
// resident-set high-water mark from what is resident now, so that VmHWM at
// the end of a window is that window's peak and not set-up's: five builds'
// worth of garbage that happened to be alive at once moved fleet_handoff's
// peak between 35 and 57 MB from run to run. Writing 5 to clear_refs is the
// kernel's interface for this; where it is refused the peak stays
// process-wide.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 { return statusMB("VmHWM:") }

// rssMB reads the process's resident set as it is now (VmRSS) in MB.
func rssMB() float64 { return statusMB("VmRSS:") }

// statusMB reads one kB field of /proc/self/status in MB.
func statusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}
