// Command bench is the repo benchmark: seven workloads over the emulated
// dataplane, the live control loop, the fleet tier and the discrete-event
// simulator, each checked for correct outputs and measured end to end, with
// a traced variant that times the calls into every layer from outside. The
// four dataplane workloads are the contract in /BENCHMARK.json.
//
//	go -C bench run .                     every workload, end-to-end metrics
//	go -C bench run . -trace              every workload, per-layer metrics
//	go -C bench run . -runs 3 -compare    do the sets agree within bounds?
//	go -C bench run . --workload fig1_paced --seed 7 --seconds 30 --trace 0
//
// The last form is what /BENCHMARK.json's command expands to; the last line
// of standard output is then one JSON object with the run's metrics. See
// README.md for the workloads, the metrics and what each is predicted to
// move.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// env is what a workload is run with.
type env struct {
	seed   int64
	window time.Duration
	trace  bool
	// layerCalls is how many calls the layer pass makes per function.
	layerCalls int
	outDir     string
}

func (e *env) writeTrace(workload string, tr *tracer) error {
	return writeTrace(e.outDir, workload, tr.snapshot())
}

// workload is one set of generated inputs and what runs on them.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*env) (*outcome, error)
}

// workloads is everything the program can run. The first four — the
// dataplane quartet, on which every contract metric means the same thing —
// are the contract (below); the last three report their own numbers to the
// reader and to -compare only.
var workloads = []workload{
	{Name: "fig1_saturate", Why: "paper's 4-NF chain, free crossings, closed loop: per-frame cost of packet/flow/nf/metrics sets frames/s", run: fig1Saturate.run},
	{Name: "tenants64_min", Why: "64 two-NF tenants, 64 B frames, 128 rings, closed loop: ring/worker/lease cost dominates, NF speed-ups should not show", run: tenants64Min.run},
	{Name: "fig1_paced", Why: "same chain, default PCIe link, open loop at 200k frames/s: latency at a fixed rate, where batching and wake-up changes show", run: fig1Paced.run},
	{Name: "fig1_migrate", Why: "fig1_paced plus a logger0 migration every 200 ms: freeze, snapshot, restore and replay beside forwarding", run: fig1Migrate.run},
	{Name: "ctl_hotspot", Why: "the paper's closed loop on an idle host: overload onset, detect, PAM select, migrate, relief; dataplane speed-ups must not move it", run: runHotspot},
	{Name: "fleet_handoff", Why: "two in-process servers, 50k frames/s routed by the registry, one cross-server tenant handoff every 250 ms", run: runFleet},
	{Name: "paper_sweep", Why: "the paper's own numbers from the discrete-event simulator and the host cost of producing them; emul changes must not move it", run: runSweep},
}

// contract is mirrored into /BENCHMARK.json: the workloads the driver runs.
var contract = workloads[:4]

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// normalizeArgs lets -trace stand alone as well as take the contract's 0|1
// value: a bare -trace (or one followed by another flag) becomes -trace=1.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args)+1)
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-trace" || a == "--trace" || a == "-compare" || a == "--compare" {
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				out = append(out, a+"="+args[i+1])
				i++
			} else {
				out = append(out, a+"=1")
			}
			continue
		}
		out = append(out, a)
	}
	return out
}

// runSeconds is /BENCHMARK.json's run_seconds: the window the contract's
// bounds were sized at.
const runSeconds = 30

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 42, "seed the generated inputs are made from")
	seconds := fs.Float64("seconds", runSeconds, "length of each workload's measured window")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	runs := fs.Int("runs", 1, "how many sets of runs to make")
	compare := fs.Int("compare", 0, "1 prints median, quartiles and agreement across the sets")
	outDir := fs.String("out", "out", "directory the span files are written to")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *seconds <= 0 || *runs < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds and -runs must be positive, and there are no positional arguments")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{*w}
	}

	// Load comes from this one process: one pool worker and one sender on
	// two processors, whatever the host has.
	runtime.GOMAXPROCS(2)

	e := &env{
		seed:       *seed,
		window:     time.Duration(*seconds * float64(time.Second)),
		trace:      *trace != 0,
		layerCalls: int(1_000_000 * min(*seconds/10, 1)),
		outDir:     *outDir,
	}
	var sets [][]*outcome
	ok := true
	for r := 0; r < *runs; r++ {
		var set []*outcome
		for _, w := range selected {
			o, err := w.run(e)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
			o.print(stdout, e.trace)
			fmt.Fprintln(stdout, o.jsonLine(e.trace))
			ok = ok && o.correct()
			set = append(set, o)
		}
		sets = append(sets, set)
	}
	if *compare != 0 && !printCompare(stdout, sets) {
		ok = false
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: a correctness check failed or the sets disagree")
		return 1
	}
	return 0
}
