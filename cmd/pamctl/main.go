// Command pamctl regenerates the paper's tables and figures, inspects PAM
// decisions, and runs the canonical closed-loop episodes.
//
// Usage:
//
//	pamctl all                  # run every artifact in DESIGN.md's index
//	pamctl table1               # Table 1 capacities
//	pamctl figure1              # Figure 1 placements/crossings narrative
//	pamctl figure2a             # Figure 2(a) latency comparison
//	pamctl figure2b             # Figure 2(b) throughput comparison
//	pamctl pcie                 # §1 PCIe microbenchmark
//	pamctl headline             # §3 18%-lower-latency claim
//	pamctl ablation-pcie        # A1: sensitivity to PCIe latency
//	pamctl ablation-naive       # A2: naive variants vs PAM
//	pamctl future-fpga          # §4 future work: FPGA SmartNIC profile
//	pamctl multistep            # A4: sliding-border multi-migration
//	pamctl plan                 # print the PAM plan for the Figure-1 chain
//	pamctl run <spec>           # a closed-loop episode: detect → select → migrate
//
// The run command takes one of the named scenario specs (internal/scenario,
// DESIGN.md §4): hotspot (the Figure-1 chain ramps into a SmartNIC hot
// spot), multi (three tenants; only the summed NIC demand overloads),
// crossing (the shared PCIe DMA engine saturates while both devices stay
// feasible), stability (a stochastic load hovers at the threshold while the
// reclaim policy tempts the loop to ping-pong) and fleet (both devices hot —
// the loop escalates and a coordinator hands the tenant to a second
// server). It prints the spec's narrative, then evaluates it on the engine
// selected with -engine: "chainsim" walks the decision through the fluid
// model (deterministic, instant: aggregate utilizations calm and at peak,
// the Multi-PAM plan, utilizations after it); "emul" runs the whole episode
// on wall-clock time against the batched execution emulator, where overload
// is detected from measured meter windows and migrations are real
// UNO-style state moves, and exits non-zero when the run does not trace the
// arc the spec expects (scenario.Result.Check, the same check the e2e tests
// call) — the CI seed sweep (scripts/stabilityseeds.sh) relies on that exit
// code.
//
// Flags:
//
//	-csv       also print each table as CSV
//	-probe     latency probe load in Gbps (default 0.8)
//	-overload  overload offered load in Gbps (default 4.0; with run, the
//	           focus tenant's final phase, when given)
//	-pcie      per-crossing PCIe latency (default 43µs)
//	-engine    run backend: chainsim or emul (default chainsim)
//	-seed      seed for every randomized component (default 42)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() {
	p := scenario.DefaultParams()
	csv := flag.Bool("csv", false, "also print tables as CSV")
	probe := flag.Float64("probe", p.ProbeGbps, "latency probe load (Gbps)")
	overload := flag.Float64("overload", p.OverloadGbps, "overload offered load (Gbps)")
	pcieLat := flag.Duration("pcie", p.PCIeLatency, "per-crossing PCIe latency")
	engine := flag.String("engine", "chainsim", "run backend: chainsim or emul")
	seed := flag.Int64("seed", p.Seed, "seed for every randomized component")
	flag.Parse()

	// An override applies exactly when its flag was given — not when its
	// value happens to differ from a default — so -seed 0 and an explicit
	// -overload 4.0 mean what they say.
	overloadSet := false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "probe":
			p.ProbeGbps = *probe
		case "overload":
			p.OverloadGbps, overloadSet = *overload, true
		case "pcie":
			p.PCIeLatency = *pcieLat
		case "seed":
			p.Seed = *seed
		}
	})

	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "all"
	}
	var err error
	switch {
	case p.ProbeGbps <= 0 || p.OverloadGbps <= 0 || p.PCIeLatency <= 0:
		err = fmt.Errorf("-probe, -overload and -pcie must be positive")
	case cmd == "run":
		err = runSpec(*engine, flag.Arg(1), p, overloadSet)
	default:
		err = run(cmd, p, *csv)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pamctl: %v\n", err)
		os.Exit(1)
	}
}

// artifacts maps a command to the experiment regenerating its artifact.
var artifacts = map[string]func(scenario.Params) (experiments.Artifact, error){
	"table1":   experiments.Table1,
	"figure1":  experiments.Figure1,
	"figure2a": experiments.Figure2a,
	"figure2b": experiments.Figure2b,
	"pcie": func(p scenario.Params) (experiments.Artifact, error) {
		return experiments.PCIeMicrobench(p), nil
	},
	"ablation-pcie":  experiments.AblationPCIe,
	"ablation-naive": experiments.AblationNaive,
	"future-fpga":    experiments.FutureFPGA,
	"multistep":      experiments.MultiStep,
}

func run(cmd string, p scenario.Params, csv bool) error {
	emit := func(a experiments.Artifact) {
		fmt.Println(a.Render())
		if csv {
			fmt.Println(a.Table.CSV())
		}
	}
	switch cmd {
	case "all":
		start := time.Now()
		arts, err := experiments.All(p)
		if err != nil {
			return err
		}
		for _, a := range arts {
			emit(a)
			fmt.Println()
		}
		fmt.Printf("(regenerated %d artifacts in %v)\n", len(arts), time.Since(start).Round(time.Millisecond))
	case "headline":
		a, gap, err := experiments.Headline(p)
		if err != nil {
			return err
		}
		emit(a)
		fmt.Printf("PAM reduces average service-chain latency by %.1f%% vs naive (paper: 18%%)\n", gap*100)
	case "plan":
		c := scenario.Figure1Chain()
		v := scenario.View(c, p, device.Gbps(1/0.9125))
		fmt.Printf("chain: %s\n", c)
		for _, sel := range []core.Selector{core.PAM{}, core.NaiveCheapestOnCPU{}, core.NaiveMinNICCapacity{}} {
			plan, err := sel.Select(v)
			if err != nil {
				fmt.Printf("%-18s %v\n", sel.Name()+":", err)
				continue
			}
			fmt.Printf("%-18s %v\n", sel.Name()+":", plan)
		}
	default:
		artifact, ok := artifacts[cmd]
		if !ok {
			names := []string{"all", "headline", "plan", "run <spec>"}
			for name := range artifacts {
				names = append(names, name)
			}
			sort.Strings(names)
			return fmt.Errorf("unknown command %q (try: %s)", cmd, strings.Join(names, ", "))
		}
		a, err := artifact(p)
		if err != nil {
			return err
		}
		emit(a)
	}
	return nil
}
