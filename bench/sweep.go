package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/chainsim"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/pcie"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// sweepSizes is the reduced packet-size sweep: smallest, middle, largest.
var sweepSizes = []int{64, 512, 1500}

// Goldens of the sweep at seed 42 (Original, Naive, PAM): the paper's
// crossing counts, the delivered Gbps under overload averaged over the
// sizes, and the headline latency gap.
var (
	goldCrossings  = [3]int{2, 4, 2}
	goldThroughput = [3]float64{1.096, 1.715, 2.000}
	goldGapPct     = 18.2
)

const goldSeed = 42

// The unit simulation behind paper_sweep's latency metrics: unitRuns runs of
// unitSim simulated time each (about 390 packets).
const (
	unitRuns   = 1000
	unitChunks = 10
	unitSim    = 2 * time.Millisecond
)

// unitSims times unit simulations in chunks; each chunk has its own p50 and
// p90, aggregated like the dataplane's seconds (see fastSide).
type unitSims struct {
	perChunk   int
	all        []float64 // µs
	p50s, p90s []float64
}

// run times half of the chunks.
func (u *unitSims) run(p scenario.Params) error {
	for c := 0; c < unitChunks/2; c++ {
		chunk := make([]float64, 0, u.perChunk)
		for i := 0; i < u.perChunk; i++ {
			t0 := nowNs()
			if _, err := simRun(p, unitSim); err != nil {
				return fmt.Errorf("paper_sweep: unit run: %w", err)
			}
			chunk = append(chunk, float64(nowNs()-t0)/1e3)
		}
		chunk = sorted(chunk)
		u.all = append(u.all, chunk...)
		u.p50s, u.p90s = append(u.p50s, quantile(chunk, 0.5)), append(u.p90s, quantile(chunk, 0.9))
	}
	return nil
}

// sweepPackets is how many packets one sweep offers the simulator: per
// policy and size, a probe run and an overload run whose durations follow
// experiments.sweepDuration (200k frames, clamped to [40 ms, 150 ms]).
func sweepPackets(p scenario.Params) float64 {
	var n float64
	for _, size := range p.PacketSizes {
		for _, rate := range []float64{p.ProbeGbps, p.OverloadGbps} {
			pps := rate * 1e9 / 8 / float64(size)
			sec := math.Min(math.Max(200_000/pps, 0.040), 0.150)
			n += pps * sec
		}
	}
	return 3 * n
}

// simRun is one chainsim run on a placement: the unit of work the sweep
// repeats, also used for set-up's warm-up and for the simulated latency
// percentiles the sweep's own result type does not carry.
func simRun(p scenario.Params, dur time.Duration) (chainsim.Result, error) {
	_, _, pam, err := experiments.Placements(p)
	if err != nil {
		return chainsim.Result{}, err
	}
	s, err := chainsim.New(chainsim.Config{
		Chain:         pam,
		Catalog:       device.Table1(),
		NFOverhead:    p.NFOverhead,
		Link:          pcie.Link{PropDelay: p.PCIeLatency, BandwidthGbps: p.PCIeBandwidthGbps},
		DMAEngineGbps: p.DMAEngineGbps.Float(),
		QueueCapacity: p.QueueCapacity,
		Seed:          p.Seed,
	})
	if err != nil {
		return chainsim.Result{}, err
	}
	src, err := traffic.NewGen(p.ProbeGbps, traffic.FixedSize(512), traffic.ProcessCBR, 16, 0, dur, p.Seed)
	if err != nil {
		return chainsim.Result{}, err
	}
	s.Inject(src)
	return s.Run(dur + 20*time.Millisecond), nil
}

type sweepRig struct{}

func (sweepRig) close() {}

func runSweep(env *env) (*outcome, error) {
	o := newOutcome("paper_sweep")
	p := scenario.DefaultParams()
	p.PacketSizes = sweepSizes
	p.Seed = env.seed
	window := env.window
	// Only the full sweep at the golden seed has golden values; the reduced
	// ones are range-checked.
	golden := env.seed == goldSeed
	switch {
	case env.trace:
		// The traced run cuts the work, not the window: the middle size.
		p.PacketSizes, window, golden = sweepSizes[1:2], 0, false
	case env.window < 5*time.Second:
		// Too short for one full sweep (about 8 s): the largest size alone.
		p.PacketSizes, golden = sweepSizes[2:], false
	}
	// The sweep's simulated statistics repeat exactly, so they are checked,
	// not timed. The latency a user of the simulator waits for is host time:
	// that of one small simulation, the unit every experiment repeats. Half
	// of them run before the sweep and half after, in chunks.
	units := &unitSims{perChunk: max(int(unitRuns*min(env.window.Seconds()/10, 1))/unitChunks, 4)}

	_, setup, err := setupMedian(func() (sweepRig, error) {
		_, err := simRun(p, 40*time.Millisecond)
		return sweepRig{}, err
	})
	if err != nil {
		return nil, fmt.Errorf("paper_sweep: set-up: %w", err)
	}
	o.set("setup_s", setup, setupRuns, "placements + one 40 ms warm-up simulation, median")

	tr := (*tracer)(nil)
	if env.trace {
		tr = newTracer()
	}
	if err := units.run(p); err != nil {
		return nil, err
	}
	resetPeakRSS()
	var hosts []float64
	var outs []experiments.PolicyOutcome
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := nowNs()
	for {
		sp := tr.begin("experiments.sweep", -1, int64(len(hosts)))
		t0 := nowNs()
		outs, err = experiments.SweepPolicies(p)
		host := float64(nowNs()-t0) / 1e9
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("paper_sweep: %w", err)
		}
		hosts = append(hosts, host)
		if float64(nowNs()-start)/1e9+host > window.Seconds() {
			break
		}
	}
	runtime.ReadMemStats(&m1)
	total := float64(nowNs()-start) / 1e9
	pkts := sweepPackets(p) * float64(len(hosts))

	// Checks: exact goldens at the golden seed, ranges elsewhere.
	tol := 0.03
	if golden {
		tol = 0.001
	}
	var avgLat [3]float64
	for i, out := range outs {
		o.attempted += 2
		okC := out.Crossings == goldCrossings[i]
		okT := math.Abs(out.AvgThrough-goldThroughput[i]) <= tol*goldThroughput[i]
		o.check(out.Name+"-crossings", okC, "%d (want %d)", out.Crossings, goldCrossings[i])
		o.check(out.Name+"-throughput", okT, "%.4f Gbps (want %.3f within %.1f%%)", out.AvgThrough, goldThroughput[i], tol*100)
		for _, ok := range []bool{okC, okT} {
			if !ok {
				o.failed++
			}
		}
		avgLat[i] = out.AvgLatency
	}
	gap := (avgLat[1] - avgLat[2]) / avgLat[1] * 100
	okGap := gap >= 12 && gap <= 25
	if golden {
		okGap = math.Abs(gap-goldGapPct) <= 0.05
	}
	o.attempted++
	if !okGap {
		o.failed++
	}
	o.check("pam-gap", okGap, "%.3f %% (Naive - PAM)/Naive average latency (seed-42 golden %.1f)", gap, goldGapPct)

	if err := units.run(p); err != nil { // the second half, after the sweep
		return nil, err
	}
	lat := sorted(units.all)
	o.set("frames_per_s", pkts/total, len(hosts), "simulated packets offered / host second")
	o.set("allocs_per_frame", float64(m1.Mallocs-m0.Mallocs)/pkts, int(pkts), "per simulated packet")
	o.set("latency_p50_us", fastSide(units.p50s, false), len(lat), "host time of one 2 ms simulation (PAM placement, 512 B, probe rate); lower decile of the chunks' p50s")
	o.addDetail("latency_p90_us", "us", fastSide(units.p90s, false), len(lat), "lower decile of the chunks' p90s")
	o.addDetail("latency_p99_us", "us", quantile(lat, 0.99), len(lat), "")
	o.set("delivered_ratio", outs[2].AvgThrough/p.OverloadGbps, len(p.PacketSizes), "simulated: PAM delivered / offered under overload")
	o.set("rss_mb", rssMB(), 1, "VmRSS after the sweeps")
	o.addDetail("peak_rss_mb", "MB", peakRSSMB(), 1, "VmHWM")
	o.addDetail("sweep_host_s", "s", median(hosts), len(hosts), "host wall time of one SweepPolicies")
	o.addDetail("pam_gap_pct", "%", gap, 1, "simulated; must not move")
	o.addDetail("fail_ratio", "1", o.failRatio(), int(o.attempted), "statistics off their golden value or range")

	if !env.trace {
		return o, nil
	}
	if err := layerPass(balancedFrames(env.seed, 16, 512), env.layerCalls, env.seed, o.layers); err != nil {
		return nil, err
	}
	L := o.layers
	L["trace.spans"] = float64(len(tr.snapshot()))
	L["trace.overhead_ratio"] = 1 // spans wrap whole sweeps: nothing inside is traced
	L["experiments.sweep_host_s"] = median(hosts)
	L["experiments.pam_gap_pct"] = gap
	return o, env.writeTrace("paper_sweep", tr)
}
