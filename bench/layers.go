package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/nf"
	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// perLayer is the contract's per-layer set, named module.metric after the
// repo's packages. The traced run of every contract workload reports every
// one of them: the layer pass (pure functions timed in isolation on the
// workload's own frames) fills the packet/flow/nf/metrics/core/telemetry/
// fleet-registry/chainsim rows everywhere, and a span-derived row is zero on
// a workload that never calls that layer.
var perLayer = []metricDef{
	{Name: "packet.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.flowhash_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.acquire_copy_ns", Unit: "ns", Better: "lower"},
	{Name: "flow.key_ns", Unit: "ns", Better: "lower"},
	{Name: "nf.lb_ns", Unit: "ns", Better: "lower"},
	{Name: "nf.logger_ns", Unit: "ns", Better: "lower"},
	{Name: "nf.monitor_ns", Unit: "ns", Better: "lower"},
	{Name: "nf.firewall_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.hist_record_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.meter_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "emul.send_ns", Unit: "ns", Better: "lower"},
	{Name: "emul.send_reject_ratio", Unit: "1", Better: "lower"},
	{Name: "emul.worker_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "emul.residual_ns", Unit: "ns", Better: "lower"},
	{Name: "emul.budget_covered_ratio", Unit: "1", Better: "higher"},
	{Name: "emul.hist_p50_us", Unit: "us", Better: "lower"},
	{Name: "emul.hist_p99_us", Unit: "us", Better: "lower"},
	{Name: "emul.sample_us", Unit: "us", Better: "lower"},
	{Name: "emul.results_us", Unit: "us", Better: "lower"},
	{Name: "emul.queue_drops", Unit: "count", Better: "lower"},
	{Name: "emul.ingress_drops", Unit: "count", Better: "lower"},
	{Name: "emul.migrate_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "emul.latency_p90_us", Unit: "us", Better: "lower"},
	{Name: "emul.latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "emul.latency_p99_mig_us", Unit: "us", Better: "lower"},
	{Name: "traffic.gen_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "migrate.buffered_frames", Unit: "count", Better: "lower"},
	{Name: "migrate.replayed_frames", Unit: "count", Better: "lower"},
	{Name: "migrate.state_bytes", Unit: "count", Better: "lower"},
	{Name: "migrate.model_transfer_us", Unit: "us", Better: "lower"},
	{Name: "core.select_us", Unit: "us", Better: "lower"},
	{Name: "core.select_allocs", Unit: "count", Better: "lower"},
	{Name: "core.multiselect16_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.rebalance64_us", Unit: "us", Better: "lower"},
	{Name: "chainsim.ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "chainsim.allocs_per_pkt", Unit: "1", Better: "lower"},
	{Name: "chainsim.pkts_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.overhead_ratio", Unit: "1", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// extendedLayers are the span-derived rows of the three workloads outside
// the contract (ctl_hotspot, fleet_handoff, paper_sweep): their traced runs
// print these beside the rows above.
var extendedLayers = []metricDef{
	{Name: "orchestrator.poll_us", Unit: "us", Better: "lower"},
	{Name: "orchestrator.poll_migrate_ms", Unit: "ms", Better: "lower"},
	{Name: "orchestrator.time_to_detect_ms", Unit: "ms", Better: "lower"},
	{Name: "orchestrator.time_to_relief_ms", Unit: "ms", Better: "lower"},
	{Name: "orchestrator.recovered_ratio", Unit: "1", Better: "higher"},
	{Name: "fleet.handoff_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.coordinator_self_us", Unit: "us", Better: "lower"},
	{Name: "fleet.leg_prepare_us", Unit: "us", Better: "lower"},
	{Name: "fleet.leg_detach_us", Unit: "us", Better: "lower"},
	{Name: "fleet.leg_commit_us", Unit: "us", Better: "lower"},
	{Name: "fleet.leg_finalize_us", Unit: "us", Better: "lower"},
	{Name: "fleet.state_bytes", Unit: "count", Better: "lower"},
	{Name: "fleet.buffered_frames", Unit: "count", Better: "lower"},
	{Name: "experiments.sweep_host_s", Unit: "s", Better: "lower"},
	{Name: "experiments.pam_gap_pct", Unit: "%", Better: "higher"},
}

// burst is the batch size of the layer pass, the dataplane's default.
const burst = 32

// sink keeps the layer pass's results alive so the compiler cannot drop the
// measured calls.
var sink uint64

// perCall times fn — which makes calls calls — five times and returns the
// median cost of one call in nanoseconds.
func perCall(calls int, fn func()) float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		t0 := nowNs()
		fn()
		runs = append(runs, float64(nowNs()-t0)/float64(calls))
	}
	return median(runs)
}

// layerPass times the pure per-frame functions of each layer in isolation,
// on the given frames: calls calls each (five rounds of calls/5), batched
// APIs in 32-frame bursts and reported per frame. Control-plane functions
// run a fixed, smaller number of calls since each costs microseconds.
func layerPass(frames [][]byte, calls int, seed int64, out map[string]float64) error {
	if calls < 5*burst {
		calls = 5 * burst
	}
	round := calls / 5
	bursts := round / burst
	frame := func(i int) []byte { return frames[i%len(frames)] }

	dec := packet.NewDecoder()
	out["packet.decode_ns"] = perCall(round, func() {
		for i := 0; i < round; i++ {
			layers, _ := dec.Decode(frame(i)) // frames are well-formed by construction
			sink += uint64(len(layers))
		}
	})
	out["packet.flowhash_ns"] = perCall(round, func() {
		for i := 0; i < round; i++ {
			sink += packet.FlowHash(frame(i))
		}
	})
	pool := packet.NewFramePool()
	out["packet.acquire_copy_ns"] = perCall(round, func() {
		for i := 0; i < round; i++ {
			t := frame(i)
			f := pool.Get(len(t))
			copy(f, t)
			pool.Put(f)
		}
	})
	out["flow.key_ns"] = perCall(round, func() {
		for i := 0; i < round; i++ {
			k, _ := flow.FromDecoder(dec)
			sink += uint64(k.SrcPort)
		}
	})

	// One burst of decoded contexts over private copies of the frames (the
	// load balancer rewrites headers in place).
	ctxs := make([]nf.Ctx, burst)
	ptrs := make([]*nf.Ctx, burst)
	for i := range ctxs {
		f := append([]byte(nil), frame(i)...)
		d := packet.NewDecoder()
		if _, err := d.Decode(f); err != nil {
			return fmt.Errorf("layer pass: decode frame %d: %w", i, err)
		}
		ctxs[i] = nf.Ctx{Frame: f, Decoder: d}
		if k, ok := flow.FromDecoder(d); ok {
			ctxs[i].FlowKey, ctxs[i].HasFlow = k, true
		}
		ptrs[i] = &ctxs[i]
	}
	for _, e := range []struct{ metric, typ string }{
		{"nf.lb_ns", device.TypeLoadBalancer},
		{"nf.logger_ns", device.TypeLogger},
		{"nf.monitor_ns", device.TypeMonitor},
		{"nf.firewall_ns", device.TypeFirewall},
	} {
		inst, err := nf.New("layer", e.typ)
		if err != nil {
			return fmt.Errorf("layer pass: %w", err)
		}
		out[e.metric] = perCall(bursts*burst, func() {
			for i := 0; i < bursts; i++ {
				sink += uint64(len(inst.ProcessBatch(ptrs)))
			}
		})
	}

	hist := metrics.NewHistogram()
	lats := make([]int64, burst)
	for i := range lats {
		lats[i] = int64(40_000 + 997*i)
	}
	out["metrics.hist_record_ns"] = perCall(bursts*burst, func() {
		for i := 0; i < bursts; i++ {
			hist.RecordBatch(lats)
		}
	})
	meter := metrics.NewShardedMeter(3, 0)
	out["metrics.meter_observe_ns"] = perCall(round, func() {
		for i := 0; i < round; i++ {
			meter.Cell(1).ObserveN(burst, burst*512, time.Duration(i))
		}
	})

	// Control plane: thousands of calls, not millions.
	ctl := max(round/500, 20)
	p := scenario.DefaultParams()
	view := scenario.View(scenario.Figure1Chain(), p, 1.09)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out["core.select_us"] = perCall(ctl, func() {
		for i := 0; i < ctl; i++ {
			plan, err := core.PAM{}.Select(view)
			if err == nil {
				sink += uint64(len(plan.Steps))
			}
		}
	}) / 1e3
	runtime.ReadMemStats(&m1)
	out["core.select_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(5*ctl)

	nic, cpu := scenario.Devices(p)
	loads := make([]core.Load, 16)
	for i := range loads {
		c := scenario.Figure1Chain()
		c.Name = fmt.Sprintf("tenant-%d", i)
		loads[i] = core.Load{Chain: c, Throughput: device.MeasuredGbps(1.09 / 16)}
	}
	mv := core.MultiView{Loads: loads, Catalog: device.Table1(), NIC: nic, CPU: cpu}
	out["core.multiselect16_us"] = perCall(ctl/4+1, func() {
		for i := 0; i < ctl/4+1; i++ {
			plan, err := core.MultiPAM{}.SelectMulti(mv)
			if err == nil {
				sink += uint64(len(plan.Steps))
			}
		}
	}) / 1e3

	det := telemetry.NewDetector(telemetry.DetectorConfig{Consecutive: 3, Alpha: 0.5})
	out["telemetry.observe_ns"] = perCall(round/10+1, func() {
		for i := 0; i < round/10+1; i++ {
			fire, _ := det.Observe(telemetry.Sample{NICUtil: 0.5, CPUUtil: 0.3, DeliveredGbps: 0.8})
			if fire {
				sink++
			}
		}
	})

	reg, err := fleet.NewRegistry("s0", "s1", "s2", "s3")
	if err != nil {
		return fmt.Errorf("layer pass: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%03d", i)
		reg.Assign(names[i], 0.1+rng.Float64())
	}
	out["fleet.lookup_ns"] = perCall(round/10+1, func() {
		for i := 0; i < round/10+1; i++ {
			s, _ := reg.Lookup(names[i%len(names)])
			sink += uint64(len(s))
		}
	})
	reb := max(ctl/20, 3)
	out["fleet.rebalance64_us"] = perCall(reb, func() {
		for i := 0; i < reb; i++ {
			for _, tn := range names {
				_ = reg.Move(tn, "s0") // tenant and server exist by construction
			}
			sink += uint64(len(reg.Rebalance(0)))
		}
	}) / 1e3

	return chainsimPass(p, seed, out)
}

// chainsimPass times the discrete-event simulator alone: simRun (chainsim.New
// + Inject + Run on the PAM placement at 512 B and the probe rate), the unit
// of work paper_sweep repeats.
func chainsimPass(p scenario.Params, seed int64, out map[string]float64) error {
	p.Seed = seed
	var ns, allocs, pkts []float64
	for r := 0; r < 3; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := nowNs()
		res, err := simRun(p, 100*time.Millisecond)
		host := float64(nowNs() - t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("layer pass: chainsim: %w", err)
		}
		if res.OfferedPkts == 0 {
			return fmt.Errorf("layer pass: chainsim offered no packets")
		}
		n := float64(res.OfferedPkts)
		ns = append(ns, host/n)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/n)
		pkts = append(pkts, n/(host/1e9))
	}
	out["chainsim.ns_per_pkt"] = median(ns)
	out["chainsim.allocs_per_pkt"] = median(allocs)
	out["chainsim.pkts_per_s"] = median(pkts)
	return nil
}
