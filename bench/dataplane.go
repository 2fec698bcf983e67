package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/device"
	"repro/internal/emul"
	"repro/internal/migrate"
	"repro/internal/packet"
	"repro/internal/pcie"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// dpSpec describes one single-runtime dataplane workload.
type dpSpec struct {
	name      string
	chains    func() ([]*chain.Chain, error)
	link      pcie.Link
	frameSize int
	flows     int
	// rate is the open-loop offered rate in frames/s; 0 is the closed loop.
	rate int
	tick time.Duration
	// depth is the per-element ring depth (emul.Config.QueueDepth).
	depth int
	// migrateEvery, when set, moves logger0 between SmartNIC and CPU at this
	// period from the control goroutine.
	migrateEvery time.Duration
	// budget lists how many times a frame meets each layer-pass cost on this
	// workload's chain, for the nanosecond budget.
	budget map[string]float64
}

const (
	// warmFrames is the fixed number of frames a rig sends and drains during
	// set-up, so frame and decoder pools are populated before the window.
	warmFrames = 40_000
	// setupRuns is how many times a run sets up; setup_s is their median.
	setupRuns = 9
	// stampEvery stamps one frame in seventeen on the dataplane workloads:
	// coprime with the flow, chain and per-tick frame counts, so the stamped
	// frames cover every flow and both shards (one in sixteen would sample
	// flow 0 alone).
	stampEvery = 17
	// migratePeriod spaces fig1_migrate's moves. A move freezes logger0 for
	// 4.5 ms (9.5 ms when the sandbox is slow); at one move per 100 ms that
	// is 5-10 % of the time, which put latency_p90_us on the edge of the
	// freeze tail (118 µs in one run, 2.9 ms in the next).
	migratePeriod = 200 * time.Millisecond
	// pacedTick paces the 200k frames/s open loop in 64-frame ticks: two
	// full 32-frame bursts, so the per-burst DMA charge (43 µs a
	// crossing, whatever the burst size) uses about half the link instead
	// of the 86 % that 200 µs ticks of 40 frames do.
	pacedTick = 320 * time.Microsecond
	// migrateElem is the element fig1_migrate moves.
	migrateElem = scenario.NameLogger
)

func figure1Chains() ([]*chain.Chain, error) { return []*chain.Chain{scenario.Figure1Chain()}, nil }

// tenantChains builds the n Monitor→Firewall tenants of the repo's
// multi-tenant benches.
func tenantChains(n int) func() ([]*chain.Chain, error) {
	return func() ([]*chain.Chain, error) {
		chains := make([]*chain.Chain, n)
		for i := range chains {
			c, err := chain.New(fmt.Sprintf("tenant-%d", i),
				chain.Element{Name: fmt.Sprintf("t%d-mon", i), Type: device.TypeMonitor, Loc: device.KindSmartNIC},
				chain.Element{Name: fmt.Sprintf("t%d-fw", i), Type: device.TypeFirewall, Loc: device.KindSmartNIC},
			)
			if err != nil {
				return nil, err
			}
			chains[i] = c
		}
		return chains, nil
	}
}

var (
	// fig1Budget is what the pool worker does to one frame, the sender's
	// share (acquire, copy, SendChain) being on the other processor: each of
	// the four elements decodes the frame and extracts its flow key again,
	// runs its NF, and observes its meter once per burst; the tail records
	// one latency and observes the chain meter once per burst.
	fig1Budget = map[string]float64{
		"packet.decode_ns": 4, "flow.key_ns": 4,
		"nf.lb_ns": 1, "nf.logger_ns": 1, "nf.monitor_ns": 1, "nf.firewall_ns": 1,
		"metrics.hist_record_ns": 1, "metrics.meter_observe_ns": 5.0 / burst,
	}
	tenantBudget = map[string]float64{
		"packet.decode_ns": 2, "flow.key_ns": 2,
		"nf.monitor_ns": 1, "nf.firewall_ns": 1,
		"metrics.hist_record_ns": 1, "metrics.meter_observe_ns": 3.0 / burst,
	}
)

// Ring depths. 4096 is the repo's dataplane-bench depth. tenants64_min runs
// the emulator's default 256: a closed loop that filled 64 tenants' 4096-deep
// rings had 250k frames (300 MB) in flight, so latency and resident memory
// measured how full the rings happened to be (p99 spread 42 %, RSS 20 % over
// ten runs). fig1_migrate runs 16384: the ring is the freeze buffer and the
// sender holds back at half of it in flight (see measure); half of 4096 is
// 10 ms of traffic, which a 9.5 ms freeze on a slow sandbox reaches.
var (
	fig1Saturate = dpSpec{name: "fig1_saturate", chains: figure1Chains, link: pcie.Link{}, depth: 4096,
		frameSize: 512, flows: 16, budget: fig1Budget}
	tenants64Min = dpSpec{name: "tenants64_min", chains: tenantChains(64), link: pcie.DefaultLink(), depth: 256,
		frameSize: 64, flows: 1024, budget: tenantBudget}
	fig1Paced = dpSpec{name: "fig1_paced", chains: figure1Chains, link: pcie.DefaultLink(), depth: 4096,
		frameSize: 512, flows: 16, rate: 200_000, tick: pacedTick, budget: fig1Budget}
	fig1Migrate = dpSpec{name: "fig1_migrate", chains: figure1Chains, link: pcie.DefaultLink(), depth: 16384,
		frameSize: 512, flows: 16, rate: 200_000, tick: pacedTick,
		migrateEvery: migratePeriod, budget: fig1Budget}
)

// newTap sizes the latency tap for one window of this workload; every rig of
// the run shares it. An open loop stamps rate/stampEvery frames a second and
// all are recorded; a closed loop stamps as fast as the system forwards (no
// code here reaches 4M frames/s) and one stamped frame in eight is recorded.
func (s dpSpec) newTap(window time.Duration) *latencyTap {
	perSec, every := 4_000_000/stampEvery, 8
	if s.rate > 0 {
		perSec, every = s.rate/stampEvery, 1
	}
	return newLatencyTap(int(window.Seconds()*float64(perSec/every))+1024, every)
}

// dpRig is one built and warmed-up runtime with its frame templates.
type dpRig struct {
	spec   dpSpec
	seed   int64
	rt     *emul.Runtime
	chains []*chain.Chain
	tmpls  [][]byte
	tap    *latencyTap
}

// build sets a rig up: frame templates from the seed, the runtime, the
// egress tap, and a fixed warm-up that is sent closed-loop and drained.
func (s dpSpec) build(seed int64, tap *latencyTap) (*dpRig, error) {
	chains, err := s.chains()
	if err != nil {
		return nil, fmt.Errorf("%s: chains: %w", s.name, err)
	}
	rt, err := emul.New(emul.Config{
		Chains:  chains,
		Catalog: device.Table1(),
		Link:    s.link,
		// Scale 0.1 lifts the device budgets above what the host can push,
		// so the gates never run dry and the code is what is measured.
		Scale:      0.1,
		QueueDepth: s.depth,
		BatchSize:  burst,
		// One pool worker and the one sender: as many running threads as
		// the box has processors. With two workers the sender spun on one
		// processor and the workers took turns on the other, parking and
		// waking at every turn, and the runs measured the scheduler: over
		// eight interleaved pairs of 12 s runs tenants64_min's frames/s
		// spread 15 % against 7 %, allocations per frame 0.8-2.7 % against
		// 0.1-0.8 % and fig1_migrate's peak RSS 12 % against 5 %.
		Workers:    1,
		PoolFrames: true,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: runtime: %w", s.name, err)
	}
	r := &dpRig{spec: s, seed: seed, rt: rt, chains: chains, tmpls: balancedFrames(seed, s.flows, s.frameSize), tap: tap}
	rt.SetChainEgressTap(r.tap.observe)
	rt.Start()
	for k := uint64(0); k < warmFrames; k++ {
		ci, f := r.prep(k)
		for !rt.SendChain(ci, f) {
			runtime.Gosched()
		}
	}
	rt.Drain()
	r.tap.reset()
	return r, nil
}

// balancedFrames mints one frame template per flow from the seed, choosing
// the flows so that the emulator's two flow-hash shards get half each: the
// first half of the templates hash to shard 0, the second half to shard 1,
// so a chain fed every n-th template still uses both. A free draw of
// sixteen flows splits 11/5 or worse for one seed in five, which would make
// every metric depend on the seed more than on the code.
func balancedFrames(seed int64, flows, size int) [][]byte {
	synth := traffic.NewSynth(8*flows, seed)
	out := make([][]byte, 0, flows)
	for shard := uint64(0); shard < 2; shard++ {
		want := (flows + 1 - int(shard)) / 2
		for i := 0; want > 0 && i < synth.FlowCount(); i++ {
			if f := synth.Frame(uint64(i), size); packet.FlowHash(f)%2 == shard {
				out = append(out, f)
				want--
			}
		}
	}
	return out
}

// prep builds frame k: template k mod flows, chain k mod chains.
func (r *dpRig) prep(k uint64) (int, []byte) {
	tmpl := r.tmpls[k%uint64(len(r.tmpls))]
	f := r.rt.AcquireFrame(len(tmpl))
	copy(f, tmpl)
	return int(k % uint64(len(r.chains))), f
}

// setupMedian runs build setupRuns times, closing every rig but the last,
// and returns the last rig with the median build time in seconds.
func setupMedian[T interface{ close() }](build func() (T, error)) (T, float64, error) {
	var zero, last T
	var times []float64
	for i := 0; i < setupRuns; i++ {
		t0 := nowNs()
		rig, err := build()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, float64(nowNs()-t0)/1e9)
		if i < setupRuns-1 {
			rig.close()
			// Collect the discarded rig now, so the resident-memory peak is
			// the window's and not five set-ups' worth of garbage.
			runtime.GC()
		} else {
			last = rig
		}
	}
	return last, median(times), nil
}

func (r *dpRig) close() { r.rt.Close() }

// dpWindow is what one measured window of a dataplane rig produced.
type dpWindow struct {
	start       int64
	st          loadStats
	delivered   uint64 // frames delivered of those offered in the window
	rates       []float64
	rssAt       []float64 // resident set at each second of the window, MB
	lat         latencyStats
	sampleNs    []int64 // load queries made every 25 ms inside the window
	resultsNs   []int64
	migrateNs   []int64
	reports     []migrate.Report
	mallocs     uint64
	rss         float64
	migrateErrs []error
}

// measure runs one window on the rig.
func (r *dpRig) measure(window time.Duration, tr *tracer) *dpWindow {
	w := &dpWindow{}
	rt := r.rt
	sampler := emul.NewLoadSampler(rt)
	base := rt.Results().Delivered
	lastDelivered, lastAt := base, nowNs()
	ld := &load{
		window: window, rate: r.spec.rate, tick: r.spec.tick, stampEvery: stampEvery, tr: tr,
		prep:  r.prep,
		offer: rt.SendChain,
		onPoll: func() {
			s := tr.begin("emul.sample", -1, int64(len(w.sampleNs)))
			t0 := nowNs()
			ls := sampler.Sample()
			w.sampleNs = append(w.sampleNs, nowNs()-t0)
			tr.end(s)
			sink += ls.DeliveredPkts
		},
		onSecond: func() {
			s := tr.begin("emul.results", -1, int64(len(w.resultsNs)))
			t0 := nowNs()
			res := rt.Results()
			now := nowNs()
			w.resultsNs = append(w.resultsNs, now-t0)
			tr.end(s)
			w.rates = append(w.rates, float64(res.Delivered-lastDelivered)/(float64(now-lastAt)/1e9))
			w.rssAt = append(w.rssAt, rssMB())
			lastDelivered, lastAt = res.Delivered, now
		},
	}
	w.sampleNs = make([]int64, 0, int(window/pollEvery)+1)
	// Half the ingress rings' space may be in flight. That is the closed
	// loops' client count: the sender waits for a delivery, not on a full
	// ring, so it makes no failed SendChain calls (a sender retrying on
	// backpressure made 1.6M a second, each one six atomic writes to lines
	// the worker also writes, and fig1_saturate's frames/s spread 15 % over
	// ten runs). The open loops only reach it catching up from a stall.
	ld.stampedSeen, ld.inFlightCap = r.tap.seen, len(r.chains)*r.spec.depth/2

	to := device.KindCPU
	move := func(i int) {
		s := tr.begin("emul.migrate", -1, int64(i))
		t0 := nowNs()
		rep, err := rt.MigrateChain(0, migrateElem, to)
		w.migrateNs = append(w.migrateNs, nowNs()-t0)
		tr.end(s)
		if err != nil {
			w.migrateErrs = append(w.migrateErrs, err)
			return
		}
		w.reports = append(w.reports, rep)
		if to == device.KindCPU {
			to = device.KindSmartNIC
		} else {
			to = device.KindCPU
		}
	}
	var ctl sync.WaitGroup
	if r.spec.migrateEvery > 0 {
		ctl.Add(1)
		go func() {
			defer ctl.Done()
			every(r.spec.migrateEvery, window, r.seed, move)
		}()
	}

	// Start every window from a collected heap, so where its collection
	// cycles fall — and the resident-memory peak with them — repeats.
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w.start = nowNs()
	w.st = ld.run()
	runtime.ReadMemStats(&m1)
	ctl.Wait()
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.rss = peakRSSMB()
	w.rssAt = append(w.rssAt, rssMB())
	rt.Drain()
	w.delivered = rt.Results().Delivered - base
	w.lat = summarize(r.tap.samples(), w.start)
	return w
}

// framesPerS returns the delivered rate: fastSide of the per-second deltas,
// or the whole-window average when the window was too short to take one.
func (w *dpWindow) framesPerS() (float64, int) {
	if len(w.rates) == 0 {
		return float64(w.delivered) / w.st.elapsed.Seconds(), 1
	}
	return fastSide(w.rates, true), len(w.rates)
}

// accountingGaps tests the emulator's accounting identity per chain on a
// drained runtime — accepted = delivered + NF drops + queue drops — and
// returns how many chains are off it and by how many frames in total.
func accountingGaps(rt *emul.Runtime, chains []*chain.Chain) (bad int, lost int64) {
	stats := rt.NFStats()
	for ci, res := range rt.ChainResults() {
		accepted := res.Offered - res.IngressDrops
		var nfDrops, qDrops uint64
		for i := 0; i < chains[ci].Len(); i++ {
			key := chains[ci].At(i).Name
			if len(chains) > 1 {
				key = chains[ci].Name + "/" + key
			}
			nfDrops += stats[key].Dropped
			qDrops += res.QueueDrops[key]
		}
		if accepted != res.Delivered+nfDrops+qDrops {
			bad++
			lost += int64(accepted) - int64(res.Delivered+nfDrops+qDrops)
		}
	}
	return bad, lost
}

func checkAccounting(o *outcome, rt *emul.Runtime, chains []*chain.Chain, label string) {
	bad, lost := accountingGaps(rt, chains)
	o.check(label+"accounting", bad == 0, "%d chain(s), %d off the identity (%d frame(s) unaccounted)", len(chains), bad, lost)
}

// run is the workload entry point for the four dataplane workloads.
func (s dpSpec) run(env *env) (*outcome, error) {
	o := newOutcome(s.name)
	tap := s.newTap(env.window)
	build := func() (*dpRig, error) { return s.build(env.seed, tap) }

	if !env.trace {
		rig, setup, err := setupMedian(build)
		if err != nil {
			return nil, err
		}
		defer rig.close()
		w := rig.measure(env.window, nil)
		s.fill(o, rig, w)
		o.set("setup_s", setup, setupRuns, "build + 40k-frame warm-up, median")
		return o, nil
	}

	// Traced run: half a window untraced for the overhead base, then half a
	// window with spans on, each on a fresh rig.
	half := env.window / 2
	plain, err := build()
	if err != nil {
		return nil, err
	}
	wp := plain.measure(half, nil)
	plain.close()
	rig, err := build()
	if err != nil {
		return nil, err
	}
	defer rig.close()
	tr := newTracer()
	w := rig.measure(half, tr)
	s.fill(o, rig, w)
	if err := layerPass(rig.tmpls, env.layerCalls, env.seed, o.layers); err != nil {
		return nil, err
	}
	s.fillLayers(o, rig, w, wp, tr)
	return o, env.writeTrace(s.name, tr)
}

// fill turns a window into the outcome's checks and end-to-end metrics.
func (s dpSpec) fill(o *outcome, rig *dpRig, w *dpWindow) {
	o.attempted = int64(w.st.sent)
	o.failed = int64(w.st.sent) - int64(w.delivered)
	checkAccounting(o, rig.rt, rig.chains, "")
	o.check("delivered", w.delivered > 0 && w.delivered <= w.st.sent, "%d of %d frames", w.delivered, w.st.sent)

	fps, n := w.framesPerS()
	o.set("frames_per_s", fps, n, "upper decile of the per-second delivered deltas")
	o.set("allocs_per_frame", float64(w.mallocs)/float64(w.st.sent), int(w.st.sent), "MemStats.Mallocs delta / frames offered")
	o.set("latency_p50_us", w.lat.p50, len(w.lat.all), "egress tap - due time, 1 frame in 17; lower decile of the per-second p50s")
	o.set("delivered_ratio", float64(w.delivered)/float64(w.st.sent), int(w.st.sent), "delivered / offered")
	o.set("rss_mb", mean(w.rssAt), len(w.rssAt), "VmRSS each second and at the end of the window, mean")
	o.addDetail("peak_rss_mb", "MB", w.rss, 1, "VmHWM at the end of the window")
	o.addDetail("latency_p90_us", "us", w.lat.p90, len(w.lat.all), "lower decile of the per-second p90s")
	o.addDetail("latency_p99_us", "us", w.lat.p99, len(w.lat.all), "lower decile of the per-second p99s")
	if hp := highestPercentile(len(w.lat.all)); hp > 0 {
		o.addDetail("latency_tail_us", "us", quantile(w.lat.all, hp/100), len(w.lat.all), fmt.Sprintf("p%g, the highest percentile with >= 10 samples beyond it", hp))
	}
	o.addDetail("fail_ratio", "1", o.failRatio(), int(w.st.sent), "queue-dropped or undelivered / offered")
	o.addDetail("send_reject_ratio", "1", w.st.rejectRatio(), int(w.st.attempts), "backpressure retries / SendChain calls")
	o.addDetail("load_query_ms", "ms", median(scaled(w.sampleNs, 1e6)), len(w.sampleNs), "LoadSampler.Sample wall time beside the traffic, median")
	if s.rate > 0 {
		o.addDetail("gen_late_p99_us", "us", w.st.lateP99(), len(w.st.late), "how late the pacer started a tick")
		o.addDetail("held_yields", "count", float64(w.st.held), int(w.st.sent), "yields the sender spent under the in-flight cap")
	}
	if s.migrateEvery == 0 {
		return
	}
	ms := sorted(scaled(w.migrateNs, 1e6))
	o.addDetail("migrate_wall_ms", "ms", quantile(ms, 0.5), len(ms), "MigrateChain wall time under load, median")
	o.addDetail("migrate_wall_p90", "ms", quantile(ms, 0.9), len(ms), "p90 of the same")
	o.check("migrations", len(w.migrateErrs) == 0 && len(w.reports) > 0, "%d done, %d error(s)", len(w.reports), len(w.migrateErrs))
	want := device.KindSmartNIC
	if len(w.reports)%2 == 1 {
		want = device.KindCPU
	}
	place := rig.rt.Placements()[0]
	got := place.At(place.Index(migrateElem)).Loc
	o.check("final-placement", got == want, "%s on %v after %d moves (want %v)", migrateElem, got, len(w.reports), want)
}

// fillLayers derives the per-layer metrics of a traced window.
func (s dpSpec) fillLayers(o *outcome, rig *dpRig, w, plain *dpWindow, tr *tracer) {
	L := o.layers
	spans := tr.snapshot()
	L["trace.spans"] = float64(len(spans))
	fps, _ := w.framesPerS()
	base, _ := plain.framesPerS()
	L["trace.overhead_ratio"] = fps / base
	if s.rate > 0 {
		// The open loop pins throughput to the offered rate; its primary
		// metric is the median latency.
		L["trace.overhead_ratio"] = w.lat.p50 / plain.lat.p50
	}

	L["emul.send_ns"] = median(scaled(durations(spans, "emul.send"), 1))
	L["emul.send_reject_ratio"] = w.st.rejectRatio()
	L["emul.sample_us"] = median(scaled(w.sampleNs, 1e3))
	L["emul.results_us"] = median(scaled(w.resultsNs, 1e3))
	res := rig.rt.Results()
	L["emul.latency_p90_us"] = w.lat.p90
	L["emul.latency_p99_us"] = w.lat.p99
	L["emul.hist_p50_us"] = float64(res.Latency.P50) / 1e3
	L["emul.hist_p99_us"] = float64(res.Latency.P99) / 1e3
	L["emul.ingress_drops"] = float64(res.IngressDrops)
	var qd uint64
	for _, n := range res.QueueDrops {
		qd += n
	}
	L["emul.queue_drops"] = float64(qd)
	if s.rate > 0 {
		L["traffic.gen_late_p99_us"] = w.st.lateP99()
	}

	// Where the nanoseconds go: the closed loops are bound by the one pool
	// worker (the sender retries on backpressure), so at saturation a frame
	// costs it 1e9/frames_per_s. The layer pass accounts for part of that;
	// the remainder is what rings, gates, leases, the DMA gate, polling and
	// wake-ups cost.
	if s.rate == 0 {
		worker := 1e9 / fps
		var covered float64
		for k, times := range s.budget {
			covered += L[k] * times
		}
		L["emul.worker_ns_per_frame"] = worker
		L["emul.residual_ns"] = worker - covered
		L["emul.budget_covered_ratio"] = covered / worker
	}

	if s.migrateEvery > 0 {
		L["emul.migrate_wall_ms"] = median(scaled(w.migrateNs, 1e6))
		L["emul.latency_p99_mig_us"] = quantile(w.lat.all, 0.99)
		var buf, rep, state, xfer []float64
		for _, r := range w.reports {
			buf = append(buf, float64(r.Buffered))
			rep = append(rep, float64(r.Replayed))
			state = append(state, float64(r.StateBytes))
			xfer = append(xfer, float64(r.Transfer)/1e3)
		}
		L["migrate.buffered_frames"] = mean(buf)
		L["migrate.replayed_frames"] = mean(rep)
		L["migrate.state_bytes"] = mean(state)
		L["migrate.model_transfer_us"] = mean(xfer)
	}
}
