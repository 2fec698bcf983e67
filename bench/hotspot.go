package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/emul"
	"repro/internal/orchestrator"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// episodeLen is the canonical live hotspot: 300 ms calm at the probe rate,
// then 1.2 s at scenario.LiveOverloadGbps (a fifth and four fifths).
const episodeLen = 1500 * time.Millisecond

// hotWarm is how many frames an episode's set-up sends and drains first.
const hotWarm = 24

// timingSelector is the timing core.Selector wrapper the control loop runs
// the paper's selector behind: it times every Select and, when tracing,
// records it as a child of the Live.Poll span that caused it.
type timingSelector struct {
	inner core.Selector
	tr    *tracer
	op    int64
	ns    []int64
}

func (s *timingSelector) Name() string { return s.inner.Name() }

func (s *timingSelector) Select(v core.View) (core.Plan, error) {
	sp := s.tr.child("core.select", s.op)
	t0 := nowNs()
	plan, err := s.inner.Select(v)
	s.ns = append(s.ns, nowNs()-t0)
	s.tr.end(sp)
	return plan, err
}

// hotRig is one episode's freshly built runtime, control loop and traffic.
type hotRig struct {
	p      scenario.Params
	rt     *emul.Runtime
	live   *orchestrator.Live
	sel    *timingSelector
	src    traffic.Source
	tmpls  [][]byte
	tap    *latencyTap
	warm   uint64 // frames the warm-up delivered
	calm   time.Duration
	total  time.Duration
	closed bool
}

func (r *hotRig) close() {
	if !r.closed {
		r.closed = true
		r.rt.Close()
	}
}

func buildHotRig(seed int64, length time.Duration, tr *tracer, op int64) (*hotRig, error) {
	p := scenario.DefaultParams()
	p.Seed = seed
	lp := scenario.DefaultLiveParams()
	rt, err := scenario.LiveRuntime(p, lp)
	if err != nil {
		return nil, fmt.Errorf("ctl_hotspot: runtime: %w", err)
	}
	r := &hotRig{p: p, rt: rt, calm: length / 5, total: length,
		sel: &timingSelector{inner: core.PAM{}, tr: tr, op: op}}
	// Every frame is stamped: the host is nearly idle (about 400 frames/s).
	r.tap = newLatencyTap(int(length.Seconds()*2000)+64, 1)
	rt.SetChainEgressTap(r.tap.observe)
	rt.Start()
	synth := traffic.NewSynth(lp.Flows, seed)
	r.tmpls = make([][]byte, lp.Flows)
	for i := range r.tmpls {
		r.tmpls[i] = synth.Frame(uint64(i), lp.FrameSize)
	}
	// Warm-up: a fixed handful of frames through the throttled chain, before
	// the control loop attaches, so pools exist and set-up is long enough
	// (tens of milliseconds of gate time) to time.
	for k := 0; k < hotWarm; k++ {
		t := r.tmpls[k%len(r.tmpls)]
		f := rt.AcquireFrame(len(t))
		copy(f, t)
		for !rt.SendChain(0, f) {
			runtime.Gosched()
		}
	}
	rt.Drain()
	r.tap.reset()
	r.warm = rt.Results().Delivered
	r.live, err = orchestrator.NewLive(rt, orchestrator.Config{
		PollEvery: lp.PollEvery,
		Selector:  r.sel,
		Detector:  lp.Detector,
	}, scenario.View(scenario.Figure1Chain(), p, 0))
	if err != nil {
		rt.Close()
		return nil, fmt.Errorf("ctl_hotspot: control loop: %w", err)
	}
	r.src, err = traffic.NewRamp([]traffic.Phase{
		{RateGbps: p.ProbeGbps / lp.Scale, Duration: r.calm},
		{RateGbps: scenario.LiveOverloadGbps / lp.Scale, Duration: length - r.calm},
	}, traffic.FixedSize(lp.FrameSize), traffic.ProcessCBR, uint64(lp.Flows), seed)
	if err != nil {
		rt.Close()
		return nil, fmt.Errorf("ctl_hotspot: ramp: %w", err)
	}
	return r, nil
}

// episode is what one hotspot episode produced.
type episode struct {
	ok         bool
	why        string
	detectMs   float64
	reliefMs   float64
	recovered  float64
	offered    uint64
	delivered  uint64
	elapsed    time.Duration
	mallocs    uint64
	pollNs     []int64     // idle polls
	lat        []latSample // every frame
	calmLat    []float64   // µs, frames due before the overload onset
	transferUs float64     // modelled state-transfer downtime of the move
	lost       int64       // accepted frames the accounting identity cannot place
	queueDrop  uint64
	ingDrop    uint64
}

// run paces the episode's schedule into the runtime against the wall clock
// and polls the control loop every PollEvery from the same goroutine — the
// repo's canonical single-threaded live driver, with spans around the polls.
func (r *hotRig) run(tr *tracer, op int64) episode {
	var ep episode
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	offset := r.rt.Elapsed()
	start := nowNs()
	nextPoll := pollEvery
	next, more := r.src.Next()
	for {
		now := time.Duration(nowNs() - start)
		if now >= nextPoll {
			before := r.live.Migrations()
			done := tr.scope("orchestrator.poll", op)
			t0 := nowNs()
			r.live.Poll()
			d := nowNs() - t0
			done()
			if r.live.Migrations() == before {
				ep.pollNs = append(ep.pollNs, d)
			}
			nextPoll += pollEvery
			continue
		}
		if !more && now >= r.total {
			break
		}
		if more && next.At <= now {
			t := r.tmpls[next.Flow%uint64(len(r.tmpls))]
			f := r.rt.AcquireFrame(len(t))
			copy(f, t)
			putStamp(f, start+int64(next.At))
			ep.offered++
			r.rt.SendChain(0, f) // a refusal is an ingress drop, metered by the runtime
			next, more = r.src.Next()
			continue
		}
		wake := nextPoll
		if more && next.At < wake {
			wake = next.At
		}
		if !more && r.total < wake {
			wake = r.total
		}
		time.Sleep(wake - now)
	}
	runtime.ReadMemStats(&m1)
	r.rt.Drain()
	ep.elapsed = time.Duration(nowNs() - start)
	ep.mallocs = m1.Mallocs - m0.Mallocs
	ep.lat = append([]latSample(nil), r.tap.samples()...)
	for _, s := range ep.lat {
		if due := s.at - s.lat; due < start+int64(r.calm) {
			ep.calmLat = append(ep.calmLat, float64(s.lat)/1e3)
		}
	}
	res := r.rt.Results()
	ep.delivered = res.Delivered - r.warm
	ep.ingDrop = res.IngressDrops
	for _, n := range res.QueueDrops {
		ep.queueDrop += n
	}
	_, ep.lost = accountingGaps(r.rt, []*chain.Chain{scenario.Figure1Chain()})
	r.judge(&ep, offset)
	return ep
}

// judge checks the episode's arc — detect, push logger0 aside without
// adding a crossing, relief — and extracts its timings.
func (r *hotRig) judge(ep *episode, offset time.Duration) {
	onset := offset + r.calm
	if ep.lost != 0 {
		ep.why = fmt.Sprintf("%d accepted frame(s) unaccounted for", ep.lost)
		return
	}
	var mig *orchestrator.Event
	for _, e := range r.live.Events() {
		if e.Kind == orchestrator.EventMigrated {
			mig = &e
			break
		}
	}
	if mig == nil {
		ep.why = "no migration"
		return
	}
	if n := len(mig.Plan.Steps); n != 1 || mig.Plan.Steps[0].Step.Element != scenario.NameLogger {
		ep.why = fmt.Sprintf("plan %v does not push %s alone", mig.Plan, scenario.NameLogger)
		return
	}
	if before, after := scenario.Figure1Chain().Crossings(), r.rt.Placement().Crossings(); after > before {
		ep.why = fmt.Sprintf("crossings %d -> %d", before, after)
		return
	}
	ep.detectMs = float64(mig.At-onset) / 1e6
	ep.transferUs = float64(mig.Downtime) / 1e3
	samples := r.live.Samples()
	relief := -1
	for i, s := range samples {
		if s.At > mig.At && s.DeliveredGbps >= 0.9*scenario.LiveOverloadGbps {
			relief = i
			break
		}
	}
	if relief < 0 {
		ep.why = "no relief: delivered never reached 0.9 x offered after the move"
		return
	}
	ep.reliefMs = float64(samples[relief].At-onset) / 1e6
	var post []float64
	for _, s := range samples[relief:] {
		if s.At <= offset+r.total { // the window straddling the end is partial
			post = append(post, s.DeliveredGbps)
		}
	}
	ep.recovered = mean(post) / scenario.LiveOverloadGbps
	ep.ok = true
}

// hotRun is a sequence of back-to-back episodes.
type hotRun struct {
	eps    []episode
	setups []float64
	selNs  []int64
	tmpls  [][]byte
}

// describe renders the episode for its check line.
func (ep episode) describe() string {
	if !ep.ok {
		return ep.why
	}
	return fmt.Sprintf("detect %.0f ms, relief %.0f ms, recovered %.3f, %d/%d frames delivered",
		ep.detectMs, ep.reliefMs, ep.recovered, ep.delivered, ep.offered)
}

func runEpisodes(env *env, n int, length time.Duration, tr *tracer) (*hotRun, error) {
	hr := &hotRun{}
	for i := 0; i < n; i++ {
		t0 := nowNs()
		rig, err := buildHotRig(env.seed+int64(i), length, tr, int64(i))
		if err != nil {
			return nil, err
		}
		hr.setups = append(hr.setups, float64(nowNs()-t0)/1e9)
		ep := rig.run(tr, int64(i))
		rig.close()
		hr.selNs, hr.tmpls = append(hr.selNs, rig.sel.ns...), rig.tmpls
		hr.eps = append(hr.eps, ep)
	}
	return hr, nil
}

func runHotspot(env *env) (*outcome, error) {
	o := newOutcome("ctl_hotspot")
	length := min(episodeLen, env.window)
	n := max(int(env.window/length), 1)

	var tr *tracer
	var plain *hotRun
	if env.trace {
		n = max(n/2, 1)
		var err error
		if plain, err = runEpisodes(env, n, length, nil); err != nil {
			return nil, err
		}
		tr = newTracer()
	}
	resetPeakRSS()
	hr, err := runEpisodes(env, n, length, tr)
	if err != nil {
		return nil, err
	}

	var detect, relief, recovered []float64
	var us, calm []float64
	var offered, delivered, mallocs uint64
	var elapsed time.Duration
	for i, ep := range hr.eps {
		o.attempted++
		o.check(fmt.Sprintf("episode-%d-arc", i), ep.ok, "%s", ep.describe())
		offered, delivered, mallocs = offered+ep.offered, delivered+ep.delivered, mallocs+ep.mallocs
		elapsed += ep.elapsed
		for _, s := range ep.lat {
			us = append(us, float64(s.lat)/1e3)
		}
		calm = append(calm, ep.calmLat...)
		if !ep.ok {
			o.failed++
			continue
		}
		detect, relief, recovered = append(detect, ep.detectMs), append(relief, ep.reliefMs), append(recovered, ep.recovered)
	}

	us, calm = sorted(us), sorted(calm)
	o.set("setup_s", median(hr.setups), len(hr.setups), "runtime + 24-frame warm-up + control loop + schedule, median over episodes")
	o.set("frames_per_s", float64(delivered)/elapsed.Seconds(), n, "delivered / wall time over all episodes")
	o.set("allocs_per_frame", float64(mallocs)/float64(offered), int(offered), "control loop included")
	// Latency while the chain is overloaded restates how long the overload
	// lasted (time_to_relief_ms), and its p90 sits on the edge of the overloaded
	// tenth of the frames; the gated percentiles are the calm phase's.
	o.set("latency_p50_us", quantile(calm, 0.5), len(calm), "egress tap - due time, frames due before the overload onset")
	o.addDetail("latency_p90_us", "us", quantile(calm, 0.9), len(calm), "calm phase")
	o.addDetail("latency_p99_us", "us", quantile(us, 0.99), len(us), "every frame of every episode, overload included")
	o.set("delivered_ratio", mean(recovered), len(recovered), "= recovered_ratio")
	o.set("rss_mb", rssMB(), 1, "VmRSS after the last episode")
	o.addDetail("peak_rss_mb", "MB", peakRSSMB(), 1, "VmHWM")
	o.addDetail("time_to_detect_ms", "ms", median(detect), len(detect), "onset -> first EventMigrated.At, median over episodes")
	o.addDetail("time_to_relief_ms", "ms", mean(relief), len(relief), "onset -> first sample after the move with delivered >= 0.9 x offered; mean, values are quantised to the 25 ms poll")
	o.addDetail("recovered_ratio", "1", mean(recovered), len(recovered), "post-move delivered / offered 1.8 Gbps, mean over episodes")
	o.addDetail("fail_ratio", "1", o.failRatio(), n, "episodes whose arc broke or that lost an accepted frame")

	if !env.trace {
		return o, nil
	}
	if err := layerPass(hr.tmpls, env.layerCalls, env.seed, o.layers); err != nil {
		return nil, err
	}
	L := o.layers
	spans := tr.snapshot()
	L["trace.spans"] = float64(len(spans))
	var plainRelief []float64
	for _, ep := range plain.eps {
		if ep.ok {
			plainRelief = append(plainRelief, ep.reliefMs)
		}
	}
	L["trace.overhead_ratio"] = mean(relief) / mean(plainRelief)
	var idle []int64
	var xfer []float64
	for _, ep := range hr.eps {
		if ep.ok {
			xfer = append(xfer, ep.transferUs)
		}
		idle = append(idle, ep.pollNs...)
		L["emul.queue_drops"] += float64(ep.queueDrop)
		L["emul.ingress_drops"] += float64(ep.ingDrop)
	}
	L["orchestrator.poll_us"] = median(scaled(idle, 1e3))
	// The poll that executed the plan, less the selection inside it: the
	// migration itself and the loop's bookkeeping.
	var migSelf []int64
	for i, st := range selfTimes(spans) {
		if spans[i].Name == "orchestrator.poll" && spans[i].End-spans[i].Start != st {
			migSelf = append(migSelf, st)
		}
	}
	L["orchestrator.poll_migrate_ms"] = median(scaled(migSelf, 1e6))
	L["orchestrator.time_to_detect_ms"] = median(detect)
	L["orchestrator.time_to_relief_ms"] = mean(relief)
	L["orchestrator.recovered_ratio"] = mean(recovered)
	// The live loop's own selections, timed through the wrapper, replace the
	// layer pass's isolated figure on this workload.
	if len(hr.selNs) > 0 {
		L["core.select_us"] = median(scaled(hr.selNs, 1e3))
	}
	L["migrate.model_transfer_us"] = mean(xfer)
	return o, env.writeTrace("ctl_hotspot", tr)
}
