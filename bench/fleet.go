package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/emul"
	"repro/internal/fleet"
	"repro/internal/orchestrator"
	"repro/internal/pcie"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

const (
	fleetRate      = 50_000 // frames/s, open loop
	fleetFrameSize = 512
	fleetTick      = 200 * time.Microsecond // ten frames a tick
	handoffEvery   = 250 * time.Millisecond
	fleetWarm      = 20_000 // warm-up frames, routed like the window's
)

var fleetServers = [2]fleet.ServerID{"srv-a", "srv-b"}

// timingTransport is the timing fleet.Transport decorator: it times every
// Call by protocol leg and, when tracing, records it as a child of the
// Coordinator.Migrate span that caused it.
type timingTransport struct {
	fleet.Transport
	tr   *tracer
	mu   sync.Mutex
	legs map[string][]int64
}

func legName(req fleet.Request) string {
	switch req.(type) {
	case fleet.PrepareReceiveRequest:
		return "prepare"
	case fleet.DetachRequest:
		return "detach"
	case fleet.CommitReceiveRequest:
		return "commit"
	case fleet.FinalizeRequest:
		return "finalize"
	}
	return "other"
}

func (t *timingTransport) Call(id fleet.ServerID, req fleet.Request) (fleet.Reply, error) {
	leg := legName(req)
	sp := t.tr.child("fleet.leg_"+leg, -1)
	t0 := nowNs()
	rep, err := t.Transport.Call(id, req)
	d := nowNs() - t0
	t.tr.end(sp)
	t.mu.Lock()
	t.legs[leg] = append(t.legs[leg], d)
	t.mu.Unlock()
	return rep, err
}

// fleetRig is two in-process servers — runtime, live control loop and fleet
// agent each — behind one coordinator, every tenant starting on srv-a.
type fleetRig struct {
	seed   int64
	rts    [2]*emul.Runtime
	lives  [2]*orchestrator.Live
	chains [2][]*chain.Chain
	tt     *timingTransport
	reg    *fleet.Registry
	coord  *fleet.Coordinator
	names  []string
	tmpls  [][]byte
	tap    *latencyTap
	spare  spares
}

func singleMonitorChains(n int) ([]*chain.Chain, error) {
	chains := make([]*chain.Chain, n)
	for i := range chains {
		c, err := chain.New(fmt.Sprintf("tenant-%02d", i),
			chain.Element{Name: fmt.Sprintf("m%02d", i), Type: device.TypeMonitor, Loc: device.KindSmartNIC})
		if err != nil {
			return nil, err
		}
		chains[i] = c
	}
	return chains, nil
}

func buildFleetRig(seed int64, tenants, tapCap int, tr *tracer) (*fleetRig, error) {
	r := &fleetRig{seed: seed, tap: newLatencyTap(tapCap, 1)}
	r.tt = &timingTransport{Transport: fleet.NewChanTransport(), tr: tr, legs: map[string][]int64{}}
	p := scenario.DefaultParams()
	p.Seed = seed
	for s, id := range fleetServers {
		chains, err := singleMonitorChains(tenants) // fresh chain objects per server
		if err != nil {
			return nil, fmt.Errorf("fleet_handoff: chains: %w", err)
		}
		rt, err := emul.New(emul.Config{
			Chains: chains, Catalog: device.Table1(), Link: pcie.DefaultLink(),
			Scale: 0.1, QueueDepth: 1024, BatchSize: burst, Workers: 2, PoolFrames: true,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet_handoff: runtime %s: %w", id, err)
		}
		rt.SetChainEgressTap(r.tap.observe)
		rt.Start()
		live, err := orchestrator.NewLive(rt, orchestrator.Config{
			PollEvery:     pollEvery,
			MultiSelector: core.MultiPAM{},
			Detector:      telemetry.DetectorConfig{Consecutive: 3, Alpha: 0.5},
		}, scenario.View(nil, p, 0))
		if err != nil {
			return nil, fmt.Errorf("fleet_handoff: control loop %s: %w", id, err)
		}
		if _, err := fleet.NewAgent(id, live, r.tt); err != nil {
			return nil, fmt.Errorf("fleet_handoff: agent %s: %w", id, err)
		}
		r.rts[s], r.lives[s], r.chains[s] = rt, live, chains
	}
	var err error
	if r.reg, err = fleet.NewRegistry(fleetServers[0], fleetServers[1]); err != nil {
		return nil, fmt.Errorf("fleet_handoff: registry: %w", err)
	}
	r.names = make([]string, tenants)
	for i := range r.names {
		r.names[i] = r.chains[0][i].Name
		r.reg.Assign(r.names[i], 1)
		if err := r.reg.Move(r.names[i], fleetServers[0]); err != nil {
			return nil, fmt.Errorf("fleet_handoff: placement: %w", err)
		}
	}
	r.coord = fleet.NewCoordinator(r.reg, r.tt, fleet.CoordinatorConfig{})
	flows := 4 * tenants
	r.tmpls = balancedFrames(seed, flows, fleetFrameSize)
	for _, l := range r.lives {
		l.Start()
	}
	for k := uint64(0); k < fleetWarm; k++ {
		route, f := r.prep(k)
		for !r.offer(route, f) {
			runtime.Gosched()
		}
	}
	r.drain()
	r.tap.reset()
	return r, nil
}

// prep builds frame k for tenant k mod tenants and routes it through the
// registry, the fleet's routing authority, to the tenant's current server.
func (r *fleetRig) prep(k uint64) (int, []byte) {
	tenant := int(k % uint64(len(r.names)))
	srv := 0
	if home, ok := r.reg.Lookup(r.names[tenant]); ok && home == fleetServers[1] {
		srv = 1
	}
	return srv<<16 | tenant, r.spare.frame(r.rts[srv], r.tmpls[k%uint64(len(r.tmpls))])
}

func (r *fleetRig) offer(route int, f []byte) bool {
	return r.rts[route>>16].SendChain(route&0xffff, f)
}

func (r *fleetRig) drain() {
	for _, rt := range r.rts {
		rt.Drain()
	}
}

func (r *fleetRig) delivered() uint64 {
	return r.rts[0].Results().Delivered + r.rts[1].Results().Delivered
}

func (r *fleetRig) close() {
	for _, l := range r.lives {
		l.Stop()
	}
	_ = r.tt.Close() // ChanTransport.Close cannot fail
	for _, rt := range r.rts {
		rt.Close()
	}
}

// fleetWindow is what one measured window of the fleet rig produced.
type fleetWindow struct {
	st        loadStats
	delivered uint64
	rates     []float64
	lat       latencyStats
	handoffNs []int64
	moves     []fleet.Migration
	errs      []error
	mallocs   uint64
	rss       float64 // VmHWM after the window
	rssEnd    float64 // VmRSS after the window
}

func (r *fleetRig) measure(window time.Duration, tr *tracer) *fleetWindow {
	w := &fleetWindow{}
	base := r.delivered()
	lastDelivered, lastAt := base, nowNs()
	ld := &load{
		window: window, rate: fleetRate, tick: fleetTick, stampEvery: 1, tr: tr,
		prep: r.prep, offer: r.offer,
		refused: r.spare.put,
		onSecond: func() {
			d, now := r.delivered(), nowNs()
			w.rates = append(w.rates, float64(d-lastDelivered)/(float64(now-lastAt)/1e9))
			lastDelivered, lastAt = d, now
		},
	}
	var ctl sync.WaitGroup
	ctl.Add(1)
	go func() {
		defer ctl.Done()
		every(handoffEvery, window, r.seed, func(i int) {
			if i > len(r.names) {
				return
			}
			done := tr.scope("fleet.handoff", int64(i))
			t0 := nowNs()
			m, err := r.coord.Migrate(r.names[i-1], fleetServers[1])
			w.handoffNs = append(w.handoffNs, nowNs()-t0)
			done()
			if err != nil {
				w.errs = append(w.errs, err)
				return
			}
			w.moves = append(w.moves, m)
		})
	}()
	resetPeakRSS() // as in dpRig.measure
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := nowNs()
	w.st = ld.run()
	runtime.ReadMemStats(&m1)
	ctl.Wait()
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.rss, w.rssEnd = peakRSSMB(), rssMB()
	r.drain()
	w.delivered = r.delivered() - base
	w.lat = summarize(r.tap.samples(), start)
	return w
}

func runFleet(env *env) (*outcome, error) {
	o := newOutcome("fleet_handoff")
	tenants := max(int(env.window/handoffEvery), 8)
	tapCap := int(env.window.Seconds()*fleetRate) + 1024

	var rig *fleetRig
	var plain *fleetWindow
	var tr *tracer
	window := env.window
	if env.trace {
		window = env.window / 2
		p, err := buildFleetRig(env.seed, tenants, tapCap, nil)
		if err != nil {
			return nil, err
		}
		plain = p.measure(window, nil)
		p.close()
		tr = newTracer()
		if rig, err = buildFleetRig(env.seed, tenants, tapCap, tr); err != nil {
			return nil, err
		}
	} else {
		var setup float64
		var err error
		rig, setup, err = setupMedian(func() (*fleetRig, error) { return buildFleetRig(env.seed, tenants, tapCap, nil) })
		if err != nil {
			return nil, err
		}
		o.set("setup_s", setup, setupRuns, "two servers + coordinator + 20k-frame warm-up, median")
	}
	defer rig.close()
	w := rig.measure(window, tr)

	o.attempted = int64(w.st.sent)
	o.failed = int64(w.st.sent) - int64(w.delivered)
	for s, id := range fleetServers {
		checkAccounting(o, rig.rts[s], rig.chains[s], string(id)+"-")
	}
	o.check("handoffs", len(w.errs) == 0 && len(w.moves) > 0, "%d done, %d error(s) %v", len(w.moves), len(w.errs), w.errs)
	misplaced := 0
	for i, name := range rig.names {
		want := fleetServers[0]
		if i < len(w.moves) {
			want = fleetServers[1]
		}
		if home, _ := rig.reg.Lookup(name); home != want {
			misplaced++
		}
	}
	o.check("final-placement", misplaced == 0, "%d of %d tenants on srv-b, %d misplaced", len(w.moves), len(rig.names), misplaced)

	fps := float64(w.delivered) / w.st.elapsed.Seconds()
	if len(w.rates) > 0 {
		fps = fastSide(w.rates, true)
	}
	ms := sorted(scaled(w.handoffNs, 1e6))
	o.set("frames_per_s", fps, max(len(w.rates), 1), "upper decile of the per-second delivered deltas, both servers")
	o.set("allocs_per_frame", float64(w.mallocs)/float64(w.st.sent), int(w.st.sent), "")
	o.set("latency_p50_us", w.lat.p50, len(w.lat.all), "egress tap - due time, every frame; lower decile of the per-second p50s")
	o.addDetail("latency_p90_us", "us", w.lat.p90, len(w.lat.all), "lower decile of the per-second p90s")
	o.addDetail("latency_p99_us", "us", w.lat.p99, len(w.lat.all), "lower decile of the per-second p99s")
	o.set("delivered_ratio", float64(w.delivered)/float64(w.st.sent), int(w.st.sent), "delivered / offered")
	o.set("rss_mb", w.rssEnd, 1, "VmRSS at the end of the window")
	o.addDetail("peak_rss_mb", "MB", w.rss, 1, "VmHWM")
	o.addDetail("handoff_ms", "ms", quantile(ms, 0.5), len(ms), "Coordinator.Migrate wall time, median")
	o.addDetail("handoff_p90", "ms", quantile(ms, 0.9), len(ms), "p90 of the same")
	o.addDetail("fail_ratio", "1", o.failRatio(), int(w.st.sent), "refused at ingress, queue-dropped or undelivered / offered")
	o.addDetail("gen_late_p99_us", "us", w.st.lateP99(), len(w.st.late), "how late the pacer started a tick")

	if !env.trace {
		return o, nil
	}
	if err := layerPass(rig.tmpls, env.layerCalls, env.seed, o.layers); err != nil {
		return nil, err
	}
	L := o.layers
	spans := tr.snapshot()
	L["trace.spans"] = float64(len(spans))
	L["trace.overhead_ratio"] = quantile(ms, 0.5) / median(scaled(plain.handoffNs, 1e6))
	L["fleet.handoff_ms"] = quantile(ms, 0.5)
	// What Coordinator.Migrate spends outside its four transport legs:
	// registry lookups and the flip, reply checks, bookkeeping.
	var self []int64
	for i, st := range selfTimes(spans) {
		if spans[i].Name == "fleet.handoff" {
			self = append(self, st)
		}
	}
	L["fleet.coordinator_self_us"] = median(scaled(self, 1e3))
	for _, leg := range []string{"prepare", "detach", "commit", "finalize"} {
		L["fleet.leg_"+leg+"_us"] = median(scaled(rig.tt.legs[leg], 1e3))
	}
	var state, buffered []float64
	for _, m := range w.moves {
		state, buffered = append(state, float64(m.StateBytes)), append(buffered, float64(m.Buffered))
	}
	L["fleet.state_bytes"], L["fleet.buffered_frames"] = mean(state), mean(buffered)
	L["emul.send_ns"] = median(scaled(durations(spans, "emul.send"), 1))
	L["emul.send_reject_ratio"] = w.st.rejectRatio()
	L["traffic.gen_late_p99_us"] = w.st.lateP99()
	for _, rt := range rig.rts {
		res := rt.Results()
		L["emul.ingress_drops"] += float64(res.IngressDrops)
		for _, n := range res.QueueDrops {
			L["emul.queue_drops"] += float64(n)
		}
	}
	return o, env.writeTrace("fleet_handoff", tr)
}
