package orchestrator

// The wall-clock backend: the same control loop as the DES Orchestrator,
// closed over the execution emulator. Telemetry comes from measured meter
// windows (emul.LoadSampler) summed across every hosted tenant chain,
// selection runs over a multi-chain view built from the runtime's live
// placements and the measured per-chain delivered rates (rescaled so their
// total is the detector's smoothed measured throughput), and plans execute
// as real UNO-style migrations (emul.Runtime.MigrateChain), chain by chain:
// every shard of the migrating element frozen, state snapshot transferred
// over the emulated link, queues replayed — while every other tenant keeps
// forwarding. This is the first place all layers of the repository run in
// one process.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/emul"
	"repro/internal/telemetry"
)

// Live drives the control loop over an execution-emulator runtime on
// wall-clock time.
type Live struct {
	*loop
	rt      *emul.Runtime
	sampler *emul.LoadSampler

	smu     sync.Mutex
	samples []emul.LoadSample
	// perChain smooths each hosted chain's measured delivered rate (catalog
	// units, parallel to the runtime's chains) over the non-degenerate
	// windows with the detector's EWMA factor — the per-chain mix the
	// selection view apportions the smoothed throughput by. A single window's dip in one tenant's delivery must
	// not re-rank the tenants: an overload control reacts to the smoothed
	// rate, not to one window.
	perChain []telemetry.EWMA
	// nicUtil/cpuUtil/dmaUtil are the last window's measured *demand*
	// utilizations (Σ offered/θ per device; offered crossing load over the
	// shared engine budget for dmaUtil). They ride into the selection view
	// so the overload recheck sees the demand the shared gates could not
	// grant — delivered throughput alone goes blind during a collapse, and
	// a crossing-bound overload is invisible to the device utilizations
	// entirely.
	nicUtil, cpuUtil, dmaUtil float64

	stop chan struct{}
	done chan struct{}
}

// NewLive attaches a control loop to a started (or about-to-start) runtime.
// viewTemplate supplies the device models and catalog; the view's chains
// and throughputs are replaced at each decision with the runtime's live
// placements and the measured (smoothed) delivered rates. Config.Transport
// and Config.StateBytes are ignored: the emulator measures real snapshot
// sizes and reports real transfer times. A runtime hosting several chains
// needs Config.MultiSelector (e.g. core.MultiPAM); Config.Selector covers
// the single-chain case.
func NewLive(rt *emul.Runtime, cfg Config, viewTemplate core.View) (*Live, error) {
	o := &Live{rt: rt, sampler: emul.NewLoadSampler(rt)}
	view := func() core.MultiView {
		placements := rt.Placements()
		loads := make([]core.Load, len(placements))
		o.smu.Lock()
		for i, c := range placements {
			loads[i] = core.Load{Chain: c, Throughput: device.MeasuredGbps(o.perChain[i].Value())}
		}
		nicU, cpuU, dmaU := o.nicUtil, o.cpuUtil, o.dmaUtil
		o.smu.Unlock()
		return multiViewFrom(viewTemplate, loads, nicU, cpuU, dmaU)
	}
	l, err := newLoop(cfg, view, o.execute)
	if err != nil {
		return nil, err
	}
	o.loop = l
	o.perChain = make([]telemetry.EWMA, len(rt.Placements()))
	for i := range o.perChain {
		o.perChain[i].Alpha = l.detector.Config().Alpha
	}
	return o, nil
}

// execute applies the plan step by step via live migration, addressing each
// step to its chain. The returned downtime is the sum of measured
// state-transfer times. A failing step aborts the remainder; earlier steps
// stay applied (each is individually loss-free).
func (o *Live) execute(plan core.MultiPlan) (time.Duration, error) {
	var downtime time.Duration
	for _, st := range plan.Steps {
		rep, err := o.rt.MigrateChain(st.ChainIndex, st.Step.Element, st.Step.To)
		if err != nil {
			return downtime, fmt.Errorf("live migrate chain %d %s: %w", st.ChainIndex, st.Step.Element, err)
		}
		downtime += rep.Transfer
	}
	return downtime, nil
}

// Poll closes the current sampling window and runs one control decision on
// it. The background ticker calls it every Config.PollEvery; tests and the
// single-threaded scenario driver (scenario.Run) call it directly for
// deterministic window boundaries.
func (o *Live) Poll() {
	ls := o.sampler.Sample()
	if ls.Window < time.Millisecond {
		// Degenerate window (back-to-back catch-up polls after a stall,
		// e.g. a migration freeze): the sampler measured nothing and left
		// its cursor in place, so feeding the zero-load sample onward would
		// dilute the EWMA and reset the detector's hot streak for free.
		return
	}
	o.smu.Lock()
	o.samples = append(o.samples, ls)
	o.nicUtil, o.cpuUtil, o.dmaUtil = ls.NIC.Utilization, ls.CPU.Utilization, ls.DMA.Utilization
	for i, cl := range ls.Chains {
		o.perChain[i].Observe(cl.DeliveredGbps)
	}
	o.smu.Unlock()
	o.observe(ls.At, ls.Telemetry())
}

// Samples returns a copy of every sampling window taken so far, the measured
// telemetry timeline reports render.
func (o *Live) Samples() []emul.LoadSample {
	o.smu.Lock()
	defer o.smu.Unlock()
	return append([]emul.LoadSample(nil), o.samples...)
}

// LastSample returns the most recent non-degenerate sampling window, or
// false before the first one closes. The fleet agent enriches escalation
// reports with its per-chain breakdown so the coordinator can identify the
// offending tenant.
func (o *Live) LastSample() (emul.LoadSample, bool) {
	o.smu.Lock()
	defer o.smu.Unlock()
	if len(o.samples) == 0 {
		return emul.LoadSample{}, false
	}
	return o.samples[len(o.samples)-1], true
}

// Runtime exposes the dataplane this loop controls (the fleet agent
// executes chain handoffs against it).
func (o *Live) Runtime() *emul.Runtime { return o.rt }

// NoteExternalMove is NoteExternalMove on the underlying loop stamped with
// the runtime's clock.
func (o *Live) NoteExternalMove(chainIdx int) {
	o.loop.NoteExternalMove(o.rt.Elapsed(), chainIdx)
}

// Start launches the background poller. Stop (or abandoning the runtime)
// ends it; Start after Stop restarts it.
func (o *Live) Start() {
	o.smu.Lock()
	defer o.smu.Unlock()
	if o.stop != nil {
		return
	}
	o.stop = make(chan struct{})
	o.done = make(chan struct{})
	go o.run(o.stop, o.done)
}

func (o *Live) run(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(o.cfg.PollEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			o.Poll()
		}
	}
}

// Stop halts the background poller and waits for it to exit. Safe to call
// when the poller was never started.
func (o *Live) Stop() {
	o.smu.Lock()
	stop, done := o.stop, o.done
	o.stop, o.done = nil, nil
	o.smu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
