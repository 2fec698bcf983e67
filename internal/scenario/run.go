package scenario

// The one scenario runner. Every episode is the same spine: build one
// emulated server per name in the spec (each hosting a copy of every
// tenant's chain), attach the live control loop to each, put a fleet
// coordinator over them when there are several, pace every tenant's
// schedule against the wall clock while polling every loop on one tick,
// then read the run back as one Result. One server is the N = 1 case of the
// fleet loop and one tenant the N = 1 case of the tenant loop.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/emul"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/orchestrator"
	"repro/internal/traffic"
)

// Result is one run's outcome.
type Result struct {
	// Spec is the spec that ran.
	Spec Spec
	// Servers holds each server's control-loop record, in the spec's server
	// order (one entry for a single-server spec); Tenants each tenant's
	// delivered-service record, parallel to Spec.Tenants.
	Servers []ServerResult
	Tenants []TenantResult
	// Handoffs is every cross-server migration the fleet coordinator
	// executed and CoordinatorLog its event trail; both empty on one server.
	Handoffs       []fleet.Migration
	CoordinatorLog []string
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// ServerResult is one server's control-loop record.
type ServerResult struct {
	ID fleet.ServerID
	// Events is the control plane's log (migrations, skips, cooldowns,
	// escalations); Samples the measured telemetry timeline, one entry per
	// poll, with per-tenant delivered rates in each sample's Chains.
	Events  []orchestrator.Event
	Samples []emul.LoadSample
	// Final is the runtime's aggregate end-of-run accounting.
	Final emul.Result
	// History is every executed element move in order; PingPongs the
	// bounces within Spec.BounceHorizon found in it (empty for a stable
	// loop).
	History   []orchestrator.Migration
	PingPongs []orchestrator.PingPong
	// Episodes is the per-migration relief analysis.
	Episodes []Episode
	// Migrations counts executed plans, Reclaims executed reclaim moves and
	// Escalations the loop's scale-out reports.
	Migrations, Reclaims, Escalations int
	// DetectorEvents/Clears/Rearms are the detector's episode counters and
	// DetectorFired whether it ended the run fired.
	DetectorEvents, DetectorClears, DetectorRearms int
	DetectorFired                                  bool
	// Settled reports that the run's final window was below the detector
	// threshold with negligible loss — the loop ended at rest.
	Settled bool
}

// Cleared reports that the server's detector saw an overload end (≥1 clear
// and not currently fired).
func (s ServerResult) Cleared() bool { return s.DetectorClears >= 1 && !s.DetectorFired }

// Episode is one overload episode's lifecycle: when its plan executed, the
// peak demand leading up to it, and how long relief took. Demand is the
// detector's hot measure: the larger of the windowed NIC and DMA-engine
// demand utilizations.
type Episode struct {
	// At is when the episode's migration executed.
	At time.Duration
	// PreDemand is the peak demand between the previous episode's relief
	// and this migration; PostDemand the demand at the relief window — for
	// a converged episode strictly below PreDemand (the Eq. 3 border slide
	// really shed load).
	PreDemand, PostDemand float64
	// Relief is the time from the migration to the first window whose
	// demand is below the detector threshold with negligible loss; −1 when
	// the run ended first.
	Relief time.Duration
}

// TenantResult is one tenant's delivered-service record. A tenant is
// measured where it lives: on its initial home up to the relief of the
// focus tenant's hot spot, on its final home after it.
type TenantResult struct {
	Name string
	// Home is the server hosting the tenant when the run ended, Placement
	// its chain's placement there and Final that chain's end-of-run
	// accounting (latency distribution included).
	Home      fleet.ServerID
	Placement *chain.Chain
	Final     emul.Result
	// BaselineGbps is the mean delivered throughput over the focus tenant's
	// calm phase: the steady state the collapse is measured against and
	// recovery must return to. PreGbps is the mean over the last full
	// windows before the relief (at most 4, all past the calm boundary and
	// the first overload window, which still spends the device gate's
	// banked burst; just the last window when the loop acted before any
	// such window closed) and PostGbps the mean over the run's final
	// windows after it (at most 8, the run-end boundary window dropped);
	// zero when nothing relieved the hot spot.
	BaselineGbps, PreGbps, PostGbps float64
	// MeanGbps and DeliveredP50/P99/P999 summarize the tenant's per-window
	// delivered throughput over the whole run (catalog Gbps): the flatness
	// of a background tenant's delivery under a noisy neighbour.
	MeanGbps, DeliveredP50, DeliveredP99, DeliveredP999 float64
}

// server is one emulated server of a run.
type server struct {
	id      fleet.ServerID
	rt      *emul.Runtime
	live    *orchestrator.Live
	samples []emul.LoadSample // the loop's timeline, read back after the run
}

// drive is one tenant's paced traffic state in the run loop.
type drive struct {
	src   traffic.Source
	synth *traffic.Synth
	next  traffic.Arrival
	ok    bool
}

// Run executes the spec: real frames through real NFs on the live emulator,
// measured telemetry, detection, Multi-PAM selection, real migrations, and —
// with several servers — escalation and cross-server handoff.
func Run(p Params, spec Spec) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	lp := spec.Live
	link := p.PCIeBandwidthGbps
	if spec.LinkGbps > 0 {
		link = spec.LinkGbps.Float()
	}

	servers := make([]*server, len(spec.Servers))
	for si, id := range spec.Servers {
		// Fresh chain objects per server: runtimes must not share them.
		chains := make([]*chain.Chain, len(spec.Tenants))
		for ti, t := range spec.Tenants {
			chains[ti] = t.Chain.Clone()
		}
		rt, err := newRuntime(p, lp, chains, link)
		if err != nil {
			return nil, err
		}
		rt.Start()
		defer rt.Close()
		live, err := orchestrator.NewLive(rt, orchestrator.Config{
			PollEvery:     lp.PollEvery,
			MultiSelector: core.MultiPAM{},
			Detector:      lp.Detector,
			Cooldown:      lp.Cooldown,
			ReclaimAfter:  spec.ReclaimAfter,
		}, spec.View(p))
		if err != nil {
			return nil, err
		}
		servers[si] = &server{id: id, rt: rt, live: live}
	}

	// Routing: a tenant's frames go to its home. On one server that is
	// fixed; in a fleet every send asks the registry, so the coordinator's
	// flip reroutes a tenant mid-run.
	route := func(int) *server { return servers[0] }
	var tier *fleetTier
	if len(servers) > 1 {
		tier = &fleetTier{tr: fleet.NewChanTransport(), byID: map[fleet.ServerID]*server{}}
		defer tier.stop()
		if err := tier.start(&spec, p, servers); err != nil {
			return nil, err
		}
		route = func(ti int) *server {
			id, _ := tier.reg.Lookup(spec.Tenants[ti].Chain.Name) // every tenant stays placed
			return tier.byID[id]
		}
	}

	drives := make([]drive, len(spec.Tenants))
	for ti, t := range spec.Tenants {
		size := t.FrameSize
		if size <= 0 {
			size = lp.FrameSize
		}
		scaled := make([]traffic.Phase, len(t.Phases))
		for j, ph := range t.Phases {
			scaled[j] = traffic.Phase{RateGbps: ph.RateGbps / lp.Scale, Duration: ph.Duration}
		}
		seed := p.Seed + int64(ti)
		src, err := traffic.NewRamp(scaled, traffic.FixedSize(size), traffic.ProcessCBR, uint64(lp.Flows), seed)
		if err != nil {
			return nil, fmt.Errorf("scenario: tenant %q ramp: %w", t.Chain.Name, err)
		}
		d := drive{src: src, synth: traffic.NewSynth(lp.Flows, seed)}
		d.next, d.ok = src.Next()
		drives[ti] = d
	}

	res := &Result{Spec: spec}
	res.Elapsed = paceAndPoll(servers, route, lp.PollEvery, drives, spec.total())
	if tier != nil {
		// Quiesce the control tier before reading its state.
		if err := tier.stop(); err != nil {
			return nil, err
		}
		res.Handoffs, res.CoordinatorLog = tier.coord.Migrations(), tier.coord.Log()
	}
	for _, s := range servers {
		res.Servers = append(res.Servers, s.result(spec.BounceHorizon))
	}
	relief := reliefAt(res.Servers[spec.FocusTenant().Home].Events)
	for ti, t := range spec.Tenants {
		res.Tenants = append(res.Tenants, tenantResult(&spec, ti, servers[t.Home], route(ti), relief))
	}
	return res, nil
}

// paceAndPoll is the wall-clock driver: it paces each drive's arrival
// schedule into its tenant's chain on the server route picks while polling
// every server's control loop every pollEvery, single-threaded, so window
// boundaries are deterministic relative to the schedules even though the
// dataplane itself is concurrent. It runs until every source is exhausted
// and total has elapsed, drains the pipelines, and returns the wall-clock
// elapsed time.
func paceAndPoll(servers []*server, route func(ti int) *server, pollEvery time.Duration, drives []drive, total time.Duration) time.Duration {
	const slack = 500 * time.Microsecond
	start := time.Now()
	nextPoll := pollEvery
	for {
		now := time.Since(start)
		if now >= nextPoll {
			for _, s := range servers {
				s.live.Poll()
			}
			nextPoll += pollEvery
			continue
		}
		// The earliest pending arrival across tenants is the next send.
		best := -1
		for i := range drives {
			if drives[i].ok && (best < 0 || drives[i].next.At < drives[best].next.At) {
				best = i
			}
		}
		if best < 0 && now >= total {
			break
		}
		if best >= 0 && drives[best].next.At <= now+slack {
			d, rt := &drives[best], route(best).rt
			tmpl := d.synth.Frame(d.next.Flow, d.next.Size)
			frame := rt.AcquireFrame(len(tmpl))
			copy(frame, tmpl)
			rt.SendChain(best, frame) // a false return is an ingress drop, already metered
			d.next, d.ok = d.src.Next()
			continue
		}
		wake := nextPoll
		if best >= 0 && drives[best].next.At < wake {
			wake = drives[best].next.At
		}
		if best < 0 && total < wake {
			wake = total
		}
		if d := wake - now; d > 0 {
			time.Sleep(d)
		}
	}
	for _, s := range servers {
		s.rt.Drain()
	}
	return time.Since(start)
}

// fleetTier is the control tier over several servers: the transport, one
// agent per server, the tenant→server registry and its coordinator.
type fleetTier struct {
	tr    *fleet.ChanTransport
	reg   *fleet.Registry
	coord *fleet.Coordinator
	byID  map[fleet.ServerID]*server
}

// start registers an agent per server, scripts the initial placement and
// starts the coordinator.
func (t *fleetTier) start(spec *Spec, p Params, servers []*server) (err error) {
	for _, s := range servers {
		t.byID[s.id] = s
		if _, err = fleet.NewAgent(s.id, s.live, t.tr); err != nil {
			return err
		}
	}
	if t.reg, err = fleet.NewRegistry(spec.Servers...); err != nil {
		return err
	}
	// The scripted initial placement — the skew the escalation path exists
	// to relieve. A tenant's registry weight is its peak summed demand
	// utilization (Σ rate/θ over its elements), the same quantity the
	// coordinator ranks offenders by.
	v := spec.View(p)
	for _, tn := range spec.Tenants {
		a, err := core.Analyze(tn.Chain, v, device.MeasuredGbps(tn.PeakGbps()))
		if err != nil {
			return err
		}
		t.reg.Assign(tn.Chain.Name, a.NICUtil+a.CPUUtil)
		if err = t.reg.Move(tn.Chain.Name, spec.Servers[tn.Home]); err != nil {
			return err
		}
	}
	t.coord = fleet.NewCoordinator(t.reg, t.tr, fleet.CoordinatorConfig{})
	t.coord.Start()
	return nil
}

// stop closes the transport and waits for the coordinator, if it started;
// it is safe to call twice.
func (t *fleetTier) stop() error {
	err := t.tr.Close()
	if t.coord != nil {
		t.coord.Wait()
	}
	return err
}

// hot is the detector's per-window overload measure: NIC or DMA-engine
// demand, whichever is larger.
func hot(s emul.LoadSample) float64 { return math.Max(s.NIC.Utilization, s.DMA.Utilization) }

// result reads one server's loop back after the run.
func (s *server) result(horizon time.Duration) ServerResult {
	det := s.live.Detector()
	s.samples = s.live.Samples()
	r := ServerResult{
		ID:             s.id,
		Events:         s.live.Events(),
		Samples:        s.samples,
		Final:          s.rt.Results(),
		History:        s.live.History(),
		Migrations:     s.live.Migrations(),
		Reclaims:       s.live.Reclaims(),
		DetectorEvents: det.Events(),
		DetectorClears: det.Clears(),
		DetectorRearms: det.Rearms(),
		DetectorFired:  det.Fired(),
	}
	for _, e := range r.Events {
		if e.Kind == orchestrator.EventEscalated {
			r.Escalations++
		}
	}
	r.PingPongs = orchestrator.FindPingPongs(r.History, horizon)
	thr := det.Config()
	r.Episodes = episodes(r.Events, r.Samples, thr.Threshold, thr.LossTrigger)
	if n := len(r.Samples); n > 0 {
		last := r.Samples[n-1]
		r.Settled = hot(last) < thr.Threshold && last.LossRate < thr.LossTrigger
	}
	return r
}

// episodes pairs each executed migration (reclaims excluded) with the
// telemetry around it: peak demand since the previous relief, and the first
// subsequent window back under the threshold.
func episodes(events []orchestrator.Event, samples []emul.LoadSample, threshold, lossTrigger float64) []Episode {
	var out []Episode
	var from time.Duration
	for _, e := range events {
		if e.Kind != orchestrator.EventMigrated {
			continue
		}
		ep := Episode{At: e.At, Relief: -1}
		for _, s := range samples {
			switch {
			case s.At > from && s.At <= e.At:
				ep.PreDemand = math.Max(ep.PreDemand, hot(s))
			case s.At > e.At:
				if hot(s) < threshold && s.LossRate < lossTrigger {
					ep.PostDemand = hot(s)
					ep.Relief = s.At - e.At
				}
			}
			if ep.Relief >= 0 {
				from = e.At + ep.Relief
				break
			}
		}
		out = append(out, ep)
	}
	return out
}

// reliefAt is when the focus tenant's hot spot was acted on: the first
// executed plan on its initial server, or the first handoff that server's
// loop recorded; −1 when neither happened.
func reliefAt(events []orchestrator.Event) time.Duration {
	for _, e := range events {
		if e.Kind == orchestrator.EventMigrated || e.Kind == orchestrator.EventExternal {
			return e.At
		}
	}
	return -1
}

// preWindows and postWindows bound the means around the relief. Pre: enough
// to smooth CBR quantization at the window boundary, few enough to stay
// inside the squeezed phase (the detector fires within a handful of
// windows, so there are rarely more). Post is wider: the recovered steady
// state lasts hundreds of milliseconds, and a single OS-stall-stretched
// window near run end (delivery suppressed with no later catch-up window to
// balance it) must not eat a ±10% recovery bound on its own.
const (
	preWindows  = 4
	postWindows = 8
)

// tenantResult measures tenant ti's delivery around the relief of the focus
// tenant's hot spot, on the server hosting it at the start of the run and
// the one hosting it at the end.
func tenantResult(spec *Spec, ti int, from, to *server, relief time.Duration) TenantResult {
	tr := TenantResult{
		Name:      spec.Tenants[ti].Chain.Name,
		Home:      to.id,
		Placement: to.rt.Placements()[ti],
		Final:     to.rt.ChainResults()[ti],
	}
	// A handed-off tenant's windows are its old home's up to the relief and
	// its new home's after. The servers' clocks start microseconds apart and
	// are polled on one tick, so they share a timeline.
	samples := from.samples
	if to != from {
		samples = nil
		for _, s := range from.samples {
			if s.At < relief {
				samples = append(samples, s)
			}
		}
		for _, s := range to.samples {
			if s.At >= relief {
				samples = append(samples, s)
			}
		}
	}
	calmEnd := spec.calmEnd()
	var all, calm, before, last, after []float64
	for _, s := range samples {
		if ti >= len(s.Chains) {
			continue
		}
		d := s.Chains[ti].DeliveredGbps
		all = append(all, d)
		if calmEnd > 0 && s.At <= calmEnd {
			calm = append(calm, d)
		}
		switch {
		case relief < 0:
		case s.At < relief:
			// Skip windows that touch the calm phase *and* the first full
			// overload window: the device gate spends its banked 10 ms
			// burst right after onset, so that window still measures
			// calm-phase service, not steady contention.
			if s.At-s.Window >= calmEnd+s.Window {
				before = append(before, d)
			}
			last = []float64{d}
		case s.At > relief:
			after = append(after, d)
		}
	}
	if len(before) == 0 {
		before = last // the loop acted before a steady-contention window closed
	}
	if len(before) > preWindows {
		before = before[len(before)-preWindows:]
	}
	// Drop the run's boundary window: the senders and the poll loop stop
	// together, so the final sample can cover a partial-traffic (or
	// stall-stretched) window whose delivered rate is mechanically low.
	if len(after) > 1 {
		after = after[:len(after)-1]
	}
	if len(after) > postWindows {
		after = after[len(after)-postWindows:]
	}
	tr.BaselineGbps, tr.PreGbps, tr.PostGbps = mean(calm), mean(before), mean(after)
	tr.MeanGbps = mean(all)
	tr.DeliveredP50 = metrics.Quantile(all, 0.50)
	tr.DeliveredP99 = metrics.Quantile(all, 0.99)
	tr.DeliveredP999 = metrics.Quantile(all, 0.999)
	return tr
}

func mean(xs []float64) float64 {
	var w metrics.Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Mean()
}

// Check reports whether the run traced the arc its spec expects. The e2e
// tests and `pamctl run`'s exit status share it.
func (r *Result) Check() error {
	spec := &r.Spec
	fi := spec.focus()
	src := r.Servers[spec.Tenants[fi].Home]
	for _, s := range r.Servers {
		if n := len(s.PingPongs); n > 0 {
			return fmt.Errorf("control loop on %s ping-ponged %d time(s) within %v", s.ID, n, spec.BounceHorizon)
		}
	}
	if spec.Push == "" {
		focus := r.Tenants[fi]
		switch {
		case src.Escalations == 0:
			return fmt.Errorf("server %s never escalated — the hot spot was not terminal", src.ID)
		case len(r.Handoffs) == 0:
			return errors.New("the coordinator executed no cross-server migration")
		case r.Handoffs[0].Tenant != spec.Focus || r.Handoffs[0].From != src.ID || focus.Home == src.ID:
			return fmt.Errorf("handoff %v did not move %q off %s", r.Handoffs[0], spec.Focus, src.ID)
		case !src.Cleared():
			return fmt.Errorf("server %s's detector never cleared after the handoff", src.ID)
		case focus.PostGbps <= focus.PreGbps:
			return fmt.Errorf("%q's delivered throughput did not recover (%.3f -> %.3f Gbps)",
				spec.Focus, focus.PreGbps, focus.PostGbps)
		}
		return nil
	}
	switch h := src.History; {
	case src.DetectorEvents == 0:
		return fmt.Errorf("the detector on %s never fired — the run did not exercise the loop", src.ID)
	case len(h) == 0:
		return fmt.Errorf("no plan executed on %s", src.ID)
	case h[0].ChainIndex != fi || h[0].Element != spec.Push || h[0].To != device.KindCPU:
		return fmt.Errorf("first move %+v, want %s of %q pushed to the CPU", h[0], spec.Push, spec.Focus)
	}
	for _, ep := range src.Episodes {
		if ep.Relief >= 0 {
			return nil
		}
	}
	return errors.New("no episode reached relief")
}
