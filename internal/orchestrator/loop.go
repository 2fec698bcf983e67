// Package orchestrator closes the paper's control loop over the execution
// emulator: periodically poll device load (telemetry), detect SmartNIC hot
// spots, run a selection policy (PAM, Multi-PAM or a naive baseline), and
// execute the plan as live migrations.
//
// Live (live.go) is the loop's one driver. It polls an emul.LoadSampler on
// wall-clock time, so overload is detected from measured meter windows
// summed across every hosted tenant chain, and it executes plans as real
// UNO freeze/transfer/restore migrations. The decision policy — detector
// hysteresis, cooldown, offload reclaim, escalation and the event log —
// lives here. It is natively multi-chain: it polls a core.MultiView
// (per-chain placements and measured throughputs over shared devices), runs
// a core.MultiSelector and executes the core.MultiPlan chain by chain. A
// single-chain deployment is the one-load special case: Config.Selector
// wraps the paper's single-chain policies through core.AsMulti. See
// DESIGN.md §4.
package orchestrator

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/telemetry"
)

// Config parameterizes the control loop.
type Config struct {
	// PollEvery is the telemetry query period (the paper's "periodically
	// query the load"): the wall-clock sampling period of the background
	// poller.
	PollEvery time.Duration
	// Selector decides what to migrate on overload in a single-chain
	// deployment; it is lifted into the multi-chain loop via core.AsMulti.
	// Set exactly one of Selector and MultiSelector.
	Selector core.Selector
	// MultiSelector decides what to migrate across every hosted chain
	// (e.g. core.MultiPAM). Set exactly one of Selector and MultiSelector.
	MultiSelector core.MultiSelector
	// Detector tunes overload detection; zero value uses defaults.
	Detector telemetry.DetectorConfig
	// Cooldown suppresses new plans for this long after one executes
	// (default 2×PollEvery). Reclaims honor it too.
	Cooldown time.Duration
	// ReclaimAfter enables offload reclaim, the reverse of a push-aside:
	// once the detector is clear and the smoothed NIC and DMA utilizations
	// have stayed below ClearThreshold for this many consecutive polled
	// windows, the loop migrates the most recently pushed element back to
	// the device it came from — restoring SmartNIC offload after the storm
	// passes. The move is guarded by the fluid model: it only executes when
	// the predicted utilization of the destination (and the DMA engine, if
	// the return adds crossings) stays below ClearThreshold for this many
	// consecutive windows as well (single-window measurements are noisy), so
	// the hysteresis band Threshold−ClearThreshold is exactly the headroom
	// that keeps a reclaimed element from re-firing the detector — a band of
	// zero invites migration ping-pong under load hovering at the
	// threshold. 0 disables reclaim (the default; prior behaviour).
	ReclaimAfter int
}

// selector resolves the configured policy into the loop's native
// multi-chain form.
func (c Config) selector() (core.MultiSelector, error) {
	switch {
	case c.Selector != nil && c.MultiSelector != nil:
		return nil, errors.New("orchestrator: set Selector or MultiSelector, not both")
	case c.MultiSelector != nil:
		return c.MultiSelector, nil
	case c.Selector != nil:
		return core.AsMulti(c.Selector), nil
	}
	return nil, errors.New("orchestrator: nil selector")
}

// Event records one control-loop action for reports and tests.
type Event struct {
	At       time.Duration
	Kind     EventKind
	Plan     core.MultiPlan
	Err      error
	Downtime time.Duration
	// Escalation carries the structured scale-out report for
	// EventEscalated entries.
	Escalation *core.Escalation
}

// EventKind classifies control-loop events.
type EventKind uint8

// Event kinds.
const (
	// EventMigrated records an executed plan.
	EventMigrated EventKind = iota
	// EventSkipped records an overload with no executable plan (e.g. the
	// paper's both-overloaded terminal case) or a plan whose execution
	// failed.
	EventSkipped
	// EventCooldown records an overload episode suppressed because the
	// previous migration is still within Config.Cooldown.
	EventCooldown
	// EventReclaimed records an executed reclaim: a previously pushed-aside
	// element migrated back to its original device after the overload
	// passed (Config.ReclaimAfter).
	EventReclaimed
	// EventEscalated records the scale-out terminal case (both devices hot,
	// no feasible Multi-PAM plan) reported upward as a structured
	// core.Escalation instead of a dead-end skip. The loop still re-arms:
	// if no fleet tier acts, the verdict is retried like any skip.
	EventEscalated
	// EventExternal records an externally-driven chain migration the fleet
	// tier executed against this server's dataplane (NoteExternalMove):
	// the loop starts its cooldown and drops the chain's reclaim
	// candidates, but the move itself was not its decision.
	EventExternal
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventSkipped:
		return "skipped"
	case EventCooldown:
		return "cooldown"
	case EventReclaimed:
		return "reclaimed"
	case EventEscalated:
		return "escalated"
	case EventExternal:
		return "external-move"
	}
	return "migrated"
}

// Migration records one executed element move — the unit the stability
// harness analyses. Push-asides and reclaims both append here, so the full
// per-element trajectory (A→B, B→A, …) is reconstructible.
type Migration struct {
	At         time.Duration
	ChainIndex int
	Element    string
	From, To   device.Kind
	// Reclaim marks moves executed by the reclaim policy rather than a
	// selector plan.
	Reclaim bool
}

// PingPong is one detected bounce: the same element moved A→B and back
// B→A within the horizon — the oscillation a stable control loop must not
// produce when load hovers at the threshold.
type PingPong struct {
	Element    string
	ChainIndex int
	Out, Back  Migration
}

// FindPingPongs scans a migration history for bounces: for every move, the
// next opposite move of the same element within horizon forms a ping-pong.
// Each outbound move is counted at most once.
func FindPingPongs(hist []Migration, horizon time.Duration) []PingPong {
	var out []PingPong
	for i := 0; i < len(hist); i++ {
		a := hist[i]
		for j := i + 1; j < len(hist); j++ {
			b := hist[j]
			if b.At-a.At > horizon {
				break
			}
			if a.ChainIndex != b.ChainIndex || a.Element != b.Element {
				continue
			}
			if a.From == b.To && a.To == b.From {
				out = append(out, PingPong{Element: a.Element, ChainIndex: a.ChainIndex, Out: a, Back: b})
				break
			}
		}
	}
	return out
}

// observe feeds one telemetry window to the detector and, when an overload
// episode fires, runs selection and execution. now is the runtime's clock
// and timestamps any resulting event.
func (o *Live) observe(now time.Duration, s telemetry.Sample) {
	o.decideMu.Lock()
	defer o.decideMu.Unlock()

	fire, throughput := o.detector.Observe(s)
	if !fire {
		o.maybeReclaim(now, throughput)
		return
	}
	o.mu.Lock()
	if o.moved && now-o.lastMove < o.cfg.Cooldown {
		o.events = append(o.events, Event{At: now, Kind: EventCooldown})
		o.mu.Unlock()
		return
	}
	o.mu.Unlock()

	v := o.view()
	rescale(v.Loads, throughput)
	plan, err := o.sel.SelectMulti(v)
	if err != nil {
		// The episode produced no executable plan. Re-arm the detector so
		// the decision is retried after another Consecutive hot windows:
		// measured throughput moves, so a terminal verdict now (e.g.
		// both-overloaded at this θcur) need not be terminal next window.
		o.detector.Rearm()
		if errors.Is(err, core.ErrBothOverloaded) {
			// The paper's scale-out terminal case: report it upward as a
			// structured escalation rather than a dead-end skip, so a fleet
			// tier can relieve the server by migrating a tenant away.
			esc := escalationFrom(now, err, s, throughput)
			o.mu.Lock()
			o.events = append(o.events, Event{At: now, Kind: EventEscalated, Err: err, Escalation: &esc})
			fn := o.escalate
			o.mu.Unlock()
			if fn != nil {
				fn(esc)
			}
			return
		}
		o.mu.Lock()
		o.events = append(o.events, Event{At: now, Kind: EventSkipped, Err: err})
		o.mu.Unlock()
		return
	}
	downtime, err := o.execute(plan)
	if err != nil {
		// Execution failed; re-arm for a retry like the no-plan case. A
		// non-zero downtime means some steps did apply (a partial
		// migration), so the cooldown still starts — the dataplane just
		// moved and must settle before the next attempt.
		o.detector.Rearm()
		o.mu.Lock()
		if downtime > 0 {
			o.moved = true
			o.lastMove = now
		}
		o.events = append(o.events, Event{At: now, Kind: EventSkipped, Plan: plan, Err: err})
		o.mu.Unlock()
		return
	}
	o.mu.Lock()
	o.moved = true
	o.migrated++
	o.lastMove = now
	o.calm, o.armed = 0, 0
	for _, st := range plan.Steps {
		m := Migration{At: now, ChainIndex: st.ChainIndex, Element: st.Step.Element, From: st.Step.From, To: st.Step.To}
		o.history = append(o.history, m)
		o.pushed = append(o.pushed, m)
	}
	o.events = append(o.events, Event{At: now, Kind: EventMigrated, Plan: plan, Downtime: downtime})
	o.mu.Unlock()
}

// maybeReclaim runs the reclaim policy on a quiet window (no fire): after
// Config.ReclaimAfter consecutive windows below the detector's clear
// threshold, the most recently pushed element migrates back to the device
// it came from — if the fluid model predicts the restored placement stays
// below ClearThreshold. Called with decideMu held.
func (o *Live) maybeReclaim(now time.Duration, throughput float64) {
	if o.cfg.ReclaimAfter <= 0 {
		return
	}
	o.mu.Lock()
	n := len(o.pushed)
	o.mu.Unlock()
	if n == 0 {
		return
	}
	dcfg := o.detector.Config()
	if o.detector.Fired() ||
		o.detector.SmoothedUtil() >= dcfg.ClearThreshold ||
		o.detector.SmoothedDMAUtil() >= dcfg.ClearThreshold {
		o.mu.Lock()
		o.calm, o.armed = 0, 0
		o.mu.Unlock()
		return
	}
	o.mu.Lock()
	o.calm++
	ready := o.calm >= o.cfg.ReclaimAfter && !(o.moved && now-o.lastMove < o.cfg.Cooldown)
	cand := o.pushed[len(o.pushed)-1]
	o.mu.Unlock()
	if !ready {
		return
	}

	v := o.view()
	rescale(v.Loads, throughput)
	plan, drop := reclaimPlan(v, cand, dcfg.ClearThreshold)
	if drop {
		// The element is no longer where the push left it (a later plan or
		// an operator moved it); the candidate can never be reclaimed.
		o.mu.Lock()
		if len(o.pushed) > 0 {
			o.pushed = o.pushed[:len(o.pushed)-1]
		}
		o.armed = 0
		o.mu.Unlock()
		return
	}
	if plan == nil {
		// Headroom guard: reclaiming now would re-approach overload. The
		// guard must then hold for ReclaimAfter consecutive windows before a
		// reclaim executes — re-arm the streak.
		o.mu.Lock()
		o.armed = 0
		o.mu.Unlock()
		return
	}
	o.mu.Lock()
	o.armed++
	ok := o.armed >= o.cfg.ReclaimAfter
	o.mu.Unlock()
	if !ok {
		// The guard held this window, but a single window's measurements are
		// noisy — a dwell boundary where the chain delivered little makes a
		// reclaim look safe. Only a sustained streak (ReclaimAfter windows,
		// same confirmation depth as the calm gate) executes.
		return
	}
	downtime, err := o.execute(*plan)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.calm, o.armed = 0, 0
	if err != nil {
		if downtime > 0 {
			o.moved = true
			o.lastMove = now
		}
		o.events = append(o.events, Event{At: now, Kind: EventSkipped, Plan: *plan, Err: err})
		return
	}
	o.pushed = o.pushed[:len(o.pushed)-1]
	o.moved = true
	o.lastMove = now
	o.reclaims++
	o.history = append(o.history, Migration{
		At: now, ChainIndex: cand.ChainIndex, Element: cand.Element,
		From: cand.To, To: cand.From, Reclaim: true,
	})
	o.events = append(o.events, Event{At: now, Kind: EventReclaimed, Plan: *plan, Downtime: downtime})
}

// reclaimPlan builds the reverse plan for a pushed element, or reports that
// the candidate must be dropped (element no longer in the pushed-to
// placement). A nil plan with drop=false means the headroom guard refused
// the move this window: the predicted utilization of the return device —
// its measured utilization plus the element's own θcur/θ share — or the
// predicted DMA utilization (when the return adds crossings) would reach
// clear. The guard is what makes the hysteresis band a stability margin.
func reclaimPlan(v core.MultiView, cand Migration, clear float64) (*core.MultiPlan, bool) {
	if cand.ChainIndex < 0 || cand.ChainIndex >= len(v.Loads) {
		return nil, true
	}
	load := v.Loads[cand.ChainIndex]
	idx := load.Chain.Index(cand.Element)
	if idx < 0 || load.Chain.At(idx).Loc != cand.To {
		return nil, true
	}
	elemType := load.Chain.At(idx).Type

	dev := v.CPU
	measured := v.MeasuredCPUUtil
	if cand.From == device.KindSmartNIC {
		dev = v.NIC
		measured = v.MeasuredNICUtil
	}
	added, err := dev.Utilization(v.Catalog, []string{elemType}, load.Throughput)
	if err != nil {
		return nil, true // cannot run on the return device anymore
	}
	if measured+added >= clear {
		return nil, false
	}
	restored := load.Chain.Clone()
	if err := restored.Move(cand.Element, cand.From); err != nil {
		return nil, true
	}
	if extra := restored.Crossings() - load.Chain.Crossings(); extra > 0 {
		if v.MeasuredDMAUtil+v.NIC.DMAUtilization(load.Throughput, extra) >= clear {
			return nil, false
		}
	}
	results := make([]*chain.Chain, len(v.Loads))
	for i, ld := range v.Loads {
		if i == cand.ChainIndex {
			results[i] = restored
		} else {
			results[i] = ld.Chain.Clone()
		}
	}
	return &core.MultiPlan{
		Selector: "reclaim",
		Steps: []core.MultiStepEntry{{
			ChainIndex: cand.ChainIndex,
			Step:       core.Step{Element: cand.Element, From: cand.To, To: cand.From},
		}},
		Results: results,
	}, false
}

// rescale pins the view's aggregate throughput to the detector's smoothed
// measured delivered rate — the θcur selection must use (DESIGN.md §4) —
// while preserving the measured per-chain mix. With one chain this reduces
// to overwriting its throughput with the smoothed value; with several and
// no per-chain measurements yet, the total is split evenly.
func rescale(loads []core.Load, smoothedTotal float64) {
	if len(loads) == 0 {
		return
	}
	var raw float64
	for _, ld := range loads {
		raw += ld.Throughput.Float()
	}
	if raw > 0 {
		f := smoothedTotal / raw
		for i := range loads {
			loads[i].Throughput = device.MeasuredGbps(loads[i].Throughput.Float() * f)
		}
		return
	}
	each := device.MeasuredGbps(smoothedTotal / float64(len(loads)))
	for i := range loads {
		loads[i].Throughput = each
	}
}

// escalationFrom builds the structured scale-out report for a terminal
// verdict err: the measured demand picture from the window that fired, with
// the reason the selector reached it by. Exhausting the candidates
// (core.ErrNoCandidate joined to the verdict) is the no-feasible-plan form;
// otherwise the measured demand was past the threshold on both devices.
func escalationFrom(now time.Duration, err error, s telemetry.Sample, throughput float64) core.Escalation {
	reason := core.EscalateBothOverloaded
	if errors.Is(err, core.ErrNoCandidate) {
		reason = core.EscalateNoFeasiblePlan
	}
	return core.Escalation{
		At:            now,
		Reason:        reason,
		NICUtil:       s.NICUtil,
		CPUUtil:       s.CPUUtil,
		DMAUtil:       s.DMAUtil,
		DeliveredGbps: throughput,
	}
}

// OnEscalation installs the hook that receives every terminal-case report
// (nil uninstalls it). The hook runs on the polling goroutine with the
// loop's decision lock held, so it must not block and must not call back
// into the loop — a fleet agent forwards the report to its coordinator's
// queue and returns.
func (o *Live) OnEscalation(fn func(core.Escalation)) {
	o.mu.Lock()
	o.escalate = fn
	o.mu.Unlock()
}

// Suspend takes the loop's decision lock and returns the release. While
// suspended no poll can detect, select or execute, which is how the fleet
// tier keeps the local control plane's hands off the dataplane during an
// externally-driven cross-server migration. Polls taken meanwhile block
// until resume.
func (o *Live) Suspend() (resume func()) {
	o.decideMu.Lock()
	return o.decideMu.Unlock
}

// NoteExternalMove records that the fleet tier moved a chain in or out of
// this server's dataplane, stamped with the runtime's clock: the cooldown
// starts (the dataplane just changed and must settle before the next local
// decision), the reclaim streaks reset, and any reclaim candidates
// belonging to the moved chain are dropped — their elements are no longer
// this server's to restore.
func (o *Live) NoteExternalMove(chainIdx int) {
	now := o.rt.Elapsed()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.moved = true
	o.lastMove = now
	o.calm, o.armed = 0, 0
	kept := o.pushed[:0]
	for _, m := range o.pushed {
		if m.ChainIndex != chainIdx {
			kept = append(kept, m)
		}
	}
	o.pushed = kept
	o.events = append(o.events, Event{At: now, Kind: EventExternal})
}

// Events returns a copy of the control-loop event log.
func (o *Live) Events() []Event {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Event(nil), o.events...)
}

// Migrations returns how many plans were executed.
func (o *Live) Migrations() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.migrated
}

// Reclaims returns how many reclaim moves were executed.
func (o *Live) Reclaims() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.reclaims
}

// History returns a copy of every executed element move (push-asides and
// reclaims) in execution order — the input to FindPingPongs.
func (o *Live) History() []Migration {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Migration(nil), o.history...)
}

// Detector exposes the loop's overload detector (reports inspect its
// smoothed view; tests assert episode counts and re-arming).
func (o *Live) Detector() *telemetry.Detector { return o.detector }

// Format renders the event as one log line, rounding timestamps to round
// (0 keeps full precision). Every surface printing the event log — Describe,
// `pamctl run`, the e2e tests' diagnostics — goes through it, so a new
// EventKind renders everywhere at once.
func (e Event) Format(round time.Duration) string {
	at := e.At
	if round > 0 {
		at = at.Round(round)
	}
	switch {
	case e.Kind == EventEscalated && e.Escalation != nil:
		return fmt.Sprintf("[%8v] %v: %v", at, e.Kind, *e.Escalation)
	case e.Err != nil:
		return fmt.Sprintf("[%8v] %v: %v", at, e.Kind, e.Err)
	case e.Kind == EventMigrated || e.Kind == EventReclaimed:
		return fmt.Sprintf("[%8v] %v: %v (downtime %v)", at, e.Kind, e.Plan, e.Downtime)
	case e.Kind == EventExternal:
		return fmt.Sprintf("[%8v] %v: fleet tier migrated a chain in or out", at, e.Kind)
	default:
		return fmt.Sprintf("[%8v] %v: overload episode suppressed", at, e.Kind)
	}
}

// Describe renders the event log for reports.
func (o *Live) Describe() string {
	s := ""
	for _, e := range o.Events() {
		s += e.Format(0) + "\n"
	}
	return s
}
