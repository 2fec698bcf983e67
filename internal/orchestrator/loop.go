package orchestrator

// The engine-agnostic core of the control plane. Both backends — the
// discrete-event simulator (virtual time, orchestrator.go) and the execution
// emulator (wall-clock, live.go) — drive the same loop: feed one telemetry
// window to the overload detector, and when an episode fires, run the
// selector over a freshly built view and hand the plan to the backend's
// executor. Policy (detector hysteresis, cooldown, migration budget, event
// logging) lives here exactly once, so a control decision reproduced in
// virtual time is the same decision the emulator executes against real
// packet-processing code.
//
// The loop is natively multi-chain: it polls a core.MultiView (per-chain
// placements and measured throughputs over shared devices), runs a
// core.MultiSelector, and hands the resulting core.MultiPlan to the backend
// to execute chain by chain. A single-chain deployment is the one-load
// special case — Config.Selector wraps the paper's single-chain policies
// through core.AsMulti, and every decision reduces to exactly the PR-2
// behaviour.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/migrate"
	"repro/internal/telemetry"
)

// Config parameterizes the control loop; it is shared by both backends.
type Config struct {
	// PollEvery is the telemetry query period (the paper's "periodically
	// query the load"). In the DES backend it must match or exceed the
	// simulation's SampleEvery; in the live backend it is the wall-clock
	// sampling period.
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
	// Transport models state-transfer cost; nil disables migration delay.
	// Only the DES backend uses it — the emulator measures real snapshot
	// sizes and reports real transfer times.
	Transport migrate.Transport
	// StateBytes approximates the per-vNF snapshot size for the transfer
	// model (the DES has no materialized NF state; the emulator measures
	// real sizes). Default 64 KiB.
	StateBytes int
	// MaxMigrations bounds how many plans get executed (0 = unbounded).
	// Reclaims (see ReclaimAfter) do not count against the budget.
	MaxMigrations int
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
	// EventLimited records an overload episode suppressed by
	// Config.MaxMigrations.
	EventLimited
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
	case EventLimited:
		return "limit-reached"
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

// loop is the shared poll/detect/select/execute state machine. exec applies
// a plan to the backend's dataplane, chain by chain, and returns the
// migration downtime it incurred (modelled for the DES, measured for the
// emulator).
type loop struct {
	cfg      Config
	sel      core.MultiSelector
	detector *telemetry.Detector
	view     func() core.MultiView
	exec     func(plan core.MultiPlan) (time.Duration, error)

	// decideMu serializes whole decisions (detect → select → execute), so
	// concurrent polls — the live backend's background ticker plus a manual
	// Poll — cannot both slip past the cooldown/budget checks and execute
	// overlapping plans. mu guards only the fields below and is safe to
	// take from exec callbacks while decideMu is held.
	decideMu sync.Mutex

	mu       sync.Mutex
	events   []Event
	lastMove time.Duration
	moved    bool // a plan (possibly partial) has executed; lastMove is set
	migrated int
	history  []Migration
	// pushed is the reclaim-candidate stack: fully executed plan steps in
	// order, popped as reclaims undo them (LIFO — the last push-aside is
	// the first offload restored).
	pushed   []Migration
	calm     int // consecutive below-ClearThreshold windows (reclaim gate)
	armed    int // consecutive windows the reclaim headroom guard held
	reclaims int
	// escalate, when set, receives the structured scale-out report for
	// every terminal-case episode (see OnEscalation).
	escalate func(core.Escalation)
}

func newLoop(cfg Config, view func() core.MultiView, exec func(core.MultiPlan) (time.Duration, error)) (*loop, error) {
	if cfg.PollEvery <= 0 {
		return nil, errors.New("orchestrator: PollEvery must be positive")
	}
	sel, err := cfg.selector()
	if err != nil {
		return nil, err
	}
	if cfg.StateBytes <= 0 {
		cfg.StateBytes = 64 << 10
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * cfg.PollEvery
	}
	return &loop{
		cfg:      cfg,
		sel:      sel,
		detector: telemetry.NewDetector(cfg.Detector),
		view:     view,
		exec:     exec,
	}, nil
}

// observe feeds one telemetry window to the detector and, when an overload
// episode fires, runs selection and execution. now is the backend's clock
// (virtual or wall) and timestamps any resulting event.
func (l *loop) observe(now time.Duration, s telemetry.Sample) {
	l.decideMu.Lock()
	defer l.decideMu.Unlock()

	fire, throughput := l.detector.Observe(s)
	if !fire {
		l.maybeReclaim(now, throughput)
		return
	}
	l.mu.Lock()
	if l.cfg.MaxMigrations > 0 && l.migrated >= l.cfg.MaxMigrations {
		l.events = append(l.events, Event{At: now, Kind: EventLimited})
		l.mu.Unlock()
		return
	}
	if l.moved && now-l.lastMove < l.cfg.Cooldown {
		l.events = append(l.events, Event{At: now, Kind: EventCooldown})
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()

	v := l.view()
	rescale(v.Loads, throughput)
	plan, err := l.sel.SelectMulti(v)
	if err != nil {
		// The episode produced no executable plan. Re-arm the detector so
		// the decision is retried after another Consecutive hot windows:
		// measured throughput moves, so a terminal verdict now (e.g.
		// both-overloaded at this θcur) need not be terminal next window.
		l.detector.Rearm()
		if errors.Is(err, core.ErrBothOverloaded) {
			// The paper's scale-out terminal case: report it upward as a
			// structured escalation rather than a dead-end skip, so a fleet
			// tier can relieve the server by migrating a tenant away.
			esc := escalationFrom(now, err, s, throughput)
			l.mu.Lock()
			l.events = append(l.events, Event{At: now, Kind: EventEscalated, Err: err, Escalation: &esc})
			fn := l.escalate
			l.mu.Unlock()
			if fn != nil {
				fn(esc)
			}
			return
		}
		l.appendEvent(Event{At: now, Kind: EventSkipped, Err: err})
		return
	}
	downtime, err := l.exec(plan)
	if err != nil {
		// Execution failed; re-arm for a retry like the no-plan case. A
		// non-zero downtime means some steps did apply (a partial
		// migration), so the cooldown still starts — the dataplane just
		// moved and must settle before the next attempt.
		l.detector.Rearm()
		l.mu.Lock()
		if downtime > 0 {
			l.moved = true
			l.lastMove = now
		}
		l.events = append(l.events, Event{At: now, Kind: EventSkipped, Plan: plan, Err: err})
		l.mu.Unlock()
		return
	}
	l.mu.Lock()
	l.moved = true
	l.migrated++
	l.lastMove = now
	l.calm, l.armed = 0, 0
	for _, st := range plan.Steps {
		m := Migration{At: now, ChainIndex: st.ChainIndex, Element: st.Step.Element, From: st.Step.From, To: st.Step.To}
		l.history = append(l.history, m)
		l.pushed = append(l.pushed, m)
	}
	l.events = append(l.events, Event{At: now, Kind: EventMigrated, Plan: plan, Downtime: downtime})
	l.mu.Unlock()
}

// maybeReclaim runs the reclaim policy on a quiet window (no fire): after
// Config.ReclaimAfter consecutive windows below the detector's clear
// threshold, the most recently pushed element migrates back to the device
// it came from — if the fluid model predicts the restored placement stays
// below ClearThreshold. Called with decideMu held.
func (l *loop) maybeReclaim(now time.Duration, throughput float64) {
	if l.cfg.ReclaimAfter <= 0 {
		return
	}
	l.mu.Lock()
	n := len(l.pushed)
	l.mu.Unlock()
	if n == 0 {
		return
	}
	dcfg := l.detector.Config()
	if l.detector.Fired() ||
		l.detector.SmoothedUtil() >= dcfg.ClearThreshold ||
		l.detector.SmoothedDMAUtil() >= dcfg.ClearThreshold {
		l.mu.Lock()
		l.calm, l.armed = 0, 0
		l.mu.Unlock()
		return
	}
	l.mu.Lock()
	l.calm++
	ready := l.calm >= l.cfg.ReclaimAfter && !(l.moved && now-l.lastMove < l.cfg.Cooldown)
	cand := l.pushed[len(l.pushed)-1]
	l.mu.Unlock()
	if !ready {
		return
	}

	v := l.view()
	rescale(v.Loads, throughput)
	plan, drop := reclaimPlan(v, cand, dcfg.ClearThreshold)
	if drop {
		// The element is no longer where the push left it (a later plan or
		// an operator moved it); the candidate can never be reclaimed.
		l.mu.Lock()
		if len(l.pushed) > 0 {
			l.pushed = l.pushed[:len(l.pushed)-1]
		}
		l.armed = 0
		l.mu.Unlock()
		return
	}
	if plan == nil {
		// Headroom guard: reclaiming now would re-approach overload. The
		// guard must then hold for ReclaimAfter consecutive windows before a
		// reclaim executes — re-arm the streak.
		l.mu.Lock()
		l.armed = 0
		l.mu.Unlock()
		return
	}
	l.mu.Lock()
	l.armed++
	ok := l.armed >= l.cfg.ReclaimAfter
	l.mu.Unlock()
	if !ok {
		// The guard held this window, but a single window's measurements are
		// noisy — a dwell boundary where the chain delivered little makes a
		// reclaim look safe. Only a sustained streak (ReclaimAfter windows,
		// same confirmation depth as the calm gate) executes.
		return
	}
	downtime, err := l.exec(*plan)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calm, l.armed = 0, 0
	if err != nil {
		if downtime > 0 {
			l.moved = true
			l.lastMove = now
		}
		l.events = append(l.events, Event{At: now, Kind: EventSkipped, Plan: *plan, Err: err})
		return
	}
	l.pushed = l.pushed[:len(l.pushed)-1]
	l.moved = true
	l.lastMove = now
	l.reclaims++
	l.history = append(l.history, Migration{
		At: now, ChainIndex: cand.ChainIndex, Element: cand.Element,
		From: cand.To, To: cand.From, Reclaim: true,
	})
	l.events = append(l.events, Event{At: now, Kind: EventReclaimed, Plan: *plan, Downtime: downtime})
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
// while preserving the backend's measured per-chain mix. With one chain
// this reduces to overwriting its throughput with the smoothed value; with
// several and no per-chain measurements yet, the total is split evenly.
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
// (core.ErrNoCandidate joined to the verdict) is the no-feasible-plan form,
// the only one a model-driven backend can reach; otherwise the backend's
// measured demand was past the threshold on both devices.
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
func (l *loop) OnEscalation(fn func(core.Escalation)) {
	l.mu.Lock()
	l.escalate = fn
	l.mu.Unlock()
}

// Suspend takes the loop's decision lock and returns the release. While
// suspended no poll can detect, select or execute, which is how the fleet
// tier keeps the local control plane's hands off the dataplane during an
// externally-driven cross-server migration. Polls taken meanwhile block
// until resume.
func (l *loop) Suspend() (resume func()) {
	l.decideMu.Lock()
	return l.decideMu.Unlock
}

// NoteExternalMove records that the fleet tier moved a chain in or out of
// this server's dataplane: the cooldown starts (the dataplane just changed
// and must settle before the next local decision), the reclaim streaks
// reset, and any reclaim candidates belonging to the moved chain are
// dropped — their elements are no longer this server's to restore.
func (l *loop) NoteExternalMove(now time.Duration, chainIdx int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.moved = true
	l.lastMove = now
	l.calm, l.armed = 0, 0
	kept := l.pushed[:0]
	for _, m := range l.pushed {
		if m.ChainIndex != chainIdx {
			kept = append(kept, m)
		}
	}
	l.pushed = kept
	l.events = append(l.events, Event{At: now, Kind: EventExternal})
}

func (l *loop) appendEvent(e Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// Events returns a copy of the control-loop event log.
func (l *loop) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Migrations returns how many plans were executed.
func (l *loop) Migrations() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.migrated
}

// Reclaims returns how many reclaim moves were executed.
func (l *loop) Reclaims() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reclaims
}

// History returns a copy of every executed element move (push-asides and
// reclaims) in execution order — the input to FindPingPongs.
func (l *loop) History() []Migration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Migration(nil), l.history...)
}

// Detector exposes the loop's overload detector (reports inspect its
// smoothed view; tests assert episode counts and re-arming).
func (l *loop) Detector() *telemetry.Detector { return l.detector }

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
func (l *loop) Describe() string {
	s := ""
	for _, e := range l.Events() {
		s += e.Format(0) + "\n"
	}
	return s
}
