package orchestrator_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/emul"
	"repro/internal/orchestrator"
	"repro/internal/pcie"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

func newLiveRuntime(t *testing.T) *emul.Runtime {
	t.Helper()
	rt, err := emul.New(emul.Config{
		Chains:  []*chain.Chain{scenario.Figure1Chain()},
		Catalog: device.Table1(),
		Link:    pcie.DefaultLink(),
		Scale:   100, // generous: nothing throttles in these tests
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// pushAside is a test selector that always plans the Figure-1 PAM step
// (logger0 to the CPU), letting the tests exercise the execution path
// without real overload.
type pushAside struct{}

func (pushAside) Name() string { return "push-aside-stub" }

func (pushAside) Select(v core.View) (core.Plan, error) {
	work := v.Chain.Clone()
	if err := work.Move(scenario.NameLogger, device.KindCPU); err != nil {
		return core.Plan{}, err
	}
	return core.Plan{
		Selector: "push-aside-stub",
		Steps: []core.Step{{
			Element: scenario.NameLogger,
			From:    device.KindSmartNIC,
			To:      device.KindCPU,
		}},
		Result: work,
	}, nil
}

// noPlan is a test selector whose episodes never produce an executable
// plan: every Select returns the terminal verdict err.
type noPlan struct{ err error }

func (noPlan) Name() string { return "no-plan-stub" }

func (s noPlan) Select(core.View) (core.Plan, error) {
	return core.Plan{}, s.err
}

// hairTrigger fires the detector on any served traffic — one hot window at
// a utilization far below real overload — and re-arms on any idle window.
func hairTrigger() telemetry.DetectorConfig {
	return telemetry.DetectorConfig{
		Threshold:      0.0001,
		ClearThreshold: 0.00005,
		Consecutive:    1,
		Alpha:          1,
	}
}

func sendFrames(t *testing.T, rt *emul.Runtime, n int) {
	t.Helper()
	synth := traffic.NewSynth(8, 3)
	for i := 0; i < n; i++ {
		tmpl := synth.Frame(uint64(i%8), 512)
		frame := rt.AcquireFrame(len(tmpl))
		copy(frame, tmpl)
		rt.SendChain(0, frame)
	}
	rt.Drain()
	// A sampling window below 1ms reads as degenerate and reports zero
	// load; make sure the next Poll sees this traffic.
	time.Sleep(2 * time.Millisecond)
}

func TestLiveLoopExecutesRealMigration(t *testing.T) {
	rt := newLiveRuntime(t)
	rt.Start()
	defer rt.Close()
	p := scenario.DefaultParams()
	live, err := orchestrator.NewLive(rt, orchestrator.Config{
		PollEvery: 10 * time.Millisecond,
		Selector:  pushAside{},
		Detector:  hairTrigger(),
		Cooldown:  time.Hour,
	}, scenario.View(scenario.Figure1Chain(), p, 0))
	if err != nil {
		t.Fatal(err)
	}

	sendFrames(t, rt, 200)
	live.Poll() // hot window -> fire -> plan -> real migration

	if live.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1\nlog:\n%s", live.Migrations(), live.Describe())
	}
	evs := live.Events()
	if len(evs) != 1 || evs[0].Kind != orchestrator.EventMigrated {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Downtime <= 0 {
		t.Error("no measured state-transfer downtime")
	}
	got := rt.Placement()
	if got.At(got.Index(scenario.NameLogger)).Loc != device.KindCPU {
		t.Errorf("placement not applied to the dataplane: %v", got)
	}

	// A second episode within the cooldown is logged and suppressed. The
	// idle window in between re-arms the detector (utilization falls below
	// ClearThreshold), so the next hot window is a genuine second episode.
	time.Sleep(2 * time.Millisecond)
	live.Poll() // idle window: clears
	sendFrames(t, rt, 200)
	live.Poll() // hot again: fires, suppressed by cooldown
	var cooldowns int
	for _, e := range live.Events() {
		if e.Kind == orchestrator.EventCooldown {
			cooldowns++
		}
	}
	if cooldowns == 0 {
		t.Errorf("no cooldown event after second episode:\n%s", live.Describe())
	}
	if live.Migrations() != 1 {
		t.Errorf("cooldown did not hold: %d migrations\n%s", live.Migrations(), live.Describe())
	}
}

func TestLiveLoopSkipsAndRearmsOnUnexecutablePlan(t *testing.T) {
	// Every fired episode yields the both-overloaded terminal error, is
	// logged as a structured escalation carrying the reason the verdict was
	// reached by, and the detector re-arms so the next hot window can fire
	// a genuine retry. The bare verdict means measured demand past the
	// threshold on both devices; joined with core.ErrNoCandidate it means
	// the candidates ran out.
	for _, tc := range []struct {
		name   string
		err    error
		reason core.EscalationReason
	}{
		{"both-overloaded", core.ErrBothOverloaded, core.EscalateBothOverloaded},
		{"no-feasible-plan", errors.Join(core.ErrBothOverloaded, core.ErrNoCandidate), core.EscalateNoFeasiblePlan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newLiveRuntime(t)
			rt.Start()
			defer rt.Close()
			p := scenario.DefaultParams()
			live, err := orchestrator.NewLive(rt, orchestrator.Config{
				PollEvery: 10 * time.Millisecond,
				Selector:  noPlan{err: tc.err},
				Detector:  hairTrigger(),
			}, scenario.View(scenario.Figure1Chain(), p, 0))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				sendFrames(t, rt, 100)
				live.Poll()
			}
			evs := live.Events()
			if len(evs) < 2 {
				t.Fatalf("want repeated escalation events after re-arm, got %+v", evs)
			}
			for _, e := range evs {
				switch {
				case e.Kind != orchestrator.EventEscalated:
					t.Errorf("unexpected event %+v", e)
				case e.Escalation == nil:
					t.Error("escalated event carries no structured report")
				case e.Escalation.Reason != tc.reason:
					t.Errorf("reason = %v, want %v", e.Escalation.Reason, tc.reason)
				}
			}
			if live.Migrations() != 0 {
				t.Errorf("migrated without overload: %s", live.Describe())
			}
			if live.Detector().Events() < 2 {
				t.Errorf("detector did not re-arm: %d episodes", live.Detector().Events())
			}
		})
	}
}

func TestLiveLoopBackgroundPoller(t *testing.T) {
	rt := newLiveRuntime(t)
	rt.Start()
	defer rt.Close()
	p := scenario.DefaultParams()
	live, err := orchestrator.NewLive(rt, orchestrator.Config{
		PollEvery: 5 * time.Millisecond,
		Selector:  core.PAM{},
	}, scenario.View(scenario.Figure1Chain(), p, 0))
	if err != nil {
		t.Fatal(err)
	}
	live.Start()
	live.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for len(live.Samples()) < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	live.Stop()
	live.Stop() // idempotent
	if n := len(live.Samples()); n < 3 {
		t.Fatalf("background poller took %d samples, want >= 3", n)
	}
	n := len(live.Samples())
	time.Sleep(20 * time.Millisecond)
	if len(live.Samples()) != n {
		t.Error("poller still sampling after Stop")
	}
	// The runtime carried no traffic, so the loop must stay quiet.
	if live.Migrations() != 0 || len(live.Events()) != 0 {
		t.Errorf("idle runtime: %d migrations, events:\n%s", live.Migrations(), live.Describe())
	}
}

func TestControlLoopQuietWhenUnderloaded(t *testing.T) {
	// A trickle of traffic well inside the scaled NIC budget: the real PAM
	// policy over the default threshold must neither fire nor migrate.
	rt := newLiveRuntime(t)
	rt.Start()
	defer rt.Close()
	p := scenario.DefaultParams()
	live, err := orchestrator.NewLive(rt, orchestrator.Config{
		PollEvery: 5 * time.Millisecond,
		Selector:  core.PAM{},
		Detector:  telemetry.DetectorConfig{Consecutive: 3, Alpha: 0.5},
	}, scenario.View(scenario.Figure1Chain(), p, 0))
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for i := 0; i < 5; i++ {
		sendFrames(t, rt, 4)
		time.Sleep(20 * time.Millisecond)
		live.Poll()
		if s, ok := live.LastSample(); ok && s.NIC.Utilization > peak {
			peak = s.NIC.Utilization
		}
	}
	t.Logf("peak NIC utilization %.3f", peak)
	if n := len(live.Samples()); n != 5 || peak == 0 {
		t.Fatalf("loop saw %d windows, peak NIC utilization %.3f: want 5 windows carrying traffic", n, peak)
	}
	if live.Migrations() != 0 || len(live.Events()) != 0 {
		t.Errorf("migrated under calm load: %d migrations\n%s", live.Migrations(), live.Describe())
	}
}

func TestNewValidation(t *testing.T) {
	rt := newLiveRuntime(t)
	if _, err := orchestrator.NewLive(rt, orchestrator.Config{PollEvery: -time.Second, Selector: core.PAM{}}, core.View{}); err == nil {
		t.Error("negative PollEvery accepted")
	}
	both := orchestrator.Config{PollEvery: time.Second, Selector: core.PAM{}, MultiSelector: core.MultiPAM{}}
	if _, err := orchestrator.NewLive(rt, both, core.View{}); err == nil {
		t.Error("Selector and MultiSelector both accepted")
	}
}

func TestNewLiveValidation(t *testing.T) {
	rt := newLiveRuntime(t)
	if _, err := orchestrator.NewLive(rt, orchestrator.Config{Selector: core.PAM{}}, core.View{}); err == nil {
		t.Error("zero PollEvery accepted")
	}
	if _, err := orchestrator.NewLive(rt, orchestrator.Config{PollEvery: time.Second}, core.View{}); err == nil {
		t.Error("nil selector accepted")
	}
}
