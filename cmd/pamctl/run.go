package main

// The run command: one reporter for every scenario spec. The chainsim
// engine prints the spec's fluid-model reading (scenario.Spec.Loads through
// core.MultiPAM); the emul engine runs the episode live (scenario.Run), prints what every
// server's control loop saw and did and how every tenant fared, and turns
// the spec's expectation (scenario.Result.Check) into the exit status.

import (
	"fmt"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/emul"
	"repro/internal/orchestrator"
	"repro/internal/report"
	"repro/internal/scenario"
)

func runSpec(engine, name string, p scenario.Params, overloadSet bool) error {
	spec, err := scenario.Named(name, p)
	if err != nil {
		return err
	}
	if overloadSet {
		ph := spec.FocusTenant().Phases
		ph[len(ph)-1].RateGbps = p.OverloadGbps
	}
	fmt.Printf("spec %s (seed %d)\n\n%s\n\n", spec.Name, p.Seed, spec.Doc)
	fmt.Println("tenants:")
	for _, t := range spec.Tenants {
		fmt.Printf("  %-14s %v on %s  (%d crossings/frame, %.2f Gbps at first, %.2f Gbps peak)\n",
			t.Chain.Name+":", t.Chain, spec.Servers[t.Home], t.Chain.Crossings(), t.Phases[0].RateGbps, t.PeakGbps())
	}
	fmt.Println()
	switch engine {
	case "chainsim":
		return explain(p, spec)
	case "emul":
		return live(p, spec)
	}
	return fmt.Errorf("unknown engine %q (try: chainsim, emul)", engine)
}

// aggregate sums the per-chain fluid-model analysis of the placements at
// the loads' rates (the linear model is additive across co-resident chains).
func aggregate(v core.View, loads []core.Load, placements []*chain.Chain) (string, error) {
	var sum core.Analysis
	for i, c := range placements {
		a, err := core.Analyze(c, v, loads[i].Throughput)
		if err != nil {
			return "", err
		}
		sum.NICUtil += a.NICUtil
		sum.CPUUtil += a.CPUUtil
		sum.DMAUtil += a.DMAUtil
		sum.Crossings += a.Crossings
	}
	return fmt.Sprintf("NIC %.2f, CPU %.2f, DMA engine %.2f (Σ %d crossings/frame)",
		sum.NICUtil, sum.CPUUtil, sum.DMAUtil, sum.Crossings), nil
}

// explain walks the spec's decision through the fluid model, server by
// server with every tenant on its initial home: aggregate utilizations at
// the schedules' first-phase and peak rates, Multi-PAM's plan at the peak,
// and the utilizations after it. Deterministic, instant, no dataplane.
func explain(p scenario.Params, spec scenario.Spec) error {
	fmt.Println("engine: chainsim (fluid model, deterministic decision)")
	v := spec.View(p)
	for si, id := range spec.Servers {
		fmt.Printf("\n%s — aggregate utilization (threshold %.2f):\n", id, core.DefaultOverloadThreshold)
		peak := spec.Loads(si, true)
		before := make([]*chain.Chain, len(peak))
		for i, l := range peak {
			before[i] = l.Chain
		}
		for _, row := range []struct {
			label string
			loads []core.Load
		}{{"at first:", spec.Loads(si, false)}, {"at peak: ", peak}} {
			u, err := aggregate(v, row.loads, before)
			if err != nil {
				return err
			}
			fmt.Printf("  %s %s\n", row.label, u)
		}
		plan, err := core.MultiPAM{}.SelectMulti(core.MultiView{Loads: peak, Catalog: v.Catalog, NIC: v.NIC, CPU: v.CPU})
		if err != nil {
			fmt.Printf("  decision: %v\n", err)
			continue
		}
		u, err := aggregate(v, peak, plan.Results)
		if err != nil {
			return err
		}
		fmt.Printf("  decision: %v\n  after:    %s\n", plan, u)
		for i, c := range plan.Results {
			fmt.Printf("    %-14s %v\n", spec.Tenants[i].Chain.Name+":", c)
		}
	}
	fmt.Printf("\n(the same decision against the live dataplane: pamctl -engine emul run %s)\n", spec.Name)
	return nil
}

// marker labels the sampling window in which the loop acted.
func marker(events []orchestrator.Event, s emul.LoadSample) string {
	for _, e := range events {
		if e.At <= s.At-s.Window || e.At > s.At {
			continue
		}
		switch e.Kind {
		case orchestrator.EventMigrated, orchestrator.EventReclaimed:
			return fmt.Sprintf("<- %v %s", e.Kind, e.Plan.Steps[0].Step.Element)
		case orchestrator.EventEscalated, orchestrator.EventExternal:
			return fmt.Sprintf("<- %v", e.Kind)
		}
	}
	return ""
}

// live runs the episode on the emulator and reports it.
func live(p scenario.Params, spec scenario.Spec) error {
	fmt.Printf("engine: emul (wall clock; scale %.0fx, batch %d, poll every %v)\n\n",
		spec.Live.Scale, spec.Live.BatchSize, spec.Live.PollEvery)
	res, err := scenario.Run(p, spec)
	if err != nil {
		return err
	}

	for _, srv := range res.Servers {
		fmt.Printf("%s control-plane events (downtime = measured transfer):\n", srv.ID)
		for _, e := range srv.Events {
			fmt.Println("  " + e.Format(time.Millisecond))
		}
		for _, m := range srv.History {
			kind := "push-aside"
			if m.Reclaim {
				kind = "reclaim"
			}
			fmt.Printf("  moved   [%8v] %-10s %s: %v -> %v (chain %d)\n",
				m.At.Round(time.Millisecond), kind, m.Element, m.From, m.To, m.ChainIndex)
		}
		for i, ep := range srv.Episodes {
			relief := "not reached"
			if ep.Relief >= 0 {
				relief = ep.Relief.Round(time.Millisecond).String()
			}
			fmt.Printf("  episode #%d at %v: demand %.2f -> %.2f, relief %s\n",
				i+1, ep.At.Round(time.Millisecond), ep.PreDemand, ep.PostDemand, relief)
		}
		for _, pp := range srv.PingPongs {
			fmt.Printf("  PING-PONG: %s bounced %v->%v at %v and back at %v\n", pp.Element, pp.Out.From, pp.Out.To,
				pp.Out.At.Round(time.Millisecond), pp.Back.At.Round(time.Millisecond))
		}

		cols := []string{"t", "nic util", "cpu util", "dma util"}
		for _, t := range res.Tenants {
			cols = append(cols, t.Name+" Gbps")
		}
		tbl := report.NewTable(fmt.Sprintf("\n%s measured telemetry (per sampling window, catalog units)", srv.ID),
			append(cols, "loss", "event")...)
		var nicU, dmaU []float64
		for _, s := range srv.Samples {
			row := []any{s.At.Round(time.Millisecond), s.NIC.Utilization, s.CPU.Utilization, s.DMA.Utilization}
			for _, cl := range s.Chains {
				row = append(row, cl.DeliveredGbps)
			}
			tbl.AddRowf(append(row, s.LossRate, marker(srv.Events, s))...)
			nicU, dmaU = append(nicU, s.NIC.Utilization), append(dmaU, s.DMA.Utilization)
		}
		fmt.Println(tbl)
		fmt.Printf("%s NIC demand over time:        %s\n", srv.ID, report.Spark(nicU))
		fmt.Printf("%s DMA-engine demand over time: %s\n", srv.ID, report.Spark(dmaU))
		fmt.Printf("%s detector: %d episode(s), %d clear(s), %d rearm(s); %d migration(s), %d reclaim(s), %d escalation(s); settled=%v\n",
			srv.ID, srv.DetectorEvents, srv.DetectorClears, srv.DetectorRearms, srv.Migrations, srv.Reclaims, srv.Escalations, srv.Settled)
		fmt.Printf("%s frames: offered %d, delivered %d, dropped %d\n\n", srv.ID, srv.Final.Offered, srv.Final.Delivered, srv.Final.Dropped)
	}

	if len(res.CoordinatorLog) > 0 {
		fmt.Println("coordinator log:")
		for _, l := range res.CoordinatorLog {
			fmt.Println("  " + l)
		}
	}
	if len(res.Handoffs) > 0 {
		tbl := report.NewTable("\ncross-server migrations", "tenant", "from", "to", "reason", "state B", "buffered", "took")
		for _, m := range res.Handoffs {
			tbl.AddRowf(m.Tenant, string(m.From), string(m.To), m.Reason.String(),
				m.StateBytes, m.Buffered, m.Took.Round(time.Microsecond).String())
		}
		fmt.Println(tbl)
	}

	tbl := report.NewTable("per-tenant delivered Gbps (calm baseline -> during the overload -> after relief) and latency",
		"tenant", "ends on", "placement", "x-ings", "baseline", "during", "after", "mean", "p50", "p99", "p99.9", "latency")
	for _, t := range res.Tenants {
		tbl.AddRowf(t.Name, string(t.Home), t.Placement.String(), t.Placement.Crossings(), t.BaselineGbps, t.PreGbps, t.PostGbps,
			t.MeanGbps, t.DeliveredP50, t.DeliveredP99, t.DeliveredP999, t.Final.Latency.String())
	}
	fmt.Println(tbl)
	fmt.Printf("run took %v\n\n", res.Elapsed.Round(time.Millisecond))

	if err := res.Check(); err != nil {
		return fmt.Errorf("spec %s: %w", spec.Name, err)
	}
	if spec.Push == "" {
		fmt.Println("as expected: escalated, handed off, cleared, recovered")
	} else {
		fmt.Printf("as expected: %s pushed aside, relieved, no ping-pong\n", spec.Push)
	}
	return nil
}
