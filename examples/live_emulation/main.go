// Live emulation: real serialized frames flow through the real NF
// implementations on a goroutine pipeline while PAM's chosen migration
// executes live — freeze, state snapshot over the (emulated) PCIe link,
// restore, replay — without losing the Monitor's flow statistics or the
// Firewall's connection cache.
package main

import (
	"fmt"
	"log"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/emul"
	"repro/internal/nf"
	"repro/internal/pcie"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

func main() {
	rt, err := emul.New(emul.Config{
		Chains:     []*chain.Chain{scenario.Figure1Chain()},
		Catalog:    device.Table1(),
		Link:       pcie.DefaultLink(),
		Scale:      200, // Table-1 rates scaled down 200x for a dev machine
		BatchSize:  32,  // burst-granular dataplane: 32 frames per wakeup
		Workers:    2,   // run-to-completion pool of 2 workers
		PoolFrames: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	rt.Start()
	defer rt.Close()

	synth := traffic.NewSynth(32, 7)
	send := func(n int) {
		for i := 0; i < n; i++ {
			tmpl := synth.Frame(uint64(i%32), 512)
			frame := rt.AcquireFrame(len(tmpl)) // recycled at egress (PoolFrames)
			copy(frame, tmpl)
			rt.SendChain(0, frame)
		}
		rt.Drain()
	}

	send(2000)
	mon, _ := rt.Instance(scenario.NameMonitor)
	fmt.Printf("before migration: monitor tracks %d flows; placement %v\n",
		mon.(*nf.Monitor).FlowCount(), rt.Placement())

	// Ask PAM what to do about the (declared) hot spot and execute it live.
	view := scenario.View(rt.Placement(), scenario.DefaultParams(), device.Gbps(1.09))
	plan, err := core.PAM{}.Select(view)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("PAM plan:", plan)
	for _, step := range plan.Steps {
		rep, err := rt.MigrateChain(0, step.Element, step.To)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("executed:", rep)
	}

	send(2000)
	mon2, _ := rt.Instance(scenario.NameMonitor)
	res := rt.Results()
	fmt.Printf("after migration: monitor tracks %d flows; placement %v\n",
		mon2.(*nf.Monitor).FlowCount(), rt.Placement())
	fmt.Printf("delivered %d frames, %d NF stats entries, latency %v\n",
		res.Delivered, len(rt.NFStats()), res.Latency)
	for name, st := range rt.NFStats() {
		fmt.Printf("  %-10s %v\n", name, st)
	}
}
