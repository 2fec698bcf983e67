// Multi-segment chains: §2 notes that "due to the several packet
// transmissions between SmartNIC and CPU, there may be multiple border vNFs
// in a service chain". This example builds a six-NF chain that weaves across
// the PCIe boundary twice, shows the resulting border sets, and compares
// PAM's choice with the naive one at a hot spot.
package main

import (
	"fmt"
	"log"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/scenario"
)

func main() {
	ch := scenario.LongChain()
	fmt.Println("chain:", ch)
	fmt.Println("crossings:", ch.Crossings())

	bl, br := ch.Borders(chain.BorderModePaper)
	names := func(idx []int) []string {
		out := make([]string, len(idx))
		for i, j := range idx {
			out[i] = ch.At(j).Name
		}
		return out
	}
	fmt.Println("left borders BL:", names(bl))
	fmt.Println("right borders BR:", names(br))

	// The NIC hosts RateLimiter(8), Logger(2), Monitor(3.2), Firewall(10):
	// per-Gbit load 1/8 + 1/2 + 1/3.2 + 1/10 = 1.05 → saturation ≈ 0.95.
	p := scenario.DefaultParams()
	v := scenario.ViewExtended(ch, p, device.Gbps(0.95))

	for _, sel := range []core.Selector{core.PAM{}, core.NaiveCheapestOnCPU{}, core.NaiveMinCapacityLoop{}} {
		plan, err := sel.Select(v)
		if err != nil {
			log.Fatalf("%s: %v", sel.Name(), err)
		}
		fmt.Printf("\n%s\n", plan)
		a, err := core.Analyze(plan.Result, v, v.Throughput)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  after: crossings=%d NIC=%.2f CPU=%.2f maxThroughput=%.2f Gbps\n",
			a.Crossings, a.NICUtil, a.CPUUtil, a.MaxThroughput.Float())
	}

	// Beyond the paper: several chains share one SmartNIC, so utilizations
	// add up and the hot spot is an aggregate property. MultiPAM runs the
	// same border logic over all chains at once.
	fmt.Println("\n--- multi-chain (two Figure-1 chains sharing the SmartNIC) ---")
	a1 := scenario.Figure1Chain()
	a2 := scenario.Figure1Chain()
	a2.Name = "figure1-b"
	mv := core.MultiView{
		Loads: []core.Load{
			{Chain: a1, Throughput: 0.55},
			{Chain: a2, Throughput: 0.55},
		},
		Catalog: device.Table1(),
	}
	mv.NIC, mv.CPU = scenario.Devices(p)
	mplan, err := core.MultiPAM{}.SelectMulti(mv)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(mplan)
	fmt.Println("each chain alone is at 50% NIC utilization; together they overload it,")
	fmt.Println("and MultiPAM pushes a border Logger aside without adding crossings anywhere.")
}
