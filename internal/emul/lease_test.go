package emul

// White-box tests of the per-worker token leases: a lease drawn under one
// placement generation must never be spent under another (the lease form of
// the setRate fast→slow clamp guarantee), and every return path — stale
// generation, gate change, migration freeze — must keep the gate's grant
// accounting exact, neither leaking nor minting device budget. Run under
// -race: the freeze test exercises the lease against live pool workers and
// the migration coordinator.

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/traffic"
)

// TestLeaseStaleGenerationNotSpent drives worker.charge directly through a
// placement-generation bump on the same gate — the retarget case: an element
// re-placed fast→slow keeps its device, but a lease drawn under the old rate
// must be returned to the gate and re-drawn, never spent. The balance tells
// the two apart: returning and re-drawing debits the gate by the new burst's
// cost plus a fresh quantum, while spending the stale lease would leave the
// balance untouched.
func TestLeaseStaleGenerationNotSpent(t *testing.T) {
	dev := newDeviceGate(device.KindSmartNIC)
	burst := dev.burstN.Load()
	quantum := burst / leaseDiv // one resident-free worker's lease quantum

	w := &worker{}
	cost1, cost2 := 0.0001, 0.0002
	need1, need2 := nanoUnits(cost1), nanoUnits(cost2)

	w.charge(cost1, dev, 1)
	if w.leaseDev != dev || w.leaseGen != 1 {
		t.Fatalf("lease pinned to gen %d on %v, want gen 1 on the charged gate", w.leaseGen, w.leaseDev)
	}
	if w.leaseNanos != quantum {
		t.Fatalf("lease drawn = %d nano-units, want quantum %d", w.leaseNanos, quantum)
	}
	if got, want := dev.balance.Load(), burst-need1-quantum; got != want {
		t.Fatalf("balance after first charge = %d, want %d", got, want)
	}

	// The generation bump: the stale lease must go back through returnNanos
	// and a fresh lease come out, visible as a further balance debit of
	// need2+quantum (spending the stale lease would debit nothing).
	w.charge(cost2, dev, 2)
	if w.leaseGen != 2 {
		t.Errorf("lease generation after retarget charge = %d, want 2", w.leaseGen)
	}
	if got, want := dev.balance.Load(), burst-need1-need2-quantum; got != want {
		t.Errorf("balance after retarget charge = %d, want %d: stale lease spent or not returned", got, want)
	}
	// Conservation: the gate's net grant is exactly what was spent plus the
	// one outstanding lease.
	if got, want := dev.granted.Load(), need1+need2+w.leaseNanos; got != want {
		t.Errorf("granted = %d nano-units, want spent+outstanding = %d", got, want)
	}
}

// TestLeaseReturnedOnGateChange migrates a shard's charges to a different
// gate: the lease held from the old gate must be returned to the old gate —
// its net grant drops back to exactly the budget spent there — and the new
// gate charged fresh.
func TestLeaseReturnedOnGateChange(t *testing.T) {
	nic := newDeviceGate(device.KindSmartNIC)
	cpu := newDeviceGate(device.KindCPU)

	w := &worker{}
	cost1, cost2 := 0.0001, 0.0003
	w.charge(cost1, nic, 1)
	if w.leaseDev != nic || w.leaseNanos == 0 {
		t.Fatal("no lease drawn from the first gate")
	}

	w.charge(cost2, cpu, 5)
	if w.leaseDev != cpu || w.leaseGen != 5 {
		t.Fatalf("lease after gate change pinned to %v gen %d, want the new gate gen 5", w.leaseDev, w.leaseGen)
	}
	if got, want := nic.granted.Load(), nanoUnits(cost1); got != want {
		t.Errorf("old gate granted = %d nano-units, want exactly spent %d: lease leaked across gates", got, want)
	}
	if got, want := cpu.granted.Load(), nanoUnits(cost2)+w.leaseNanos; got != want {
		t.Errorf("new gate granted = %d nano-units, want spent+outstanding = %d", got, want)
	}
}

// TestLeaseReturnForfeitsAboveLimit guards the no-minting edge of
// returnNanos: a return into a bucket already at its limit is forfeited, not
// banked, and the grant counter is only credited back by what was actually
// banked — the balance can never exceed the configured cap.
func TestLeaseReturnForfeitsAboveLimit(t *testing.T) {
	dev := newDeviceGate(device.KindSmartNIC)
	burst := dev.burstN.Load()

	// Bucket is seeded full: a return must be forfeited entirely.
	dev.returnNanos(1000)
	if got := dev.balance.Load(); got != burst {
		t.Fatalf("balance after return into a full bucket = %d, want %d", got, burst)
	}
	if got := dev.granted.Load(); got != 0 {
		t.Errorf("granted after forfeited return = %d, want 0: counter credited for unbanked tokens", got)
	}

	// Partial headroom: only the headroom is banked and credited back.
	if !dev.tryTake(500) {
		t.Fatal("seeded gate declined a tiny take")
	}
	dev.returnNanos(1000)
	if got := dev.balance.Load(); got != burst {
		t.Errorf("balance after partial return = %d, want refilled to %d", got, burst)
	}
	if got := dev.granted.Load(); got != 0 {
		t.Errorf("granted after partial return = %d, want 0 (500 taken, 500 banked back)", got)
	}
}

// TestFrozenShardReturnsLease is the freeze-path conservation test: a live
// element serves a known workload (banking a lease along the way), then
// migrates. The freeze quiesces the worker, which must return its unspent
// lease before acking — so the instant the migration completes, the source
// gate's net grant equals exactly the device time the workload cost, with
// no lease budget stranded on the frozen worker. Run under -race.
func TestFrozenShardReturnsLease(t *testing.T) {
	r := twoTenantRuntime(t, device.TypeMonitor, device.TypeMonitor, pcie.DefaultLink(), false)
	r.Start()
	defer r.Close()

	el := r.chains[0].elems[0]
	rate := el.placed.Load().bps

	const frames, frameBytes = 20, 256
	synth := traffic.NewSynth(8, 11)
	sent := 0
	for i := 0; i < frames; i++ {
		if r.SendChain(0, synth.Frame(uint64(i%4), frameBytes)) {
			sent++
		}
		time.Sleep(200 * time.Microsecond)
	}
	deadline := time.Now().Add(2 * time.Second)
	for el.meter.Packets() < uint64(sent) {
		if time.Now().After(deadline) {
			t.Fatalf("served %d of %d frames before deadline", el.meter.Packets(), sent)
		}
		time.Sleep(time.Millisecond)
	}

	// Freeze and move the element off the NIC: pause() must return the
	// worker's banked lease before acking the freeze.
	if _, err := r.MigrateChain(0, "ga0", device.KindCPU); err != nil {
		t.Fatalf("MigrateChain: %v", err)
	}

	// Exact conservation: with the lease back, the NIC's net grant is the
	// workload's true cost — Σ ceil-rounded burst costs, so at most one
	// nano-unit (1e-9 device-seconds) of overcharge per burst.
	want := float64(sent*frameBytes) / rate
	got := r.gates[device.KindSmartNIC].grantedUnits()
	if tol := float64(sent) * 1e-9; got < want || got > want+tol {
		t.Errorf("NIC granted %.9f device-seconds after freeze, want %.9f (+%.0g rounding): lease stranded or minted",
			got, want, tol)
	}
}
