package emul_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/device"
	"repro/internal/emul"
	"repro/internal/nf"
	"repro/internal/pcie"
	"repro/internal/traffic"
)

// monChain builds the one-element Monitor chain the handoff tests migrate:
// Monitor carries a flow table, so a faithful restore is observable.
func monChain(t *testing.T) *chain.Chain {
	t.Helper()
	c, err := chain.New("tenant-m",
		chain.Element{Name: "mon", Type: device.TypeMonitor, Loc: device.KindSmartNIC},
	)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func handoffRuntime(t *testing.T) *emul.Runtime {
	t.Helper()
	r, err := emul.New(emul.Config{
		Chains:  []*chain.Chain{monChain(t)},
		Catalog: device.Table1(),
		Link:    pcie.DefaultLink(),
		Scale:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func pumpChain(t *testing.T, r *emul.Runtime, ci, n int) {
	t.Helper()
	synth := traffic.NewSynth(8, 3)
	for i := 0; i < n; i++ {
		// Retry ring backpressure: the scaled gate drains slower than a
		// tight send loop, and a rejected frame here is congestion, not the
		// quiesce mechanism under test.
		ok := false
		for try := 0; try < 200 && !ok; try++ {
			ok = r.SendChain(ci, synth.Frame(uint64(i%8), 512))
			if !ok {
				time.Sleep(100 * time.Microsecond)
			}
		}
		if !ok {
			t.Fatalf("frame %d rejected persistently", i)
		}
	}
	r.Drain()
}

// TestChainHandoffRoundTrip walks the full cross-server sequence two fleet
// agents perform — destination freeze, source quiesce/drain/freeze/snapshot,
// destination restore/thaw — and checks the three properties a handoff must
// deliver: the source stops accepting, the Monitor's flow state arrives
// intact on the destination, and frames rerouted during the freeze window
// replay instead of dropping.
func TestChainHandoffRoundTrip(t *testing.T) {
	src := handoffRuntime(t)
	dst := handoffRuntime(t)
	src.Start()
	dst.Start()
	defer src.Close()
	defer dst.Close()

	// Populate migratable state on the source.
	pumpChain(t, src, 0, 400)
	srcMon, _ := src.Instance("mon")
	wantPkts, wantBytes := srcMon.(*nf.Monitor).Totals()
	wantFlows := srcMon.(*nf.Monitor).FlowCount()
	if wantPkts == 0 || wantFlows == 0 {
		t.Fatalf("source monitor saw no traffic (pkts=%d flows=%d)", wantPkts, wantFlows)
	}

	// Destination freezes first: anything rerouted to it from here on
	// buffers in the rings and replays after the thaw.
	if err := dst.FreezeChain(0); err != nil {
		t.Fatal(err)
	}
	synth := traffic.NewSynth(8, 9)
	const rerouted = 50
	for i := 0; i < rerouted; i++ {
		if !dst.SendChain(0, synth.Frame(uint64(i%8), 512)) {
			t.Fatalf("rerouted frame %d rejected by frozen destination", i)
		}
	}

	// Source side: close ingress, let in-flight frames finish, freeze,
	// snapshot.
	if err := src.QuiesceChain(0); err != nil {
		t.Fatal(err)
	}
	if src.SendChain(0, synth.Frame(0, 512)) {
		t.Error("quiesced chain accepted a frame")
	}
	if err := src.DrainChain(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := src.FreezeChain(0); err != nil {
		t.Fatal(err)
	}
	snap, err := src.SnapshotChain(0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.StateBytes() == 0 {
		t.Error("snapshot of a stateful chain carries no state")
	}

	// Destination side: install and thaw.
	stateBytes, err := dst.RestoreChain(0, snap)
	if err != nil {
		t.Fatal(err)
	}
	if stateBytes != snap.StateBytes() {
		t.Errorf("restored %d state bytes, snapshot holds %d", stateBytes, snap.StateBytes())
	}
	buffered, err := dst.ThawChain(0)
	if err != nil {
		t.Fatal(err)
	}
	if buffered != rerouted {
		t.Errorf("thaw found %d buffered frames, want %d", buffered, rerouted)
	}
	dst.Drain()

	dstMon, _ := dst.Instance("mon")
	gotPkts, gotBytes := dstMon.(*nf.Monitor).Totals()
	// The restored totals plus the replayed reroutes, exactly: nothing lost,
	// nothing double-counted.
	if gotPkts != wantPkts+rerouted {
		t.Errorf("destination monitor pkts = %d, want %d restored + %d replayed", gotPkts, wantPkts, rerouted)
	}
	if gotBytes <= wantBytes {
		t.Errorf("destination monitor bytes = %d, want > restored %d", gotBytes, wantBytes)
	}
	if fc := dstMon.(*nf.Monitor).FlowCount(); fc < wantFlows {
		t.Errorf("destination flow table holds %d flows, source had %d", fc, wantFlows)
	}

	// The destination serves new traffic; the source stays parked.
	pumpChain(t, dst, 0, 100)
	if src.SendChain(0, synth.Frame(0, 512)) {
		t.Error("parked source chain accepted a frame after handoff")
	}
}

// TestResumeChainAborts exercises the abort path: a source that quiesced and
// froze for a handoff that fell through returns to full service.
func TestResumeChainAborts(t *testing.T) {
	r := handoffRuntime(t)
	r.Start()
	defer r.Close()

	if err := r.QuiesceChain(0); err != nil {
		t.Fatal(err)
	}
	if err := r.FreezeChain(0); err != nil {
		t.Fatal(err)
	}
	if err := r.ResumeChain(0); err != nil {
		t.Fatal(err)
	}
	pumpChain(t, r, 0, 100)
	mon, _ := r.Instance("mon")
	if pkts, _ := mon.(*nf.Monitor).Totals(); pkts != 100 {
		t.Errorf("resumed chain delivered %d frames to the monitor, want 100", pkts)
	}
}

// TestHandoffGuards checks every protocol violation surfaces as an error
// instead of racing the dataplane.
func TestHandoffGuards(t *testing.T) {
	r := handoffRuntime(t)
	r.Start()
	defer r.Close()

	if err := r.DrainChain(0, time.Second); err == nil || !strings.Contains(err.Error(), "not quiesced") {
		t.Errorf("drain without quiesce: err = %v", err)
	}
	if _, err := r.SnapshotChain(0); err == nil || !strings.Contains(err.Error(), "not frozen") {
		t.Errorf("snapshot of a live chain: err = %v", err)
	}
	if _, err := r.RestoreChain(0, emul.ChainSnapshot{Elements: make([]emul.ElementSnapshot, 1)}); err == nil {
		t.Error("restore into a live chain accepted")
	}
	if _, err := r.SnapshotChain(7); err == nil {
		t.Error("snapshot of a bogus index accepted")
	}
	if err := r.QuiesceChain(-1); err == nil {
		t.Error("quiesce of a bogus index accepted")
	}

	// Structural mismatch: freeze, then offer a snapshot of a different chain.
	if err := r.FreezeChain(0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RestoreChain(0, emul.ChainSnapshot{Chain: "other"}); err == nil {
		t.Error("element-count mismatch accepted")
	}
	bad := emul.ChainSnapshot{Chain: "other", Elements: []emul.ElementSnapshot{
		{Name: "mon", Type: device.TypeLogger, Loc: device.KindSmartNIC},
	}}
	if _, err := r.RestoreChain(0, bad); err == nil || !strings.Contains(err.Error(), "hosts") {
		t.Errorf("type mismatch: err = %v", err)
	}
	if _, err := r.ThawChain(0); err != nil {
		t.Fatal(err)
	}

	if idx := r.ChainIndex("tenant-m"); idx != 0 {
		t.Errorf("ChainIndex(tenant-m) = %d", idx)
	}
	if idx := r.ChainIndex("nope"); idx != -1 {
		t.Errorf("ChainIndex(nope) = %d", idx)
	}
}

// TestRestoreReplaysPlacement proves RestoreChain reproduces the source's
// border position, not the chain's declared layout: the source migrated its
// element to the CPU before the handoff, so the destination must come up
// with the element on the CPU too.
func TestRestoreReplaysPlacement(t *testing.T) {
	src := handoffRuntime(t)
	dst := handoffRuntime(t)
	src.Start()
	dst.Start()
	defer src.Close()
	defer dst.Close()

	pumpChain(t, src, 0, 50)
	if _, err := src.MigrateChain(0, "mon", device.KindCPU); err != nil {
		t.Fatal(err)
	}
	if err := src.QuiesceChain(0); err != nil {
		t.Fatal(err)
	}
	if err := src.DrainChain(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := src.FreezeChain(0); err != nil {
		t.Fatal(err)
	}
	snap, err := src.SnapshotChain(0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Elements[0].Loc != device.KindCPU {
		t.Fatalf("snapshot recorded loc %v, want CPU", snap.Elements[0].Loc)
	}

	if err := dst.FreezeChain(0); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.RestoreChain(0, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ThawChain(0); err != nil {
		t.Fatal(err)
	}
	pl := dst.Placement()
	if loc := pl.At(0).Loc; loc != device.KindCPU {
		t.Errorf("destination placement %v, want the snapshot's CPU position", loc)
	}
	// And the restored placement actually forwards.
	pumpChain(t, dst, 0, 50)
	mon, _ := dst.Instance("mon")
	if pkts, _ := mon.(*nf.Monitor).Totals(); pkts < 100 {
		t.Errorf("restored CPU placement forwarded %d pkts, want >= 100", pkts)
	}
}
