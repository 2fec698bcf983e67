package emul_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/device"
	"repro/internal/emul"
	"repro/internal/nf"
	"repro/internal/pcie"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

func newBatchRuntime(t *testing.T, cfg emul.Config) *emul.Runtime {
	t.Helper()
	if len(cfg.Chains) == 0 {
		cfg.Chains = []*chain.Chain{scenario.Figure1Chain()}
	}
	if cfg.Catalog == nil {
		cfg.Catalog = device.Table1()
	}
	if (cfg.Link == pcie.Link{}) {
		cfg.Link = pcie.DefaultLink()
	}
	r, err := emul.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

// accounting returns sent-side and receive-side tallies for the identity
// offered = delivered + NF drops + queue drops + ingress drops.
func accounting(r *emul.Runtime) (delivered, nfDrops, queueDrops, ingress uint64) {
	res := r.Results()
	for _, d := range res.QueueDrops {
		queueDrops += d
	}
	for _, s := range r.NFStats() {
		nfDrops += s.Dropped
	}
	return res.Delivered, nfDrops, queueDrops, res.IngressDrops
}

// TestBatchAccountingIdentity runs the sharded, pooled, batched dataplane
// and requires every offered frame to be accounted for:
// offered = delivered + NF verdict drops + queue drops + ingress drops.
func TestBatchAccountingIdentity(t *testing.T) {
	r := newBatchRuntime(t, emul.Config{
		Scale:      50,
		QueueDepth: 1024,
		BatchSize:  32,
		Workers:    4,
		PoolFrames: true,
	})
	r.Start()
	synth := traffic.NewSynth(16, 11)
	const n = 5000
	for i := 0; i < n; i++ {
		tmpl := synth.Frame(uint64(i%16), 512)
		f := r.AcquireFrame(len(tmpl))
		copy(f, tmpl)
		r.SendChain(0, f)
	}
	r.Drain()
	delivered, nfDrops, queueDrops, ingress := accounting(r)
	res := r.Results()
	if res.Offered != n {
		t.Fatalf("offered = %d, want %d", res.Offered, n)
	}
	if delivered+nfDrops+queueDrops+ingress != n {
		t.Errorf("identity broken: delivered=%d nfDrops=%d queueDrops=%d ingress=%d ≠ offered=%d",
			delivered, nfDrops, queueDrops, ingress, n)
	}
	if delivered == 0 {
		t.Error("nothing delivered under batch mode")
	}
	for name, s := range r.NFStats() {
		if s.Processed == 0 {
			t.Errorf("NF %s processed nothing", name)
		}
	}
	r.Close()
}

// TestBatchPerFlowOrdering: flow-hash sharding must preserve per-flow FIFO
// order end to end even with the element sharded across pool workers.
func TestBatchPerFlowOrdering(t *testing.T) {
	r := newBatchRuntime(t, emul.Config{
		Scale:      4, // the gate, not the sender, paces the workers: bursts are full
		QueueDepth: 4096,
		BatchSize:  16,
		Workers:    4,
	})
	// Sequence numbers ride in the IPv4 ID field (bytes 18..19 of the frame).
	seq := func(frame []byte) uint16 { return uint16(frame[18])<<8 | uint16(frame[19]) }
	flowOf := func(frame []byte) byte { return frame[29] } // last byte of src IP
	lastSeen := map[byte]uint16{}
	var mu sync.Mutex
	var misordered int
	r.SetChainEgressTap(func(_ int, frame []byte) {
		mu.Lock()
		f, s := flowOf(frame), seq(frame)
		if prev, ok := lastSeen[f]; ok && s <= prev {
			misordered++
		}
		lastSeen[f] = s
		mu.Unlock()
	})
	r.Start()
	synth := traffic.NewSynth(8, 13)
	sent := 0
	for i := 0; i < 4000; i++ {
		fr := synth.Frame(uint64(i%8), 256)
		fr[18], fr[19] = byte(i>>8), byte(i) // monotone per flow because i mod 8 is fixed per flow
		if r.SendChain(0, fr) {
			sent++
		}
	}
	r.Drain()
	r.Close()
	if sent == 0 {
		t.Fatal("nothing accepted")
	}
	if misordered > 0 {
		t.Errorf("%d frames arrived out of order within their flow", misordered)
	}
}

// TestShardedMigrationUnderLoad: freeze → transfer → restore → replay must
// stay loss-free when the element is sharded across pool workers mid-traffic.
func TestShardedMigrationUnderLoad(t *testing.T) {
	r := newBatchRuntime(t, emul.Config{
		Scale:      100,
		QueueDepth: 8192,
		BatchSize:  16,
		Workers:    4,
	})
	r.Start()
	defer r.Close()

	done := make(chan int)
	go func() {
		synth := traffic.NewSynth(8, 17)
		sent := 0
		for i := 0; i < 2000; i++ {
			if r.SendChain(0, synth.Frame(uint64(i%8), 200)) {
				sent++
			}
		}
		done <- sent
	}()
	time.Sleep(2 * time.Millisecond)
	rep, err := r.MigrateChain(0, scenario.NameMonitor, device.KindCPU)
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if rep.StateBytes == 0 {
		t.Error("migration moved no state")
	}
	sent := <-done
	r.Drain()

	delivered, nfDrops, queueDrops, _ := accounting(r)
	if delivered+nfDrops+queueDrops != uint64(sent) {
		t.Errorf("frames lost across sharded migration: delivered=%d nfDrops=%d queueDrops=%d sent=%d",
			delivered, nfDrops, queueDrops, sent)
	}
	if queueDrops != 0 {
		t.Errorf("queue drops = %d; the shard freeze buffers must absorb the burst", queueDrops)
	}
	inst, _ := r.Instance(scenario.NameMonitor)
	if got := inst.(*nf.Monitor).FlowCount(); got != 8 {
		t.Errorf("monitor tracks %d flows after migration, want 8", got)
	}
	if loc := r.Placement(); loc.At(loc.Index(scenario.NameMonitor)).Loc != device.KindCPU {
		t.Error("placement not updated")
	}
}

// TestSendCloseRace hammers Send from several goroutines while Close runs.
// Run under -race: the old runtime checked closed and then sent on a
// channel Close was concurrently closing (panic: send on closed channel).
func TestSendCloseRace(t *testing.T) {
	r := newBatchRuntime(t, emul.Config{Scale: 10, BatchSize: 8, Workers: 2})
	r.Start()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			synth := traffic.NewSynth(4, seed)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.SendChain(0, synth.Frame(uint64(i%4), 128))
			}
		}(int64(g + 100))
	}
	time.Sleep(10 * time.Millisecond)
	r.Close() // must not panic against concurrent Sends
	close(stop)
	wg.Wait()
	if r.SendChain(0, traffic.NewSynth(1, 1).Frame(0, 128)) {
		t.Error("Send accepted after Close")
	}
}

// TestSteadyStateAllocs guards the zero-alloc promise of the pooled batch
// dataplane end to end: after warm-up, pushing a frame through the whole
// four-element chain allocates nothing per frame, per hop or per burst —
// all-pass verdicts are a shared slice and buffers recycle by the magazine.
// What the bound leaves room for is the pool growing when more frames are in
// flight than the warm-up ever had. Counted via MemStats, per frame:
// testing.AllocsPerRun would confine the pool workers and the sender to one
// processor and truncate to whole allocations per run (the per-component
// guards in packet and nf use it).
func TestSteadyStateAllocs(t *testing.T) {
	r := newBatchRuntime(t, emul.Config{
		Scale:      4, // the gate, not the sender, paces the workers: bursts are full
		QueueDepth: 4096,
		BatchSize:  64,
		Workers:    2,
		PoolFrames: true,
	})
	r.Start()
	defer r.Close()
	synth := traffic.NewSynth(8, 21)
	tmpls := make([][]byte, 8)
	for i := range tmpls {
		tmpls[i] = synth.Frame(uint64(i), 512)
	}
	send := func(count int) {
		for i := 0; i < count; i++ {
			tmpl := tmpls[i%8]
			f := r.AcquireFrame(len(tmpl))
			copy(f, tmpl)
			for !r.SendChain(0, f) {
				runtime.Gosched()
			}
		}
		r.Drain()
	}
	send(12000) // warm up: flow tables, logger ring, conn caches, and a pool as deep as the rings

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const n = 20000
	send(n)
	runtime.ReadMemStats(&after)
	perFrame := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("steady-state allocs/frame = %.3f", perFrame)
	bound := 0.05 + emul.RaceShedAllocs
	if perFrame > bound {
		t.Errorf("steady-state allocations regressed: %.3f allocs/frame, want ≤%.2f", perFrame, bound)
	}
}
