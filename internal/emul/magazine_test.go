package emul

import (
	"runtime"
	"testing"

	"repro/internal/chain"
	"repro/internal/device"
	"repro/internal/traffic"
)

// TestParkedWorkerHoldsNoFrames: a worker flushes its partial magazine
// before it parks and unloads it when it exits. Ten frames fill a third of
// a magazine, so a worker that kept them would leave the next ten
// AcquireFrame calls to allocate; with the flush, every send-10/drain cycle
// is served by the same ten buffers and allocates nothing once warm. One
// processor, so that no buffer can sit in another processor's sync.Pool
// cache (testing.AllocsPerRun measures that way too).
func TestParkedWorkerHoldsNoFrames(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, err := chain.New("park",
		chain.Element{Name: "fw", Type: device.TypeFirewall, Loc: device.KindSmartNIC},
		chain.Element{Name: "mon", Type: device.TypeMonitor, Loc: device.KindSmartNIC},
	)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Chains: []*chain.Chain{c}, Catalog: device.Table1(), Scale: 1, Workers: 1, PoolFrames: true})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	tmpl := traffic.NewSynth(1, 37).Frame(0, 512)
	w := r.workers[0]
	buffers := make(map[*byte]bool, 64)
	cycle := func() {
		for i := 0; i < 10; i++ {
			f := r.AcquireFrame(len(tmpl))
			buffers[&f[0]] = true
			copy(f, tmpl)
			if !r.SendChain(0, f) {
				t.Fatal("frame rejected")
			}
		}
		r.Drain()
		for !w.sleeping.Load() {
			runtime.Gosched()
		}
	}
	for i := 0; i < 3; i++ {
		cycle() // warm: the ten buffers, the magazines that carry them, the flow tables
	}
	allocs := testing.AllocsPerRun(50, cycle)
	if RaceShedAllocs > 0 {
		t.Logf("%d buffers, %.0f allocs per cycle, not asserted: under -race sync.Pool sheds magazines at random", len(buffers), allocs)
	} else if len(buffers) != 10 || allocs != 0 {
		t.Errorf("%d buffers served the send-10/drain cycles at %.0f allocs per cycle, want 10 and 0: the parked worker kept what it recycled", len(buffers), allocs)
	}

	r.Close()
	if w.mag != nil {
		t.Error("Close left a magazine loaded in the worker")
	}
}
