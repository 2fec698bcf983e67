package emul

// White-box tests of run-to-completion across the PCIe border: a burst whose
// successor sits on the other device, in a ring the same worker owns, is
// carried into it without a ring hop — paying the DMA gate exactly as a
// popped burst does, and never overtaking a frame buffered in that ring.

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/traffic"
)

const borderFrameSize = 256

// borderRuntime hosts Monitor(CPU) → Firewall(NIC) → Logger(CPU) on one
// worker behind the default PCIe link: every hop crosses the border, and
// every successor ring belongs to the worker that forwards into it.
func borderRuntime(t *testing.T) *Runtime {
	t.Helper()
	c, err := chain.New("border",
		chain.Element{Name: "mon", Type: device.TypeMonitor, Loc: device.KindCPU},
		chain.Element{Name: "fw", Type: device.TypeFirewall, Loc: device.KindSmartNIC},
		chain.Element{Name: "log", Type: device.TypeLogger, Loc: device.KindCPU},
	)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{
		Chains:     []*chain.Chain{c},
		Catalog:    device.Table1(),
		Link:       pcie.DefaultLink(),
		Scale:      10,
		QueueDepth: 1024,
		BatchSize:  16,
		Workers:    1,
		SleepPCIe:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// orderTap installs an egress tap that checks per-flow FIFO order from the
// sequence number stamp writes into a frame's last four bytes.
type orderTap struct {
	mu         sync.Mutex
	last       map[byte]uint32
	delivered  int
	misordered int
}

func newOrderTap(r *Runtime) *orderTap {
	o := &orderTap{last: map[byte]uint32{}}
	r.SetChainEgressTap(func(_ int, frame []byte) {
		flow, seq := frame[len(frame)-5], binary.BigEndian.Uint32(frame[len(frame)-4:])
		o.mu.Lock()
		if prev, ok := o.last[flow]; ok && seq <= prev {
			o.misordered++
		}
		o.last[flow] = seq
		o.delivered++
		o.mu.Unlock()
	})
	return o
}

func stamp(frame []byte, flow byte, seq uint32) []byte {
	frame[len(frame)-5] = flow
	binary.BigEndian.PutUint32(frame[len(frame)-4:], seq)
	return frame
}

func (o *orderTap) check(t *testing.T, accepted int) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.delivered != accepted {
		t.Errorf("delivered %d of %d accepted frames", o.delivered, accepted)
	}
	if o.misordered > 0 {
		t.Errorf("%d frames arrived out of order within their flow", o.misordered)
	}
}

// TestBorderContinuationChargesCrossings: with one worker every hop of the
// CPU→NIC→CPU chain is continued inline — no successor ring ever sees a
// push — yet the DMA engine grants exactly the bytes it does when every
// crossing goes through a ring: each frame crosses twice in each direction
// (ingress and the fw→log hop to the CPU; the mon→fw hop and egress to the
// NIC).
func TestBorderContinuationChargesCrossings(t *testing.T) {
	r := borderRuntime(t)
	tap := newOrderTap(r)
	r.Start()
	defer r.Close()

	const n = 2000
	synth := traffic.NewSynth(8, 29)
	for i := 0; i < n; i++ {
		f := stamp(synth.Frame(uint64(i%8), borderFrameSize), byte(i%8), uint32(i))
		for !r.SendChain(0, f) {
			time.Sleep(50 * time.Microsecond)
		}
	}
	r.Drain()
	tap.check(t, n)

	for _, el := range r.chains[0].elems[1:] {
		if pushes := el.shards[0].q.enq.Load(); pushes != 0 {
			t.Errorf("%s: %d frames went through its ring; an empty ring owned by the forwarding worker should be continued into", el.name, pushes)
		}
	}
	dc := r.dma.counters()
	for dir, name := range map[dmaDir]string{dmaToCPU: "to CPU", dmaToNIC: "to NIC"} {
		if want := uint64(2 * n * borderFrameSize); dc.grantBytes[dir] != want {
			t.Errorf("DMA %s: granted %d bytes, want %d", name, dc.grantBytes[dir], want)
		}
	}
}

// TestBorderContinuationKeepsFreezeBufferOrder: frames a migration freeze
// left in the successor's ring leave before any later frame of their flow,
// although the successor is unpaused and owned by the forwarding worker —
// first with both rings loaded by hand so the worker meets exactly that
// state, then under live MigrateChain moves of the middle element.
func TestBorderContinuationKeepsFreezeBufferOrder(t *testing.T) {
	r := borderRuntime(t)
	tap := newOrderTap(r)
	r.Start()
	defer r.Close()
	synth := traffic.NewSynth(4, 31)
	mon, fw, w := r.chains[0].elems[0], r.chains[0].elems[1], r.workers[0]
	accepted := 0
	send := func(flow byte, seq uint32) {
		t.Helper()
		if !r.SendChain(0, stamp(synth.Frame(uint64(flow), borderFrameSize), flow, seq)) {
			t.Fatalf("frame %d of flow %d rejected", seq, flow)
		}
		accepted++
	}
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// Frame 1 is buffered in fw's ring behind a freeze, frame 2 of the same
	// flow in mon's; both elements resume before the parked worker looks.
	// Its sweep reaches mon first: frame 2 must queue behind frame 1.
	fw.freeze()
	send(0, 1)
	await("frame 1 in fw's ring", func() bool { return fw.shards[0].q.pending() == 1 })
	mon.freeze()
	send(0, 2)
	await("the worker to park", w.sleeping.Load)
	fw.paused.Store(false)
	mon.unfreeze()
	r.Drain()
	tap.check(t, accepted)

	var stop atomic.Bool
	done := make(chan int)
	go func() {
		sent := 0
		for seq := uint32(3); !stop.Load(); seq++ {
			if r.SendChain(0, stamp(synth.Frame(uint64(seq%4), borderFrameSize), byte(seq%4), seq)) {
				sent++
			}
			time.Sleep(20 * time.Microsecond)
		}
		done <- sent
	}()
	buffered := 0
	for i := 0; i < 6; i++ {
		rep, err := r.MigrateChain(0, "fw", []device.Kind{device.KindCPU, device.KindSmartNIC}[i%2])
		if err != nil {
			t.Fatal(err)
		}
		buffered += rep.Buffered
	}
	stop.Store(true)
	accepted += <-done
	r.Drain()
	if buffered == 0 {
		t.Error("no frame was buffered across six migrations: the freeze buffer was not exercised")
	}
	tap.check(t, accepted)
}
