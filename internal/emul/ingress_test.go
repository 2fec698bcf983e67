package emul_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/emul"
	"repro/internal/traffic"
)

// hammer starts n senders on chain 0 that run until stop is set, counting
// the frames SendChain accepted. Each sender reads fence before its send and
// calls late if a send that began after the fence was set was accepted.
func hammer(r *emul.Runtime, n int, stop, fence *atomic.Bool, accepted *atomic.Uint64, late func()) *sync.WaitGroup {
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			synth := traffic.NewSynth(8, seed)
			for i := 0; !stop.Load(); i++ {
				fenced := fence.Load()
				if r.SendChain(0, synth.Frame(uint64(i%8), 128)) {
					accepted.Add(1)
					if fenced {
						late()
					}
				} else {
					runtime.Gosched() // full ring or closed ingress: let the worker run
				}
			}
		}(int64(g + 1))
	}
	return &wg
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// SendChain takes no lock against Close: its ticket on the chain's inflight
// count, taken before it reads closed, is what Close's drain waits on. So
// once Close returns nothing is accepted, and every frame accepted before is
// already delivered or dropped — the Result identity holds with no frame
// unaccounted. Run under -race -count=20.
func TestCloseExcludesLocklessSenders(t *testing.T) {
	r := newBatchRuntime(t, emul.Config{Scale: 10, BatchSize: 8, Workers: 2})
	r.Start()
	var stop, closeReturned atomic.Bool
	var accepted atomic.Uint64
	senders := hammer(r, 4, &stop, &closeReturned, &accepted, func() {
		t.Error("SendChain accepted a frame after Close returned")
	})
	waitFor(t, "traffic to flow", func() bool { return r.Results().Delivered > 500 })
	r.Close()
	closeReturned.Store(true)
	delivered, nfDrops, queueDrops, _ := accounting(r)
	idleDrain(t, r, "after Close")
	stop.Store(true)
	senders.Wait()
	if got := delivered + nfDrops + queueDrops; got != accepted.Load() {
		t.Errorf("when Close returned %d frames were delivered or dropped, %d were accepted", got, accepted.Load())
	}
	if d, n, q, _ := accounting(r); d+n+q != delivered+nfDrops+queueDrops {
		t.Error("frames finished after Close returned")
	}
}

// Once DrainChain returns nil on a quiesced chain, no frame of that chain is
// in flight and none is accepted afterwards, whatever the senders do. This
// guards the order inside SendChain — ticket first, quiesced check second:
// with the check first, a sender descheduled between the two (put a
// runtime.Gosched() there to see it) is admitted after DrainChain has read
// an inflight count of zero, and its frame enters a chain the handoff is
// already snapshotting.
func TestDrainChainExcludesRacingSenders(t *testing.T) {
	for round := 0; round < 20; round++ {
		r := handoffRuntime(t)
		r.Start()
		var stop, drainReturned atomic.Bool
		var accepted atomic.Uint64
		senders := hammer(r, 4, &stop, &drainReturned, &accepted, func() {
			t.Error("SendChain accepted a frame after DrainChain returned")
		})
		waitFor(t, "traffic to flow", func() bool { return r.Results().Delivered > 200 })
		if err := r.QuiesceChain(0); err != nil {
			t.Fatal(err)
		}
		if err := r.DrainChain(0, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		at := r.Results()
		drainReturned.Store(true)
		if admitted, finished := at.Offered-at.IngressDrops, at.Delivered+at.Dropped-at.IngressDrops; admitted != finished {
			t.Fatalf("DrainChain returned with %d frames admitted and %d finished", admitted, finished)
		}
		// Let every sender run on against the quiesced ingress.
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		stop.Store(true)
		senders.Wait()
		if after := r.Results(); after.Offered != at.Offered || after.Delivered != at.Delivered {
			t.Fatalf("after DrainChain returned the chain admitted %d more frames and delivered %d more",
				after.Offered-at.Offered, after.Delivered-at.Delivered)
		}
		if at.Offered-at.IngressDrops != accepted.Load() {
			t.Fatalf("runtime admitted %d frames, senders saw %d accepted", at.Offered-at.IngressDrops, accepted.Load())
		}
		r.Close()
	}
}

// Result.Offered is the head element's arrival count: with the first ring
// full — the chain is frozen, so nothing drains it — every further frame is
// an ingress drop, and Offered stays accepted + ingress drops.
func TestOfferedIsAcceptedPlusIngressDrops(t *testing.T) {
	r := handoffRuntime(t)
	r.Start()
	defer r.Close()
	if err := r.FreezeChain(0); err != nil {
		t.Fatal(err)
	}
	synth := traffic.NewSynth(8, 5)
	const sent = 700 // the default ring holds 256
	var accepted uint64
	for i := 0; i < sent; i++ {
		if r.SendChain(0, synth.Frame(uint64(i%8), 128)) {
			accepted++
		}
	}
	res := r.Results()
	if accepted == 0 || accepted == sent {
		t.Fatalf("accepted %d of %d: the first ring did not fill", accepted, sent)
	}
	if res.Offered != sent || res.IngressDrops != sent-accepted {
		t.Errorf("Offered = %d, IngressDrops = %d; want %d and %d", res.Offered, res.IngressDrops, sent, sent-accepted)
	}
	if _, err := r.ThawChain(0); err != nil {
		t.Fatal(err)
	}
	r.Drain()
	if res = r.Results(); res.Offered != sent || res.Delivered != accepted {
		t.Errorf("after the thaw Offered = %d, Delivered = %d; want %d and %d", res.Offered, res.Delivered, sent, accepted)
	}
}

// idleDrain calls Drain where nothing is in flight: it must not wait.
func idleDrain(t *testing.T, r *emul.Runtime, when string) {
	t.Helper()
	start := time.Now()
	r.Drain()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("Drain %s took %v with nothing in flight", when, took)
	}
}

// Drain has nothing to wait for on a runtime that was never started (a
// refused send leaves no ticket behind) or is idle.
func TestDrainWithNothingInFlightReturns(t *testing.T) {
	r := handoffRuntime(t)
	if r.SendChain(0, traffic.NewSynth(1, 1).Frame(0, 128)) {
		t.Fatal("SendChain accepted a frame before Start")
	}
	idleDrain(t, r, "before Start")
	r.Start()
	idleDrain(t, r, "before the first frame")
	pumpChain(t, r, 0, 50)
	idleDrain(t, r, "after a drained run")
	r.Close()
	idleDrain(t, r, "after Close")
}
