package packet_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/traffic"
)

func TestDecoderPoolReuse(t *testing.T) {
	dp := packet.NewDecoderPool()
	frame := traffic.NewSynth(4, 1).Frame(0, 256)
	d := dp.Get()
	if _, err := d.Decode(frame); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !d.Has(packet.LayerIPv4) {
		t.Fatal("pooled decoder did not decode IPv4")
	}
	dp.Put(d)
	d2 := dp.Get()
	if _, err := d2.Decode(frame); err != nil {
		t.Fatalf("Decode after reuse: %v", err)
	}
	dp.Put(nil) // must not panic
}

func TestFramePoolSizes(t *testing.T) {
	fp := packet.NewFramePool()
	b := fp.Get(512)
	if len(b) != 512 || cap(b) < packet.MaxFrameSize {
		t.Fatalf("Get(512): len=%d cap=%d", len(b), cap(b))
	}
	fp.Put(b)

	big := fp.Get(packet.MaxFrameSize + 100)
	if len(big) != packet.MaxFrameSize+100 {
		t.Fatalf("oversize Get: len=%d", len(big))
	}
	fp.Put(make([]byte, 10)) // undersized: silently not pooled
	got := fp.Get(packet.MaxFrameSize)
	if cap(got) < packet.MaxFrameSize {
		t.Fatalf("undersized buffer leaked into pool: cap=%d", cap(got))
	}
}

// TestMagazineExchange walks one owner's magazine through the trades it
// makes with the pool: its first (nil), a full one, a partial one on a
// flush, and an empty one, which comes straight back.
func TestMagazineExchange(t *testing.T) {
	fp := packet.NewFramePool()
	var none *packet.Magazine
	if none.Put(make([]byte, packet.MaxFrameSize)) {
		t.Fatal("a nil magazine accepted a buffer")
	}
	if !none.Put(make([]byte, 10)) {
		t.Error("an undersized buffer must be ignored, not trigger an exchange")
	}
	m := fp.Exchange(nil)
	if m == nil {
		t.Fatal("Exchange(nil) returned no magazine")
	}
	if again := fp.Exchange(m); again != m {
		t.Error("an empty magazine did not come straight back")
	}
	put := 0
	for m.Put(make([]byte, packet.MaxFrameSize)) {
		if put++; put > 1000 {
			t.Fatal("magazine never fills")
		}
	}
	if put != 32 {
		t.Errorf("magazine took %d buffers, want 32", put)
	}
	m.Put(make([]byte, 10)) // ignored even when full
	full := m
	if m = fp.Exchange(full); m == nil || m == full {
		t.Fatal("a full magazine was not traded for another")
	}
	for i := 0; i < 5; i++ {
		if !m.Put(make([]byte, packet.MaxFrameSize)) {
			t.Fatalf("traded magazine is not empty: refused buffer %d", i)
		}
	}
	partial := m
	if m = fp.Exchange(partial); m == nil || m == partial {
		t.Fatal("a partial magazine was not traded for another")
	}
	for i := 0; i < 32; i++ {
		if !m.Put(make([]byte, packet.MaxFrameSize)) {
			t.Fatalf("magazine traded on a flush is not empty: refused buffer %d of 32", i)
		}
	}
}

// TestFramePoolOneHolderPerBuffer drives the pool from all three kinds of
// caller at once — anonymous getters, anonymous putters and magazine owners
// trading with Exchange — and has every buffer carry its current holder's
// stamp: no buffer is ever handed to a second holder while the first still
// has it, none comes back shorter than a full frame, and undersized or
// oversized traffic never enters the pool. Meant for -race -count=10, where
// two holders of one buffer are also a reported data race.
func TestFramePoolOneHolderPerBuffer(t *testing.T) {
	const getters, putters, owners, perGetter = 3, 2, 2, 4000
	fp := packet.NewFramePool()
	var held sync.Map // *byte (a buffer's first byte) → the getter holding it
	type handoff struct {
		buf  []byte
		from byte
	}
	ch := make(chan handoff, 64) // a short queue of buffers in flight between holders

	var producers sync.WaitGroup
	for g := 0; g < getters; g++ {
		producers.Add(1)
		go func(id byte) {
			defer producers.Done()
			for i := 0; i < perGetter; i++ {
				n := 1 + (i*37+int(id))%packet.MaxFrameSize
				b := fp.Get(n)
				if len(b) != n || cap(b) < packet.MaxFrameSize {
					t.Errorf("Get(%d): len=%d cap=%d", n, len(b), cap(b))
					return
				}
				if prev, dup := held.LoadOrStore(&b[0], id); dup {
					t.Errorf("buffer handed to getter %d while getter %d holds it", id, prev)
					return
				}
				b[0], b[n-1] = id, id
				ch <- handoff{b, id}
				if i%64 == 0 {
					if big := fp.Get(packet.MaxFrameSize + 1 + i%100); len(big) != packet.MaxFrameSize+1+i%100 || cap(big) != len(big) {
						t.Errorf("oversize Get: len=%d cap=%d", len(big), cap(big))
					}
				}
			}
		}(byte(g + 1))
	}
	release := func(h handoff) []byte {
		if h.buf[0] != h.from || h.buf[len(h.buf)-1] != h.from {
			t.Errorf("buffer from getter %d was written by another holder", h.from)
		}
		held.Delete(&h.buf[0])
		return h.buf
	}
	var consumers sync.WaitGroup
	for p := 0; p < putters; p++ {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for h := range ch {
				fp.Put(release(h))
				fp.Put(make([]byte, 64)) // undersized: must never come back out of Get
			}
		}()
	}
	for w := 0; w < owners; w++ {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			var mag *packet.Magazine
			for h := range ch {
				b := release(h)
				if !mag.Put(b) {
					mag = fp.Exchange(mag)
					if !mag.Put(b) {
						t.Error("a freshly exchanged magazine refused a buffer")
						return
					}
				}
				mag.Put(make([]byte, 64)) // undersized: ignored
			}
			fp.Exchange(mag)
		}()
	}
	producers.Wait()
	close(ch)
	consumers.Wait()
}

// TestFramePoolTrimmedByGC: buffers idling in the pool are released by the
// collector — the depot is a sync.Pool, emptied over two collections — while
// the pool itself stays alive. A depot that pinned its high-water mark would
// leave the finalizer unrun.
func TestFramePoolTrimmedByGC(t *testing.T) {
	fp := packet.NewFramePool()
	released := make(chan struct{})
	func() {
		arr := new([packet.MaxFrameSize]byte)
		runtime.SetFinalizer(arr, func(*[packet.MaxFrameSize]byte) { close(released) })
		m := fp.Exchange(nil)
		m.Put(arr[:])
		fp.Exchange(m) // the flush of an owner going idle
	}()
	runtime.GC()
	runtime.GC()
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Error("a buffer idle in the pool survived two collections")
	}
	runtime.KeepAlive(fp)
}

func TestFlowHashConsistency(t *testing.T) {
	synth := traffic.NewSynth(8, 42)
	// Same flow, different sizes → same hash (headers determine it).
	h1 := packet.FlowHash(synth.Frame(3, 128))
	h2 := packet.FlowHash(synth.Frame(3, 1400))
	if h1 != h2 {
		t.Errorf("same flow hashed differently: %x vs %x", h1, h2)
	}
	// Distinct flows should spread: at least two distinct hashes over 8 flows.
	seen := map[uint64]bool{}
	for f := uint64(0); f < 8; f++ {
		seen[packet.FlowHash(synth.Frame(f, 256))] = true
	}
	if len(seen) < 2 {
		t.Errorf("flow hash does not spread: %d distinct values over 8 flows", len(seen))
	}
	// Both directions of a connection must hash identically (symmetric,
	// like flow.Key.SymmetricHash): canonical-key NFs require the whole
	// connection on one shard.
	b := packet.NewBuilder()
	fwd := b.BuildUDP4(
		packet.Ethernet{Type: packet.EtherTypeIPv4},
		packet.IPv4{Version: 4, TTL: 64, Src: packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{10, 0, 0, 2}},
		packet.UDP{SrcPort: 5555, DstPort: 80}, []byte("fwd"))
	hf := packet.FlowHash(fwd)
	rev := b.BuildUDP4(
		packet.Ethernet{Type: packet.EtherTypeIPv4},
		packet.IPv4{Version: 4, TTL: 64, Src: packet.IPv4Addr{10, 0, 0, 2}, Dst: packet.IPv4Addr{10, 0, 0, 1}},
		packet.UDP{SrcPort: 80, DstPort: 5555}, []byte("rev"))
	if hr := packet.FlowHash(rev); hf != hr {
		t.Errorf("hash not symmetric: fwd %x, rev %x", hf, hr)
	}
	// Junk input collapses to shard 0, never panics.
	if packet.FlowHash(nil) != 0 || packet.FlowHash(make([]byte, 20)) != 0 {
		t.Error("short frames must hash to 0")
	}
	arp := make([]byte, 64)
	arp[12], arp[13] = 0x08, 0x06 // EtherType ARP
	if packet.FlowHash(arp) != 0 {
		t.Error("non-IPv4 must hash to 0")
	}
}

// TestHotPathAllocs guards the batched dataplane's per-frame building
// blocks: decode into a reused decoder, frame pool round trips, and the
// shard hash must all be allocation-free in steady state.
func TestHotPathAllocs(t *testing.T) {
	frame := traffic.NewSynth(4, 1).Frame(1, 1024)
	d := packet.NewDecoder()
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := d.Decode(frame); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("Decode allocates %.1f/op, want 0", n)
	}
	fp := packet.NewFramePool()
	fp.Put(fp.Get(1024)) // warm the pool
	if n := testing.AllocsPerRun(1000, func() {
		b := fp.Get(1024)
		fp.Put(b)
	}); n > 0 {
		t.Errorf("FramePool Get+Put allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		_ = packet.FlowHash(frame)
	}); n > 0 {
		t.Errorf("FlowHash allocates %.1f/op, want 0", n)
	}
}
