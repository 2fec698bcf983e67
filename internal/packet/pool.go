package packet

import (
	"sync"
	"sync/atomic"
)

// DecoderPool recycles Decoders across dataplane workers so that spinning a
// worker (or a burst slot) up and down does not allocate. Decoders keep
// their preallocated layer structs between uses; Get hands out a Decoder
// whose previous decode state is stale but harmless (Decode overwrites it).
type DecoderPool struct {
	p sync.Pool
}

// NewDecoderPool returns an empty pool.
func NewDecoderPool() *DecoderPool {
	dp := &DecoderPool{}
	dp.p.New = func() any { return NewDecoder() }
	return dp
}

// Get returns a ready Decoder, reusing a pooled one when available.
func (dp *DecoderPool) Get() *Decoder {
	return dp.p.Get().(*Decoder)
}

// Put returns a Decoder to the pool. The caller must not use it afterwards.
func (dp *DecoderPool) Put(d *Decoder) {
	if d == nil {
		return
	}
	dp.p.Put(d)
}

// magazineSize is the number of frame buffers that change hands at once:
// one 32-frame burst of recycling per trip to the depot.
const magazineSize = 32

// Magazine is a fixed stack of magazineSize frame buffers, the unit the
// FramePool moves between goroutines (the magazine layer of Bonwick's slab
// allocator). A loaded magazine has exactly one owner — an emulator pool
// worker holds one for the buffers it recycles, FramePool one for callers
// without an identity — and only the owner touches it, so filling it is a
// bounds check and an array store. The zero value is an empty magazine.
type Magazine struct {
	n    int
	bufs [magazineSize]*[MaxFrameSize]byte
}

// Put recycles a frame buffer into the magazine and reports whether the
// buffer is dealt with: false means a nil or full magazine, which the owner
// trades for an empty one (FramePool.Exchange) before putting again. A
// buffer without full-frame capacity is ignored (and reported dealt with),
// so a foreign, smaller slice quietly degrades to the GC instead of
// poisoning the pool. The caller must not use the slice afterwards.
func (m *Magazine) Put(b []byte) bool {
	if cap(b) < MaxFrameSize {
		return true
	}
	if m == nil || m.n == magazineSize {
		return false
	}
	m.bufs[m.n] = (*[MaxFrameSize]byte)(b[:MaxFrameSize])
	m.n++
	return true
}

// FramePool recycles max-size frame buffers, the emulator's stand-in for a
// DPDK mbuf pool: steady-state frame traffic allocates nothing because
// every delivered or dropped frame's buffer is returned for reuse. Only
// full-capacity buffers (cap ≥ MaxFrameSize) are retained.
//
// Buffers travel in magazines. A goroutine that recycles many buffers owns
// a loaded Magazine, fills it without synchronization and trades it when
// full (Exchange): one visit to the shared depot per 32 buffers. Callers
// without an identity — Get, Put — share the pool's own loaded magazine,
// taken out of its slot with an atomic swap and put back with a
// compare-and-swap, at most two atomic read-modify-writes a call; a caller
// that finds the slot refilled meanwhile hands its magazine to the depot.
//
// The depot — magazines holding buffers in one sync.Pool, empty ones in
// another — is deliberately nothing cleverer; three alternatives were built
// and measured against it on the repository benchmark (10 s paired runs).
// sync.Pool steals across processors oldest-first, so a consumer on another
// processor receives buffers that have left the producer's cache, and the
// collector trims what sits idle for two cycles. A mutex-guarded LIFO depot
// hands the sender the buffers hottest in the worker's cache and turned
// tenants64_min sender-bound (3.3M → 2.8M frames/s). A mutex-guarded FIFO
// depot that never shrinks keeps the warm-up's high-water mark forever
// (fig1_migrate rss_mb 30 → 64) and cycles through that oversized set, so
// every copy lands in a cold buffer (fig1_paced p50 50 → 58 µs). Counting
// operations to scavenge above a low-water mark thrashes (tenants64_min
// −8 % frames/s, allocs_per_frame 0.02).
type FramePool struct {
	loaded atomic.Pointer[Magazine] // the magazine Get and Put share; nil while a caller holds it
	full   sync.Pool                // *Magazine holding at least one buffer
	empty  sync.Pool                // *Magazine holding none
}

// NewFramePool returns an empty pool.
func NewFramePool() *FramePool { return &FramePool{} }

// Exchange hands m to the depot and returns an empty magazine for its owner
// to load; m may be full, partial (a flush before the owner goes idle) or
// nil (the owner's first). An m that is already empty comes straight back.
//
//pam:slowpath
func (fp *FramePool) Exchange(m *Magazine) *Magazine {
	if m != nil {
		if m.n == 0 {
			return m
		}
		fp.full.Put(m)
	}
	if e, _ := fp.empty.Get().(*Magazine); e != nil {
		return e
	}
	return new(Magazine)
}

// unload returns the magazine a Get or Put took from the shared slot; when
// another caller has loaded one meanwhile, m goes to the depot instead.
func (fp *FramePool) unload(m *Magazine) {
	if fp.loaded.CompareAndSwap(nil, m) {
		return
	}
	if m.n == 0 {
		fp.empty.Put(m)
	} else {
		fp.full.Put(m)
	}
}

// Get returns a frame buffer of length n (n ≤ MaxFrameSize is the expected
// case; larger n falls back to a dedicated allocation). Contents are
// arbitrary — callers overwrite the frame.
func (fp *FramePool) Get(n int) []byte {
	if n > MaxFrameSize {
		return make([]byte, n)
	}
	m := fp.loaded.Swap(nil)
	if m == nil || m.n == 0 {
		next, _ := fp.full.Get().(*Magazine)
		if next == nil { // the depot is dry: this buffer is new
			if m != nil {
				fp.unload(m)
			}
			return new([MaxFrameSize]byte)[:n]
		}
		if m != nil {
			fp.empty.Put(m)
		}
		m = next
	}
	m.n--
	arr := m.bufs[m.n]
	m.bufs[m.n] = nil // the buffer has one owner: its new holder
	fp.unload(m)
	return arr[:n]
}

// Put recycles a frame buffer obtained from Get (or any slice with
// full-frame capacity; smaller ones are ignored). The caller must not use
// the slice afterwards.
func (fp *FramePool) Put(b []byte) {
	if cap(b) < MaxFrameSize {
		return
	}
	m := fp.loaded.Swap(nil)
	if !m.Put(b) {
		m = fp.Exchange(m)
		m.Put(b)
	}
	fp.unload(m)
}
