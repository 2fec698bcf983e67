package flow_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/packet"
)

// nkey spreads index i over every field of the key.
func nkey(i int) flow.Key {
	u := uint32(i) * 2654435761
	return flow.Key{
		SrcIP:   packet.IPv4FromUint32(u),
		DstIP:   packet.IPv4FromUint32(^u >> 3),
		SrcPort: uint16(i),
		DstPort: uint16(u >> 7),
		Proto:   packet.IPProto(6 + 11*(i&1)),
	}
}

// tableModel is the reference the differential test compares against: the
// map-backed table the slot arrays replaced, without its stripes.
type tableModel struct {
	m   map[flow.Key]*flow.Entry
	ttl time.Duration
}

func (r *tableModel) live(k flow.Key, now time.Duration) *flow.Entry {
	e := r.m[k]
	if e != nil && r.ttl > 0 && now-e.LastSeen > r.ttl {
		delete(r.m, k)
		return nil
	}
	return e
}

func (r *tableModel) touch(k flow.Key, size int, now time.Duration, create bool) *flow.Entry {
	e := r.live(k, now)
	if e == nil {
		if !create {
			return nil
		}
		e = &flow.Entry{Key: k, FirstSeen: now}
		r.m[k] = e
	}
	e.Packets++
	e.Bytes += uint64(size)
	e.LastSeen = now
	return e
}

func (r *tableModel) sweep(now time.Duration) int {
	n := 0
	for k, e := range r.m {
		if r.ttl > 0 && now-e.LastSeen > r.ttl {
			delete(r.m, k)
			n++
		}
	}
	return n
}

// runTableOps interprets ops, four bytes an operation, against an unbounded
// table and the model, comparing each operation's result and Len after every
// step and the full contents every fullEvery steps and at the end. The first
// byte turns the TTL on or off. It returns the number of operations run.
func runTableOps(t testing.TB, ops []byte, fullEvery int) int {
	if len(ops) == 0 {
		return 0
	}
	const universe = 3000 // enough resident flows that every stripe doubles several times
	var ttl time.Duration
	if ops[0]&1 == 1 {
		ttl = 5 * time.Millisecond
	}
	tbl := flow.NewTable(ttl, 0)
	ref := &tableModel{m: make(map[flow.Key]*flow.Entry), ttl: ttl}
	same := func(step int, what string, got, want *flow.Entry) {
		t.Helper()
		if (got == nil) != (want == nil) {
			t.Fatalf("step %d %s: table has entry = %v, model has entry = %v", step, what, got != nil, want != nil)
		}
		if got != nil && *got != *want {
			t.Fatalf("step %d %s: entry %+v, model %+v", step, what, *got, *want)
		}
	}
	full := func(step int) {
		t.Helper()
		snap := tbl.Snapshot()
		if len(snap) != len(ref.m) {
			t.Fatalf("step %d: snapshot has %d entries, model %d", step, len(snap), len(ref.m))
		}
		for i := range snap {
			same(step, "snapshot", &snap[i], ref.m[snap[i].Key])
		}
	}
	var now time.Duration
	steps := 0
	for ops = ops[1:]; len(ops) >= 4; ops = ops[4:] {
		steps++
		op, arg := ops[0], int(ops[3])
		k := nkey((int(ops[1])<<8 | int(ops[2])) % universe)
		now += time.Duration(arg) * 10 * time.Nanosecond
		switch {
		case op < 100:
			same(steps, "Touch", tbl.Touch(k, arg, now), ref.touch(k, arg, now, true))
		case op < 170:
			got, ok := tbl.TouchIfPresent(k, arg, now)
			want := ref.touch(k, arg, now, false)
			if ok != (got != nil) {
				t.Fatalf("step %d TouchIfPresent: ok = %v with entry %v", steps, ok, got)
			}
			same(steps, "TouchIfPresent", got, want)
		case op < 225:
			_, want := ref.m[k]
			delete(ref.m, k)
			if got := tbl.Delete(k); got != want {
				t.Fatalf("step %d Delete: %v, model %v", steps, got, want)
			}
		case op < 240:
			now += time.Duration(arg) * time.Microsecond
		case op < 255:
			if got, want := tbl.Sweep(now), ref.sweep(now); got != want {
				t.Fatalf("step %d Sweep: evicted %d, model %d", steps, got, want)
			}
		default:
			// Restore most of the current contents, with one key given
			// twice: the later entry must win.
			var entries []flow.Entry
			for _, e := range tbl.Snapshot() {
				if int(e.Key.SrcPort)%16 != arg%16 {
					entries = append(entries, e)
				}
			}
			if len(entries) > 0 {
				dup := entries[0]
				dup.Packets += 7
				entries = append(entries, dup)
			}
			tbl.Restore(entries)
			clear(ref.m)
			for i := range entries {
				cp := entries[i]
				ref.m[cp.Key] = &cp
			}
		}
		if got := tbl.Len(); got != len(ref.m) {
			t.Fatalf("step %d: Len = %d, model %d", steps, got, len(ref.m))
		}
		if steps%fullEvery == 0 {
			full(steps)
		}
	}
	full(steps)
	return steps
}

// Below the bound the slot arrays are observationally a map: every result,
// counter, FirstSeen and presence agrees with the model over 240k random
// operations, with the TTL off and on.
func TestTableMatchesMapModel(t *testing.T) {
	for _, mode := range []byte{0, 1} {
		r := rand.New(rand.NewSource(17 + int64(mode)))
		ops := make([]byte, 1+4*120_000)
		r.Read(ops)
		ops[0] = mode
		if n := runTableOps(t, ops, 512); n != 120_000 {
			t.Fatalf("ran %d operations, want 120000", n)
		}
	}
}

func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 1, 9, 120, 0, 1, 9, 200, 0, 1, 9})                   // touch, touch-if-present, delete one key
	f.Add([]byte{1, 0, 0, 2, 200, 230, 0, 0, 255, 120, 0, 2, 1, 245, 0, 0, 0}) // expire, miss, sweep
	f.Add([]byte{0, 0, 0, 4, 1, 0, 0, 5, 1, 0, 0, 6, 1, 255, 0, 0, 1, 0, 0, 4, 1})
	r := rand.New(rand.NewSource(3))
	long := make([]byte, 1+4*4096)
	r.Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		runTableOps(t, ops, 64)
	})
}

// Two tables fed one sequence enumerate identically: iteration is in slot
// order, a function of the operations, where the map's was random.
func TestSnapshotOrderIsReproducible(t *testing.T) {
	build := func() []flow.Entry {
		tbl := flow.NewTable(0, 0)
		for i := 0; i < 5000; i++ {
			tbl.Touch(nkey(i%1700), i%1500, time.Duration(i))
			if i%7 == 3 {
				tbl.Delete(nkey((i * 31) % 1700))
			}
		}
		return tbl.Snapshot()
	}
	a, b := build(), build()
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("two tables fed the same sequence enumerate differently (%d and %d entries)", len(a), len(b))
	}
	var ranged []flow.Key
	tbl := flow.NewTable(0, 0)
	tbl.Restore(a)
	tbl.Range(func(e *flow.Entry) bool { ranged = append(ranged, e.Key); return true })
	for i, e := range tbl.Snapshot() {
		if ranged[i] != e.Key {
			t.Fatalf("Range and Snapshot disagree at %d", i)
		}
	}
}

// Writers on disjoint flow sets beside a goroutine that ranges, counts,
// snapshots and sweeps: run under -race; every flow's counters are exact at
// the end.
func TestTableConcurrentWritersAndReaders(t *testing.T) {
	const writers, flowsPer, rounds = 4, 300, 40
	tbl := flow.NewTable(time.Hour, 0)
	var stop atomic.Bool
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			n := 0
			tbl.Range(func(e *flow.Entry) bool {
				if e.Key.Proto != 6 && e.Key.Proto != 17 {
					t.Errorf("ranged over a torn key %v", e.Key)
				}
				n++
				return true
			})
			if l := tbl.Len(); l > writers*flowsPer || n > writers*flowsPer {
				t.Errorf("Len = %d, ranged %d, more than the %d flows written", l, n, writers*flowsPer)
			}
			for _, e := range tbl.Snapshot() {
				if e.Packets == 0 || e.Packets > rounds {
					t.Errorf("snapshot saw %d packets on %v", e.Packets, e.Key)
				}
			}
			if swept := tbl.Sweep(time.Minute); swept != 0 {
				t.Errorf("swept %d live entries", swept)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < flowsPer; i++ {
					k := nkey(w*flowsPer + i)
					if _, ok := tbl.TouchIfPresent(k, 10, time.Duration(r)); !ok {
						tbl.Touch(k, 10, time.Duration(r))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()
	snap := tbl.Snapshot()
	if len(snap) != writers*flowsPer {
		t.Fatalf("%d flows at the end, want %d", len(snap), writers*flowsPer)
	}
	for _, e := range snap {
		if e.Packets != rounds || e.Bytes != 10*rounds {
			t.Fatalf("flow %v: %d packets, %d bytes, want %d and %d", e.Key, e.Packets, e.Bytes, rounds, 10*rounds)
		}
	}
}

// A new flow into a full table evicts from a window of a few slots, not by a
// scan of the stripe (91 µs per new flow at 4096 entries a stripe): 20k new
// flows into the full 65536-entry production size stay within 2 µs each —
// or ten times the same flows into an unbounded table of that size, where
// the host or the race detector makes everything slower — and the bound
// holds throughout.
func TestBoundEvictionIsConstantTime(t *testing.T) {
	const bound, fresh = 1 << 16, 20_000
	fill := func(tbl *flow.Table) {
		for i := 0; i < bound+bound/4; i++ {
			tbl.Touch(nkey(i), 64, time.Millisecond)
		}
	}
	perFlow := func(tbl *flow.Table) time.Duration {
		start := time.Now()
		for i := 0; i < fresh; i++ {
			tbl.Touch(nkey(1<<20+i), 64, time.Second)
		}
		return time.Since(start) / fresh
	}
	bounded, unbounded := flow.NewTable(0, bound), flow.NewTable(0, 0)
	fill(bounded)
	fill(unbounded)
	if bounded.Len() != bound {
		t.Fatalf("bounded table holds %d entries after %d flows, want it full at %d", bounded.Len(), bound+bound/4, bound)
	}
	limit := max(2*time.Microsecond, 10*perFlow(unbounded))
	if got := perFlow(bounded); got > limit {
		t.Errorf("a new flow into the full table costs %v, want ≤ %v", got, limit)
	}
	if bounded.Len() != bound {
		t.Errorf("Len = %d after %d evicting inserts, want %d", bounded.Len(), fresh, bound)
	}
}

// BenchmarkTableTouch prices one touch of a resident flow at three working
// sets: all in L1, all in L2, and as many flows as the production bound admits.
func BenchmarkTableTouch(b *testing.B) {
	for _, resident := range []int{16, 1024, 65536} {
		keys := make([]flow.Key, resident)
		tbl := flow.NewTable(0, 0)
		for i := range keys {
			keys[i] = nkey(i)
			tbl.Touch(keys[i], 64, 0)
		}
		b.Run(fmt.Sprintf("resident=%d/Touch", resident), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tbl.Touch(keys[i&(resident-1)], 64, time.Duration(i))
			}
		})
		b.Run(fmt.Sprintf("resident=%d/TouchIfPresent", resident), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tbl.TouchIfPresent(keys[i&(resident-1)], 64, time.Duration(i))
			}
		})
	}
}
