package flow_test

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/flow"
	"repro/internal/packet"
)

func key(a, b byte, sp, dp uint16) flow.Key {
	return flow.Key{
		SrcIP:   packet.IPv4Addr{10, 0, 0, a},
		DstIP:   packet.IPv4Addr{10, 0, 0, b},
		SrcPort: sp,
		DstPort: dp,
		Proto:   packet.ProtoTCP,
	}
}

func TestReverseAndCanonical(t *testing.T) {
	k := key(1, 2, 100, 200)
	r := k.Reverse()
	if r.SrcIP != k.DstIP || r.SrcPort != k.DstPort {
		t.Fatalf("reverse = %v", r)
	}
	if k.Canonical() != r.Canonical() {
		t.Error("canonical differs across directions")
	}
}

func TestSymmetricHash(t *testing.T) {
	k := key(1, 2, 100, 200)
	if k.SymmetricHash() != k.Reverse().SymmetricHash() {
		t.Error("symmetric hash is not symmetric")
	}
	if k.Hash() == k.Reverse().Hash() {
		t.Error("directional hash unexpectedly symmetric (collision?)")
	}
}

func TestFromDecoder(t *testing.T) {
	b := packet.NewBuilder()
	frame := b.BuildUDP4(
		packet.Ethernet{Type: packet.EtherTypeIPv4},
		packet.IPv4{Version: 4, TTL: 64, Src: packet.IPv4Addr{1, 1, 1, 1}, Dst: packet.IPv4Addr{2, 2, 2, 2}},
		packet.UDP{SrcPort: 5, DstPort: 6}, nil)
	d := packet.NewDecoder()
	if _, err := d.Decode(frame); err != nil {
		t.Fatal(err)
	}
	k, ok := flow.FromDecoder(d)
	if !ok {
		t.Fatal("no flow extracted")
	}
	if k.SrcPort != 5 || k.DstPort != 6 || k.Proto != packet.ProtoUDP {
		t.Errorf("key = %v", k)
	}
}

// lookup reads k's entry without touching it.
func lookup(tbl *flow.Table, k flow.Key) (found flow.Entry, ok bool) {
	tbl.Range(func(e *flow.Entry) bool {
		if e.Key == k {
			found, ok = *e, true
		}
		return !ok
	})
	return found, ok
}

func TestTableTouchIfPresent(t *testing.T) {
	tbl := flow.NewTable(time.Second, 0)
	k := key(1, 2, 3, 4)
	if _, ok := tbl.TouchIfPresent(k, 100, 0); ok || tbl.Len() != 0 {
		t.Fatalf("absent key: ok=%v len=%d, want a miss that creates nothing", ok, tbl.Len())
	}
	e := tbl.Touch(k, 100, 10*time.Millisecond)
	if e.Packets != 1 || e.Bytes != 100 {
		t.Fatalf("entry = %+v", e)
	}
	got, ok := tbl.TouchIfPresent(k, 50, 20*time.Millisecond)
	if !ok || got != e || got.Packets != 2 || got.Bytes != 150 || got.LastSeen != 20*time.Millisecond {
		t.Fatalf("touch-if-present = %+v ok=%v", got, ok)
	}
	if tbl.Len() != 1 {
		t.Errorf("len = %d", tbl.Len())
	}
}

func TestTableTTLExpiry(t *testing.T) {
	tbl := flow.NewTable(100*time.Millisecond, 0)
	k := key(1, 2, 3, 4)
	tbl.Touch(k, 10, 0)
	if _, ok := tbl.TouchIfPresent(k, 10, 50*time.Millisecond); !ok {
		t.Fatal("entry expired too early")
	}
	// Idle since the touch at 50 ms: 150 ms > TTL.
	if _, ok := tbl.TouchIfPresent(k, 10, 200*time.Millisecond); ok {
		t.Fatal("entry did not expire")
	}
	if tbl.Len() != 0 {
		t.Fatal("expired entry was not evicted")
	}
	// Touch applies the same rule: an expired flow starts afresh.
	tbl.Touch(k, 10, 300*time.Millisecond)
	if e := tbl.Touch(k, 10, 500*time.Millisecond); e.Packets != 1 || e.FirstSeen != 500*time.Millisecond {
		t.Fatalf("expired flow was not restarted: %+v", e)
	}
}

func TestTableSweep(t *testing.T) {
	tbl := flow.NewTable(time.Millisecond, 0)
	for i := 0; i < 50; i++ {
		tbl.Touch(key(byte(i), 2, 3, 4), 10, 0)
	}
	if n := tbl.Sweep(time.Second); n != 50 {
		t.Errorf("swept %d, want 50", n)
	}
	if tbl.Len() != 0 {
		t.Errorf("len = %d after sweep", tbl.Len())
	}
}

func TestTableBoundEviction(t *testing.T) {
	tbl := flow.NewTable(0, 16)
	for i := 0; i < 200; i++ {
		tbl.Touch(key(byte(i), byte(i/255), uint16(i), 4), 10, time.Duration(i))
	}
	if tbl.Len() > 16 {
		t.Errorf("len = %d, want ≤ 16", tbl.Len())
	}
}

func TestSnapshotRestore(t *testing.T) {
	tbl := flow.NewTable(0, 0)
	for i := 0; i < 20; i++ {
		tbl.Touch(key(byte(i), 2, 3, 4), i*10, time.Duration(i))
	}
	snap := tbl.Snapshot()
	if len(snap) != 20 {
		t.Fatalf("snapshot = %d entries", len(snap))
	}
	tbl2 := flow.NewTable(0, 0)
	tbl2.Restore(snap)
	if tbl2.Len() != 20 {
		t.Fatalf("restored = %d entries", tbl2.Len())
	}
	e, ok := lookup(tbl2, key(5, 2, 3, 4))
	if !ok || e.Bytes != 50 {
		t.Fatalf("restored entry = %+v ok=%v", e, ok)
	}
}

// Restore replaces what the table held and keeps the TTL and bound it was
// built with.
func TestRestoreReplacesAndKeepsParameters(t *testing.T) {
	tbl := flow.NewTable(100*time.Millisecond, 16)
	tbl.Touch(key(200, 2, 3, 4), 10, 0)
	tbl.Restore([]flow.Entry{{Key: key(1, 2, 3, 4), Packets: 3, LastSeen: 10 * time.Millisecond}})
	if _, ok := lookup(tbl, key(200, 2, 3, 4)); ok || tbl.Len() != 1 {
		t.Fatalf("restore kept old contents: len=%d", tbl.Len())
	}
	if _, ok := tbl.TouchIfPresent(key(1, 2, 3, 4), 10, time.Second); ok {
		t.Error("TTL lost across Restore: idle entry still live")
	}
	for i := 0; i < 200; i++ {
		tbl.Touch(key(byte(i), byte(i/255), uint16(i), 4), 10, time.Second)
	}
	if tbl.Len() > 16 {
		t.Errorf("bound lost across Restore: len = %d, want ≤ 16", tbl.Len())
	}
}

func TestDelete(t *testing.T) {
	tbl := flow.NewTable(0, 0)
	k := key(9, 2, 3, 4)
	tbl.Touch(k, 1, 0)
	if !tbl.Delete(k) {
		t.Error("delete existing returned false")
	}
	if tbl.Delete(k) {
		t.Error("delete missing returned true")
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tbl := flow.NewTable(0, 0)
	for i := 0; i < 10; i++ {
		tbl.Touch(key(byte(i), 2, 3, 4), 1, 0)
	}
	n := 0
	tbl.Range(func(*flow.Entry) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("visited %d, want 3", n)
	}
}

// Property: SymmetricHash is invariant under direction reversal for random
// keys, and Canonical is idempotent.
func TestPropertySymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := flow.Key{
			SrcIP:   packet.IPv4FromUint32(r.Uint32()),
			DstIP:   packet.IPv4FromUint32(r.Uint32()),
			SrcPort: uint16(r.Intn(65536)),
			DstPort: uint16(r.Intn(65536)),
			Proto:   packet.IPProto(r.Intn(256)),
		}
		if k.SymmetricHash() != k.Reverse().SymmetricHash() {
			return false
		}
		c := k.Canonical()
		return c == c.Canonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: table counters equal the sum of touches for any sequence.
func TestPropertyTableAccounting(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := flow.NewTable(0, 0)
		keys := make([]flow.Key, 1+r.Intn(8))
		for i := range keys {
			keys[i] = key(byte(i), 7, uint16(i), 99)
		}
		wantPkts := make(map[flow.Key]uint64)
		wantBytes := make(map[flow.Key]uint64)
		for i := 0; i < 500; i++ {
			k := keys[r.Intn(len(keys))]
			n := r.Intn(1500)
			tbl.Touch(k, n, time.Duration(i))
			wantPkts[k]++
			wantBytes[k] += uint64(n)
		}
		for k, wp := range wantPkts {
			e, ok := lookup(tbl, k)
			if !ok || e.Packets != wp || e.Bytes != wantBytes[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
