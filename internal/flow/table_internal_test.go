package flow

import (
	"testing"
	"time"

	"repro/internal/packet"
)

func ikey(i int) Key {
	return Key{
		SrcIP:   packet.IPv4FromUint32(0x0a000000 | uint32(i)),
		DstIP:   packet.IPv4Addr{10, 1, 0, 1},
		SrcPort: uint16(i),
		DstPort: 443,
		Proto:   packet.ProtoTCP,
	}
}

// checkStripe verifies the stripe's invariants: n counts the occupied slots,
// the load stays at or under 3/4, and every entry is reachable from its home
// slot without crossing an empty one.
func checkStripe(t *testing.T, s *tableStripe) {
	t.Helper()
	mask := len(s.slots) - 1
	occupied := 0
	for i, sl := range s.slots {
		if sl.e == nil {
			continue
		}
		occupied++
		for j := int(sl.hash) & mask; j != i; j = (j + 1) & mask {
			if s.slots[j].e == nil {
				t.Fatalf("slot %d (home %d) is cut off from its home by the empty slot %d", i, int(sl.hash)&mask, j)
			}
		}
	}
	if occupied != s.n {
		t.Fatalf("n = %d, %d slots occupied", s.n, occupied)
	}
	if s.n*4 > len(s.slots)*3 {
		t.Fatalf("load %d/%d exceeds 3/4", s.n, len(s.slots))
	}
}

// The probe helpers driven with hashes the test chooses: every key homed on
// the last slot (so each run wraps around the array's end), pairs of
// different keys carrying the same 64-bit hash, deletions from the middle of
// a run and growth in the middle of one. A lookup must return the key's own
// entry or nothing — never a neighbour's.
func TestProbeCollisions(t *testing.T) {
	s := &tableStripe{slots: make([]slot, minSlots)}
	const keys = 200
	// Keys 2i and 2i+1 share one hash; all hashes agree in their low 20
	// bits, so every key's home is the last slot at any size reached here.
	hashOf := func(i int) uint64 { return uint64(i/2)<<20 | 0xfffff }
	entries := make([]*Entry, keys)
	present := make([]bool, keys)
	check := func(when string) {
		t.Helper()
		checkStripe(t, s)
		for i := range entries {
			k := ikey(i)
			_, e := s.find(hashOf(i), &k)
			switch {
			case present[i] && e != entries[i]:
				t.Fatalf("%s: key %d resolved to %p, want its own entry %p", when, i, e, entries[i])
			case !present[i] && e != nil:
				t.Fatalf("%s: absent key %d resolved to key %v's entry", when, i, e.Key)
			}
		}
	}
	add := func(i int) {
		entries[i] = &Entry{Key: ikey(i)}
		s.insert(hashOf(i), entries[i])
		present[i] = true
	}
	remove := func(i int) {
		k := ikey(i)
		j, e := s.find(hashOf(i), &k)
		if e == nil {
			t.Fatalf("key %d lost before its removal", i)
		}
		s.removeAt(j)
		present[i] = false
	}
	for i := 0; i < keys/2; i++ { // grows 8 → 256 in the middle of the run
		add(i)
		check("insert")
	}
	if int(hashOf(0))&(len(s.slots)-1) != len(s.slots)-1 || s.slots[0].e == nil {
		t.Fatal("the run does not wrap around the end of the array")
	}
	for i := 1; i < keys/2; i += 3 { // from the middle of the run
		remove(i)
		check("remove")
	}
	for i := keys / 2; i < keys; i++ { // refills the holes and grows again
		add(i)
		check("insert after remove")
	}
	for i := 0; i < keys; i++ {
		if present[i] {
			remove(i)
			check("drain")
		}
	}
	if s.n != 0 {
		t.Fatalf("n = %d after removing every key", s.n)
	}
}

// The victim at the bound is the least recently seen entry of the window —
// the first evictWindow occupied slots at or after the home slot — so an
// entry seen at the current instant survives whenever the window holds an
// older one.
func TestEvictNearPicksOldestInWindow(t *testing.T) {
	const now = time.Second
	tbl := NewTable(0, tableStripes*64)
	for i := 0; tbl.Len() < tableStripes*64 && i < 1<<16; i++ {
		// Two in three entries are as fresh as the flow about to arrive.
		seen := now
		if i%3 == 0 {
			seen = time.Duration(i) * time.Microsecond
		}
		tbl.Touch(ikey(i), 64, seen)
	}
	for si := range tbl.stripes {
		s := &tbl.stripes[si]
		if s.n != tbl.maxPer {
			t.Fatalf("stripe %d holds %d entries, want it full at %d", si, s.n, tbl.maxPer)
		}
		mask := len(s.slots) - 1
		for home := 0; home <= mask && s.n > evictWindow; home += 5 {
			var window []*Entry
			for i := home; len(window) < evictWindow; i = (i + 1) & mask {
				if e := s.slots[i].e; e != nil {
					window = append(window, e)
				}
			}
			want := window[0]
			for _, e := range window {
				if e.LastSeen < want.LastSeen {
					want = e
				}
			}
			before := s.n
			s.evictNear(uint64(home))
			checkStripe(t, s)
			if s.n != before-1 {
				t.Fatalf("evictNear removed %d entries", before-s.n)
			}
			if _, e := s.find(want.Key.mix(), &want.Key); e != nil {
				t.Fatalf("window at %d: oldest entry (seen %v) survived", home, want.LastSeen)
			}
			for _, e := range window {
				if e == want {
					continue
				}
				if _, got := s.find(e.Key.mix(), &e.Key); got != e {
					t.Fatalf("window at %d: entry seen %v evicted beside the victim seen %v", home, e.LastSeen, want.LastSeen)
				}
			}
		}
	}
}

// mix feeds three decisions — stripe, home slot, full-hash compare — so it
// must spread the key patterns traffic actually has (one varying field, the
// rest fixed) over both its top and its low bits.
func TestMixSpreadsStructuredKeys(t *testing.T) {
	patterns := map[string]func(i int) Key{
		"src port": func(i int) Key { k := ikey(0); k.SrcPort = uint16(i); return k },
		"dst port": func(i int) Key { k := ikey(0); k.DstPort = uint16(i); return k },
		"src ip":   func(i int) Key { k := ikey(0); k.SrcIP = packet.IPv4FromUint32(0xc0a80000 + uint32(i)); return k },
		"dst ip":   func(i int) Key { k := ikey(0); k.DstIP = packet.IPv4FromUint32(0xc0a80000 + uint32(i)); return k },
		"reversed": func(i int) Key { return ikey(i).Reverse() },
	}
	const n = 1 << 14
	for name, gen := range patterns {
		var stripes [tableStripes]int
		homes := make([]int, 1<<10)
		for i := 0; i < n; i++ {
			k := gen(i)
			h := k.mix()
			stripes[h>>stripeShift]++
			homes[int(h)&(len(homes)-1)]++
		}
		for si, c := range stripes {
			if c < n/tableStripes*3/4 || c > n/tableStripes*5/4 {
				t.Errorf("%s: stripe %d got %d of %d keys, want ≈ %d", name, si, c, n, n/tableStripes)
			}
		}
		worst := 0
		for _, c := range homes {
			worst = max(worst, c)
		}
		if mean := n / len(homes); worst > 3*mean {
			t.Errorf("%s: one home slot of %d got %d keys, mean %d", name, len(homes), worst, mean)
		}
	}
}
