package flow

import (
	"encoding/binary"
	"sync"
	"time"
)

// Entry is the per-flow state kept by Table: byte/packet counts and
// timestamps, plus an opaque user value for NFs that attach their own state
// (e.g. NAT bindings).
type Entry struct {
	Key       Key
	Packets   uint64
	Bytes     uint64
	FirstSeen time.Duration
	LastSeen  time.Duration
	Value     any
}

// Table is a striped, concurrency-safe flow table with lazy TTL eviction.
// Time is virtual (supplied by the caller) so the table behaves identically
// under the discrete-event simulator and the live emulator.
//
// Each stripe is an open-addressed, linear-probe array of {hash, *Entry}
// slots, a power of two long and at most 3/4 full; deletion shifts the rest
// of the probe run back, so there are no tombstones and a lookup ends at the
// first empty slot. A touch computes one 64-bit hash of the key (mix) and
// uses it three ways: the top bits pick the stripe, the low bits the home
// slot, and all 64 are compared before the Key itself, so a probe that
// passes other flows' slots does not dereference their entries. Entries are
// allocated once and never move: the pointer Touch returns stays valid
// across growth and across other flows' deletions.
//
// The stripes and their mutexes are the concurrency contract, not a lookup
// aid: an NF that reports ConcurrencySafe is called from every pool worker
// at once, and control goroutines call Range, Len and Snapshot while traffic
// flows. Iteration is in stripe, then slot order — a function of the
// operations applied, so two tables fed the same sequence enumerate
// identically.
type Table struct {
	stripes [tableStripes]tableStripe
	ttl     time.Duration
	maxPer  int
}

const (
	tableStripes = 16
	stripeShift  = 64 - 4 // the hash's top log2(tableStripes) bits pick the stripe
	minSlots     = 8
	// evictWindow is how many occupied slots a bounded table samples for
	// its least-recently-seen victim.
	evictWindow = 8
)

type slot struct {
	hash uint64
	e    *Entry // nil marks an empty slot
}

type tableStripe struct {
	mu    sync.Mutex
	slots []slot // len is a power of two
	n     int    // occupied slots
}

// NewTable creates a table evicting entries idle for longer than ttl.
// maxFlows bounds the total number of entries (0 means unbounded); see Touch
// for what happens at the bound.
func NewTable(ttl time.Duration, maxFlows int) *Table {
	t := &Table{ttl: ttl}
	if maxFlows > 0 {
		t.maxPer = (maxFlows + tableStripes - 1) / tableStripes
	}
	for i := range t.stripes {
		t.stripes[i].slots = make([]slot, minSlots)
	}
	return t
}

// mix hashes the key's 13 bytes a word at a time: the addresses as one
// uint64, ports and protocol as another, each folded in by a multiply and a
// high-to-low xor so that both ends of the result depend on every key bit.
// It is private to the table's slot arrays — Key.Hash stays the stable,
// published hash (the load balancer's backend choice depends on it).
func (k *Key) mix() uint64 {
	a := uint64(binary.LittleEndian.Uint32(k.SrcIP[:])) | uint64(binary.LittleEndian.Uint32(k.DstIP[:]))<<32
	b := uint64(k.SrcPort) | uint64(k.DstPort)<<16 | uint64(k.Proto)<<32
	h := (a ^ 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h ^= h >> 32
	h = (h ^ b) * 0x94d049bb133111eb
	return h ^ h>>32
}

func (t *Table) stripe(h uint64) *tableStripe { return &t.stripes[h>>stripeShift] }

// Touch records a packet of the given size for key k at virtual time now,
// creating the entry if needed (an entry idle past the TTL is evicted and
// the flow starts afresh), and returns the entry. A new flow arriving at the
// maxFlows bound evicts in O(1): the victim is the least recently seen of
// the first evictWindow occupied slots at or after the flow's home slot
// (sampled LRU, as Redis does) — not the stripe's oldest, which would cost a
// scan of the stripe under its mutex for every new flow of a port scan. The
// returned entry must only be mutated while no other goroutine accesses the
// same key; NFs in this codebase respect that by sharding flows across
// workers.
func (t *Table) Touch(k Key, size int, now time.Duration) *Entry {
	h := k.mix()
	s := t.stripe(h)
	s.mu.Lock()
	e := s.live(h, &k, now, t.ttl)
	if e == nil {
		if t.maxPer > 0 && s.n >= t.maxPer {
			s.evictNear(h)
		}
		e = &Entry{Key: k, FirstSeen: now}
		s.insert(h, e)
	}
	e.record(size, now)
	s.mu.Unlock()
	return e
}

// TouchIfPresent is Touch for a flow the table already knows: one lock and
// one probe record the packet and return the entry. It reports false,
// creating nothing, when k is absent or idle past the TTL at now — the
// caller decides whether the flow deserves an entry and calls Touch.
func (t *Table) TouchIfPresent(k Key, size int, now time.Duration) (*Entry, bool) {
	h := k.mix()
	s := t.stripe(h)
	s.mu.Lock()
	e := s.live(h, &k, now, t.ttl)
	if e != nil {
		e.record(size, now)
	}
	s.mu.Unlock()
	return e, e != nil
}

// find returns the slot index and entry of k, or the empty slot that ends
// its probe run and nil.
func (s *tableStripe) find(h uint64, k *Key) (int, *Entry) {
	mask := len(s.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.e == nil || (sl.hash == h && sl.e.Key == *k) {
			return i, sl.e
		}
	}
}

// live returns k's entry, or nil when there is none or it sat idle past ttl
// at now, in which case it is evicted.
func (s *tableStripe) live(h uint64, k *Key, now, ttl time.Duration) *Entry {
	i, e := s.find(h, k)
	if e != nil && ttl > 0 && now-e.LastSeen > ttl {
		s.removeAt(i)
		return nil
	}
	return e
}

// insert adds an entry whose key the stripe does not hold, doubling the
// array first if the entry would push it past 3/4 full.
func (s *tableStripe) insert(h uint64, e *Entry) {
	if (s.n+1)*4 > len(s.slots)*3 {
		old := s.slots
		s.slots = make([]slot, 2*len(old))
		for _, sl := range old {
			if sl.e != nil {
				s.place(sl)
			}
		}
	}
	s.place(slot{hash: h, e: e})
	s.n++
}

// place writes sl into the first empty slot at or after its home.
func (s *tableStripe) place(sl slot) {
	mask := len(s.slots) - 1
	i := int(sl.hash) & mask
	for s.slots[i].e != nil {
		i = (i + 1) & mask
	}
	s.slots[i] = sl
}

// removeAt empties slot i and closes the gap: each later entry of the probe
// run moves back into the hole unless its home lies cyclically after the
// hole — such an entry is already as close to home as it can get — so
// every remaining entry stays reachable from its home without tombstones.
func (s *tableStripe) removeAt(i int) {
	mask := len(s.slots) - 1
	for j := (i + 1) & mask; s.slots[j].e != nil; j = (j + 1) & mask {
		home := int(s.slots[j].hash) & mask
		if (j-home)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = slot{}
	s.n--
}

// evictNear removes the least recently seen of the first evictWindow
// occupied slots at or after h's home slot; on a tie the earliest slot goes.
func (s *tableStripe) evictNear(h uint64) {
	mask := len(s.slots) - 1
	victim, seen := -1, 0
	for i := range s.slots { // at most once around
		i = (int(h) + i) & mask
		e := s.slots[i].e
		if e == nil {
			continue
		}
		if victim < 0 || e.LastSeen < s.slots[victim].e.LastSeen {
			victim = i
		}
		if seen++; seen == evictWindow {
			break
		}
	}
	if victim >= 0 {
		s.removeAt(victim)
	}
}

func (e *Entry) record(size int, now time.Duration) {
	e.Packets++
	e.Bytes += uint64(size)
	e.LastSeen = now
}

// Delete removes the entry for k, reporting whether it existed.
func (t *Table) Delete(k Key) bool {
	h := k.mix()
	s := t.stripe(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, e := s.find(h, &k)
	if e == nil {
		return false
	}
	s.removeAt(i)
	return true
}

// Len returns the current number of entries (expired entries that were never
// re-touched are included until swept).
func (t *Table) Len() int {
	n := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
	}
	return n
}

// Sweep removes all entries idle longer than the TTL as of now and returns
// how many were evicted.
func (t *Table) Sweep(now time.Duration) int {
	if t.ttl <= 0 {
		return 0
	}
	evicted := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		for j := 0; j < len(s.slots); {
			if e := s.slots[j].e; e != nil && now-e.LastSeen > t.ttl {
				// removeAt may pull a later entry back into slot j: look
				// at j again before moving on.
				s.removeAt(j)
				evicted++
				continue
			}
			j++
		}
		s.mu.Unlock()
	}
	return evicted
}

// Range calls fn for a snapshot of every entry; fn must not retain the
// entry pointer beyond the call. Iteration is in stripe, then slot order.
func (t *Table) Range(fn func(*Entry) bool) {
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		entries := make([]*Entry, 0, s.n)
		for _, sl := range s.slots {
			if sl.e != nil {
				entries = append(entries, sl.e)
			}
		}
		s.mu.Unlock()
		for _, e := range entries {
			if !fn(e) {
				return
			}
		}
	}
}

// Snapshot returns copies of all entries, in Range's order, used by
// migration to transfer NF state between devices. Each stripe is copied
// under its lock.
func (t *Table) Snapshot() []Entry {
	out := make([]Entry, 0, t.Len())
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		for _, sl := range s.slots {
			if sl.e != nil {
				out = append(out, *sl.e)
			}
		}
		s.mu.Unlock()
	}
	return out
}

// Restore replaces the table's contents with entries (e.g. from a migration
// snapshot); of two entries with one key the later wins. The TTL and bound
// the table was built with stay in force.
func (t *Table) Restore(entries []Entry) {
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		clear(s.slots)
		s.n = 0
		s.mu.Unlock()
	}
	for i := range entries {
		cp := entries[i]
		h := cp.Key.mix()
		s := t.stripe(h)
		s.mu.Lock()
		if j, e := s.find(h, &cp.Key); e != nil {
			s.slots[j].e = &cp
		} else {
			s.insert(h, &cp)
		}
		s.mu.Unlock()
	}
}
