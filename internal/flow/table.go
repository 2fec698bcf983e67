package flow

import (
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

// Table is a sharded, concurrency-safe flow table with lazy TTL eviction.
// Time is virtual (supplied by the caller) so the table behaves identically
// under the discrete-event simulator and the live emulator.
type Table struct {
	shards [tableShards]tableShard
	ttl    time.Duration
	maxPer int
}

const tableShards = 16

type tableShard struct {
	mu sync.Mutex
	m  map[Key]*Entry
}

// NewTable creates a table evicting entries idle for longer than ttl.
// maxFlows bounds the total number of entries (0 means unbounded); when the
// bound is hit, the oldest entry in the insertion shard is evicted.
func NewTable(ttl time.Duration, maxFlows int) *Table {
	t := &Table{ttl: ttl}
	if maxFlows > 0 {
		t.maxPer = (maxFlows + tableShards - 1) / tableShards
	}
	for i := range t.shards {
		t.shards[i].m = make(map[Key]*Entry)
	}
	return t
}

func (t *Table) shard(k Key) *tableShard {
	return &t.shards[k.Hash()%tableShards]
}

// Touch records a packet of the given size for key k at virtual time now,
// creating the entry if needed (an entry idle past the TTL is evicted and
// the flow starts afresh), and returns the entry. The returned entry must
// only be mutated while no other goroutine accesses the same key; NFs in
// this codebase respect that by sharding flows across workers.
func (t *Table) Touch(k Key, size int, now time.Duration) *Entry {
	s := t.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.liveLocked(k, now, t.ttl)
	if e == nil {
		if t.maxPer > 0 && len(s.m) >= t.maxPer {
			s.evictOldestLocked()
		}
		e = &Entry{Key: k, FirstSeen: now}
		s.m[k] = e
	}
	e.record(size, now)
	return e
}

// TouchIfPresent is Touch for a flow the table already knows: one lock and
// one probe record the packet and return the entry. It reports false,
// creating nothing, when k is absent or idle past the TTL at now — the
// caller decides whether the flow deserves an entry and calls Touch.
func (t *Table) TouchIfPresent(k Key, size int, now time.Duration) (*Entry, bool) {
	s := t.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.liveLocked(k, now, t.ttl)
	if e == nil {
		return nil, false
	}
	e.record(size, now)
	return e, true
}

// liveLocked returns k's entry, or nil when there is none or it sat idle
// past ttl at now, in which case it is evicted.
func (s *tableShard) liveLocked(k Key, now, ttl time.Duration) *Entry {
	e := s.m[k]
	if e != nil && ttl > 0 && now-e.LastSeen > ttl {
		delete(s.m, k)
		return nil
	}
	return e
}

func (e *Entry) record(size int, now time.Duration) {
	e.Packets++
	e.Bytes += uint64(size)
	e.LastSeen = now
}

// Delete removes the entry for k, reporting whether it existed.
func (t *Table) Delete(k Key) bool {
	s := t.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[k]
	delete(s.m, k)
	return ok
}

// Len returns the current number of entries (expired entries that were never
// re-touched are included until swept).
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.m)
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
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for k, e := range s.m {
			if now-e.LastSeen > t.ttl {
				delete(s.m, k)
				evicted++
			}
		}
		s.mu.Unlock()
	}
	return evicted
}

// Range calls fn for a snapshot of every entry; fn must not retain the
// entry pointer beyond the call. Iteration order is unspecified.
func (t *Table) Range(fn func(*Entry) bool) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		entries := make([]*Entry, 0, len(s.m))
		for _, e := range s.m {
			entries = append(entries, e)
		}
		s.mu.Unlock()
		for _, e := range entries {
			if !fn(e) {
				return
			}
		}
	}
}

// Snapshot returns copies of all entries, used by migration to transfer NF
// state between devices.
func (t *Table) Snapshot() []Entry {
	var out []Entry
	t.Range(func(e *Entry) bool {
		out = append(out, *e)
		return true
	})
	return out
}

// Restore replaces the table's contents with entries (e.g. from a migration
// snapshot). The TTL and bound the table was built with stay in force.
func (t *Table) Restore(entries []Entry) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		clear(s.m)
		s.mu.Unlock()
	}
	for _, e := range entries {
		cp := e
		s := t.shard(e.Key)
		s.mu.Lock()
		s.m[e.Key] = &cp
		s.mu.Unlock()
	}
}

func (s *tableShard) evictOldestLocked() {
	var oldest *Entry
	for _, e := range s.m {
		if oldest == nil || e.LastSeen < oldest.LastSeen {
			oldest = e
		}
	}
	if oldest != nil {
		delete(s.m, oldest.Key)
	}
}
