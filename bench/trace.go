package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// span is one timed call into a layer: times are nanoseconds on the bench
// clock, parent is the index of the span that caused it (-1 for a root) and
// op identifies the operation (frame, episode or handoff index) so spans of
// one operation can be joined.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer records spans in memory; a nil *tracer is tracing switched off, so
// the untraced run pays one nil check per call site and nothing else.
type tracer struct {
	mu    sync.Mutex
	spans []span
	// cur is the span a wrapper (timing selector, timing transport) called
	// from inside a harness span should name as its parent. The harness
	// sets it around Live.Poll and Coordinator.Migrate, which it calls from
	// one goroutine at a time.
	cur atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{}
	t.cur.Store(-1)
	return t
}

// begin opens a span and returns its index; -1 when tracing is off.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := nowNs()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := nowNs()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// scope opens a span and publishes it as the parent for wrapper spans until
// the returned func closes it.
func (t *tracer) scope(name string, op int64) func() {
	if t == nil {
		return func() {}
	}
	i := t.begin(name, -1, op)
	t.cur.Store(int64(i))
	return func() {
		t.cur.Store(-1)
		t.end(i)
	}
}

// child opens a span under the current scope.
func (t *tracer) child(name string, op int64) int {
	if t == nil {
		return -1
	}
	return t.begin(name, int(t.cur.Load()), op)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children are
// merged, and children are clipped to the parent's interval).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// durations collects the durations (ns) of every span with the given name.
func durations(spans []span, name string) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// writeTrace writes spans as JSON lines to dir/trace-<workload>.jsonl.
func writeTrace(dir, workload string, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace file: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
