package nf

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/flow"
	"repro/internal/pcap"
)

// LogRecord is one entry in the Logger's ring buffer.
type LogRecord struct {
	At   time.Duration
	Key  flow.Key
	Size int
	// Frame holds the (possibly truncated) frame bytes when the logger was
	// built with capture enabled; nil otherwise.
	Frame []byte
}

// Logger records per-packet metadata into a fixed-size ring buffer, the way
// the paper's Logger vNF journals traffic. The ring (plus its cursor) is the
// migratable state; its low SmartNIC capacity in Table 1 (2 Gbps) reflects
// the memory-write-heavy workload.
type Logger struct {
	base
	mu      sync.Mutex
	ring    []LogRecord
	next    int
	wraps   uint64
	snapLen int // >0 enables frame capture, truncated to this length
}

// NewLogger builds a logger with capacity records in its ring (min 1).
func NewLogger(name string, capacity int) *Logger {
	if capacity < 1 {
		capacity = 1
	}
	l := &Logger{
		base: newBase(name, device.TypeLogger),
		ring: make([]LogRecord, 0, capacity),
	}
	l.attach(l, true) // ring fully mutex-protected
	return l
}

// NewLoggerCapture builds a logger that additionally captures frame bytes
// (truncated to snapLen) so the journal can be exported as a pcap capture
// with WritePcap.
func NewLoggerCapture(name string, capacity, snapLen int) *Logger {
	l := NewLogger(name, capacity)
	if snapLen < 1 {
		snapLen = pcap.DefaultSnapLen
	}
	l.snapLen = snapLen
	return l
}

// Process implements NF: journal and pass.
func (l *Logger) Process(ctx *Ctx) (Verdict, error) {
	l.mu.Lock()
	l.journal(ctx)
	l.mu.Unlock()
	return l.account(VerdictPass, nil)
}

// ProcessBatch implements the batch fast path: the ring is locked once and
// the outcome counters updated once for the whole burst.
func (l *Logger) ProcessBatch(ctxs []*Ctx) []Verdict {
	l.mu.Lock()
	for _, ctx := range ctxs {
		l.journal(ctx)
	}
	l.mu.Unlock()
	l.accountN(uint64(len(ctxs)), 0, 0)
	return passAll(len(ctxs))
}

// journal appends one record to the ring, overwriting the oldest when full.
// The caller holds l.mu.
func (l *Logger) journal(ctx *Ctx) {
	rec := LogRecord{At: ctx.Now, Size: len(ctx.Frame)}
	if ctx.HasFlow {
		rec.Key = ctx.FlowKey
	}
	if l.snapLen > 0 {
		rec.Frame = make([]byte, min(len(ctx.Frame), l.snapLen))
		copy(rec.Frame, ctx.Frame)
	}
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, rec)
		return
	}
	l.ring[l.next] = rec
	l.next++
	if l.next == cap(l.ring) {
		l.next = 0
		l.wraps++
	}
}

// Records returns the journal contents in ring order (oldest first).
func (l *Logger) Records() []LogRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LogRecord, 0, len(l.ring))
	if len(l.ring) == cap(l.ring) {
		out = append(out, l.ring[l.next:]...)
		out = append(out, l.ring[:l.next]...)
	} else {
		out = append(out, l.ring...)
	}
	return out
}

// WritePcap exports the journal (oldest first) as a tcpdump-compatible
// capture. Records without captured frames (capture disabled) are skipped;
// it returns how many packets were written.
func (l *Logger) WritePcap(w io.Writer) (int, error) {
	recs := l.Records()
	pw, err := pcap.NewWriter(w, l.snapLenOrDefault())
	if err != nil {
		return 0, err
	}
	for _, r := range recs {
		if r.Frame == nil {
			continue
		}
		if err := pw.WritePacket(pcap.Packet{Time: r.At, Data: r.Frame, OrigLen: r.Size}); err != nil {
			return pw.Count(), err
		}
	}
	return pw.Count(), nil
}

func (l *Logger) snapLenOrDefault() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snapLen > 0 {
		return l.snapLen
	}
	return pcap.DefaultSnapLen
}

type loggerState struct {
	Ring    []LogRecord
	Next    int
	Wraps   uint64
	Cap     int
	SnapLen int
}

// Snapshot implements Stateful.
func (l *Logger) Snapshot() ([]byte, error) {
	l.mu.Lock()
	st := loggerState{
		Ring:    append([]LogRecord(nil), l.ring...),
		Next:    l.next,
		Wraps:   l.wraps,
		Cap:     cap(l.ring),
		SnapLen: l.snapLen,
	}
	l.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("logger %s: snapshot: %w", l.name, err)
	}
	return buf.Bytes(), nil
}

// Restore implements Stateful.
func (l *Logger) Restore(data []byte) error {
	var st loggerState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("logger %s: restore: %w", l.name, err)
	}
	if st.Cap < 1 {
		st.Cap = 1
	}
	l.mu.Lock()
	l.ring = make([]LogRecord, len(st.Ring), st.Cap)
	copy(l.ring, st.Ring)
	l.next = st.Next
	l.wraps = st.Wraps
	l.snapLen = st.SnapLen
	l.mu.Unlock()
	return nil
}

var (
	_ NF       = (*Logger)(nil)
	_ Stateful = (*Logger)(nil)
)
