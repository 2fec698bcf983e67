package nf

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/flow"
)

// Monitor is a per-flow traffic statistics collector (packet/byte counts,
// first/last-seen, top talkers) — the paper's Monitor vNF and the hot spot
// of the Figure 1 narrative. Its flow table is the migratable state.
type Monitor struct {
	base
	flows *flow.Table

	mu         sync.Mutex
	totalBytes uint64
	totalPkts  uint64
}

// NewMonitor builds a monitor; ttl evicts idle flows (0 keeps them forever),
// maxFlows bounds the table.
func NewMonitor(name string, ttl time.Duration, maxFlows int) *Monitor {
	m := &Monitor{
		base:  newBase(name, device.TypeMonitor),
		flows: flow.NewTable(ttl, maxFlows),
	}
	m.attach(m, true) // totals under mutex, flow table sharded
	return m
}

// Process implements NF: account and pass.
func (m *Monitor) Process(ctx *Ctx) (Verdict, error) {
	m.mu.Lock()
	m.totalPkts++
	m.totalBytes += uint64(len(ctx.Frame))
	m.mu.Unlock()
	if ctx.HasFlow {
		m.flows.Touch(ctx.FlowKey, len(ctx.Frame), ctx.Now)
	}
	return m.account(VerdictPass, nil)
}

// ProcessBatch implements the batch fast path: the aggregate totals are
// updated under one lock acquisition for the whole burst and the outcome
// counters once per burst; only the sharded flow-table touch stays
// per-packet.
func (m *Monitor) ProcessBatch(ctxs []*Ctx) []Verdict {
	var burstBytes uint64
	for _, ctx := range ctxs {
		burstBytes += uint64(len(ctx.Frame))
		if ctx.HasFlow {
			m.flows.Touch(ctx.FlowKey, len(ctx.Frame), ctx.Now)
		}
	}
	m.mu.Lock()
	m.totalPkts += uint64(len(ctxs))
	m.totalBytes += burstBytes
	m.mu.Unlock()
	m.accountN(uint64(len(ctxs)), 0, 0)
	return passAll(len(ctxs))
}

// FlowCount returns the number of tracked flows.
func (m *Monitor) FlowCount() int { return m.flows.Len() }

// Totals returns aggregate packet and byte counts.
func (m *Monitor) Totals() (pkts, bytes uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalPkts, m.totalBytes
}

// TopTalker is one entry of the top-N report.
type TopTalker struct {
	Key   flow.Key
	Bytes uint64
	Pkts  uint64
}

// TopTalkers returns the n highest-volume flows by bytes, descending.
func (m *Monitor) TopTalkers(n int) []TopTalker {
	var all []TopTalker
	m.flows.Range(func(e *flow.Entry) bool {
		all = append(all, TopTalker{Key: e.Key, Bytes: e.Bytes, Pkts: e.Packets})
		return true
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].Bytes != all[j].Bytes {
			return all[i].Bytes > all[j].Bytes
		}
		return all[i].Key.String() < all[j].Key.String() // stable report order
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

type monitorState struct {
	Flows      []flow.Entry
	TotalBytes uint64
	TotalPkts  uint64
}

// Snapshot implements Stateful.
func (m *Monitor) Snapshot() ([]byte, error) {
	m.mu.Lock()
	st := monitorState{TotalBytes: m.totalBytes, TotalPkts: m.totalPkts}
	m.mu.Unlock()
	st.Flows = m.flows.Snapshot()
	for i := range st.Flows {
		st.Flows[i].Value = nil // opaque values are not serialized
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("monitor %s: snapshot: %w", m.name, err)
	}
	return buf.Bytes(), nil
}

// Restore implements Stateful.
func (m *Monitor) Restore(data []byte) error {
	var st monitorState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("monitor %s: restore: %w", m.name, err)
	}
	m.flows.Restore(st.Flows)
	m.mu.Lock()
	m.totalBytes = st.TotalBytes
	m.totalPkts = st.TotalPkts
	m.mu.Unlock()
	return nil
}

var (
	_ NF       = (*Monitor)(nil)
	_ Stateful = (*Monitor)(nil)
)
