package nf

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/flow"
)

// RateLimiter polices traffic with token buckets: one global bucket plus
// optional per-flow buckets. Buckets refill in virtual time (ctx.Now), so
// behaviour is identical under simulation and live emulation. Bucket levels
// are the migratable state.
type RateLimiter struct {
	base
	mu sync.Mutex

	globalRate  float64 // bytes per second; 0 disables
	globalBurst float64 // bucket size in bytes
	global      bucket

	perFlowRate  float64
	perFlowBurst float64
	flows        map[flow.Key]*bucket
}

type bucket struct {
	Tokens float64
	Last   time.Duration
}

// take refills the bucket at rate (bytes/s) up to burst and tries to spend
// n bytes.
func (b *bucket) take(n int, now time.Duration, rate, burst float64) bool {
	if now > b.Last {
		b.Tokens += rate * (now - b.Last).Seconds()
		if b.Tokens > burst {
			b.Tokens = burst
		}
		b.Last = now
	}
	if b.Tokens >= float64(n) {
		b.Tokens -= float64(n)
		return true
	}
	return false
}

// NewRateLimiter builds a limiter. globalGbps caps aggregate throughput and
// perFlowGbps each flow (0 disables either). Burst defaults to 125 KB
// (1 ms at 1 Gbps) scaled by the rate.
func NewRateLimiter(name string, globalGbps, perFlowGbps float64) *RateLimiter {
	toBps := func(g float64) float64 { return g * 1e9 / 8 }
	burst := func(bps float64) float64 {
		b := bps / 1000 // 1 ms worth
		if b < 3000 {
			b = 3000 // at least two max-size frames
		}
		return b
	}
	rl := &RateLimiter{
		base:  newBase(name, device.TypeRateLimiter),
		flows: make(map[flow.Key]*bucket),
	}
	rl.attach(rl, true) // all bucket state under one mutex
	if globalGbps > 0 {
		rl.globalRate = toBps(globalGbps)
		rl.globalBurst = burst(rl.globalRate)
		rl.global = bucket{Tokens: rl.globalBurst}
	}
	if perFlowGbps > 0 {
		rl.perFlowRate = toBps(perFlowGbps)
		rl.perFlowBurst = burst(rl.perFlowRate)
	}
	return rl
}

// Process implements NF.
func (rl *RateLimiter) Process(ctx *Ctx) (Verdict, error) {
	n := len(ctx.Frame)
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if rl.globalRate > 0 && !rl.global.take(n, ctx.Now, rl.globalRate, rl.globalBurst) {
		return rl.account(VerdictDrop, nil)
	}
	if rl.perFlowRate > 0 && ctx.HasFlow {
		b := rl.flows[ctx.FlowKey]
		if b == nil {
			b = &bucket{Tokens: rl.perFlowBurst, Last: ctx.Now}
			rl.flows[ctx.FlowKey] = b
		}
		if !b.take(n, ctx.Now, rl.perFlowRate, rl.perFlowBurst) {
			return rl.account(VerdictDrop, nil)
		}
	}
	return rl.account(VerdictPass, nil)
}

// ProcessBatch implements the batch fast path: the bucket mutex is taken
// once for the whole burst (per-packet Process pays a lock/unlock round
// trip per frame) and accounting is batched. Verdicts stay per-packet —
// each frame spends its own tokens, so a burst can be split mid-way when
// the bucket runs dry.
func (rl *RateLimiter) ProcessBatch(ctxs []*Ctx) []Verdict {
	out := passAll(len(ctxs))
	var passed, dropped uint64
	rl.mu.Lock()
	for i, ctx := range ctxs {
		n := len(ctx.Frame)
		if rl.globalRate > 0 && !rl.global.take(n, ctx.Now, rl.globalRate, rl.globalBurst) {
			out = setVerdict(out, i, VerdictDrop)
			dropped++
			continue
		}
		if rl.perFlowRate > 0 && ctx.HasFlow {
			b := rl.flows[ctx.FlowKey]
			if b == nil {
				b = &bucket{Tokens: rl.perFlowBurst, Last: ctx.Now}
				rl.flows[ctx.FlowKey] = b
			}
			if !b.take(n, ctx.Now, rl.perFlowRate, rl.perFlowBurst) {
				out = setVerdict(out, i, VerdictDrop)
				dropped++
				continue
			}
		}
		passed++
	}
	rl.mu.Unlock()
	rl.accountN(passed, dropped, 0)
	return out
}

type rlState struct {
	GlobalRate   float64
	GlobalBurst  float64
	Global       bucket
	PerFlowRate  float64
	PerFlowBurst float64
	Flows        map[flow.Key]bucket
}

// Snapshot implements Stateful.
func (rl *RateLimiter) Snapshot() ([]byte, error) {
	rl.mu.Lock()
	st := rlState{
		GlobalRate:   rl.globalRate,
		GlobalBurst:  rl.globalBurst,
		Global:       rl.global,
		PerFlowRate:  rl.perFlowRate,
		PerFlowBurst: rl.perFlowBurst,
		Flows:        make(map[flow.Key]bucket, len(rl.flows)),
	}
	for k, b := range rl.flows {
		st.Flows[k] = *b
	}
	rl.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("ratelimiter %s: snapshot: %w", rl.name, err)
	}
	return buf.Bytes(), nil
}

// Restore implements Stateful.
func (rl *RateLimiter) Restore(data []byte) error {
	var st rlState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("ratelimiter %s: restore: %w", rl.name, err)
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.globalRate, rl.globalBurst, rl.global = st.GlobalRate, st.GlobalBurst, st.Global
	rl.perFlowRate, rl.perFlowBurst = st.PerFlowRate, st.PerFlowBurst
	rl.flows = make(map[flow.Key]*bucket, len(st.Flows))
	for k, b := range st.Flows {
		cp := b
		rl.flows[k] = &cp
	}
	return nil
}

var (
	_ NF       = (*RateLimiter)(nil)
	_ Stateful = (*RateLimiter)(nil)
)
