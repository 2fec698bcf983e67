// Package metrics provides measurement primitives used throughout the PAM
// reproduction: log-bucketed latency histograms, throughput meters, online
// moment accumulators and time series.
//
// The histogram design follows the HDR-histogram idea: values are bucketed by
// order of magnitude with a fixed number of linear sub-buckets per magnitude,
// giving a bounded relative error (~1/subBuckets) at every scale while using
// a small, fixed amount of memory. All methods are safe for concurrent use
// unless noted otherwise.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// subBucketBits fixes the per-magnitude resolution of Histogram. With 5 bits
// the linear region spans [0, 32) exactly and every later power-of-two row
// is split into 16 linear sub-buckets, bounding relative quantile error at
// about 1/16 (6.25%).
const subBucketBits = 5

const subBucketCount = 1 << subBucketBits

// Histogram records non-negative int64 samples (typically latencies in
// nanoseconds) into logarithmic buckets and answers quantile queries. The
// zero value is ready to use.
type Histogram struct {
	mu     sync.Mutex
	counts []uint64
	count  uint64
	sum    int64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

// bucketIndex maps a sample to its bucket. Values in [0, subBucketCount)
// map linearly; above that each power of two is split into subBucketCount/2
// linear sub-buckets.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBucketCount {
		return int(v)
	}
	// Position of the highest set bit beyond the linear region. Row r
	// (r = exp − subBucketBits ≥ 0) holds values [2^exp, 2^(exp+1)) in
	// subBucketCount/2 linear sub-buckets of width 2^(r+1).
	exp := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v), >= subBucketBits
	shift := exp - subBucketBits + 1
	base := (exp - subBucketBits) * (subBucketCount / 2)
	offset := int(v>>uint(shift)) - subBucketCount/2
	return subBucketCount + base + offset
}

// bucketLow returns the smallest value mapping to bucket i; bucketHigh the
// largest. Together they bound the true sample value.
func bucketLow(i int) int64 {
	if i < subBucketCount {
		return int64(i)
	}
	i -= subBucketCount
	exp := i / (subBucketCount / 2)
	off := i % (subBucketCount / 2)
	shift := exp + 1
	return int64(subBucketCount/2+off) << uint(shift)
}

func bucketHigh(i int) int64 {
	if i < subBucketCount {
		return int64(i)
	}
	next := bucketLow(i + 1)
	return next - 1
}

// recordLocked adds n identical samples; callers hold h.mu.
func (h *Histogram) recordLocked(v int64, n uint64) {
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	if h.counts == nil {
		h.min = math.MaxInt64
	}
	if idx >= len(h.counts) {
		grown := make([]uint64, idx+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[idx] += n
	h.count += n
	h.sum += v * int64(n)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Record adds one sample. Negative samples are clamped to zero.
func (h *Histogram) Record(v int64) {
	h.mu.Lock()
	h.recordLocked(v, 1)
	h.mu.Unlock()
}

// RecordBatch adds a burst of distinct samples under one lock acquisition,
// the batched hot-path variant Record used per-frame: the burst dataplane
// records a whole egress batch of latencies in one critical section.
func (h *Histogram) RecordBatch(vs []int64) {
	if len(vs) == 0 {
		return
	}
	h.mu.Lock()
	for _, v := range vs {
		h.recordLocked(v, 1)
	}
	h.mu.Unlock()
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean of recorded samples, or 0 if empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest recorded sample, or 0 if empty.
func (h *Histogram) Min() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample, or 0 if empty.
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Percentile returns an estimate of the p-th percentile (p in [0,100]).
// The estimate is the upper bound of the bucket containing the rank, so the
// relative error is bounded by the sub-bucket resolution. Returns 0 when the
// histogram is empty.
func (h *Histogram) Percentile(p float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			hi := bucketHigh(i)
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}

// Merge adds all samples recorded in other into h. min/max/sum are combined
// exactly; per-bucket counts are summed.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || h == other {
		return
	}
	other.mu.Lock()
	counts := make([]uint64, len(other.counts))
	copy(counts, other.counts)
	ocount, osum, omin, omax := other.count, other.sum, other.min, other.max
	other.mu.Unlock()

	if ocount == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(counts) > len(h.counts) {
		grown := make([]uint64, len(counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range counts {
		h.counts[i] += c
	}
	if h.count == 0 {
		h.min = omin
		h.max = omax
	} else {
		if omin < h.min {
			h.min = omin
		}
		if omax > h.max {
			h.max = omax
		}
	}
	h.count += ocount
	h.sum += osum
}

// Reset clears the histogram back to the empty state.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.counts = nil
	h.count = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
	h.mu.Unlock()
}

// Snapshot returns an immutable copy of the histogram's summary statistics.
func (h *Histogram) Snapshot() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
	}
}

// Summary holds point-in-time statistics extracted from a Histogram.
type Summary struct {
	Count               uint64
	Mean                float64
	Min, Max            int64
	P50, P90, P99, P999 int64
}

// String renders the summary on one line, treating samples as nanoseconds.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1fus p50=%.1fus p90=%.1fus p99=%.1fus p99.9=%.1fus max=%.1fus",
		s.Count, s.Mean/1e3, float64(s.P50)/1e3, float64(s.P90)/1e3, float64(s.P99)/1e3, float64(s.P999)/1e3, float64(s.Max)/1e3)
}

// Welford accumulates a running mean online (Welford's update, which stays
// accurate where a plain sum would lose precision). The zero value is ready
// to use. Not safe for concurrent use.
type Welford struct {
	n    uint64
	mean float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}

// N returns the number of observations.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the running mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Quantile computes the p-quantile (p in [0,1]) of xs by sorting a copy.
// It returns 0 for an empty slice. Intended for small result sets where
// exactness matters more than speed.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 1 {
		return cp[len(cp)-1]
	}
	// Linear interpolation between closest ranks.
	pos := p * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}
