package metrics_test

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metrics"
)

func TestHistogramBasics(t *testing.T) {
	h := metrics.NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Error("empty histogram not zeroed")
	}
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Min() != 1000 || h.Max() != 100000 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-50500) > 1 {
		t.Errorf("mean = %v, want 50500", got)
	}
	// The p50 estimate must be within the sub-bucket resolution (~6.25%).
	p50 := float64(h.Percentile(50))
	if p50 < 50000*0.97 || p50 > 50000*1.07 {
		t.Errorf("p50 = %v, want ≈50000", p50)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := metrics.NewHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Count() != 1 {
		t.Errorf("min=%d count=%d", h.Min(), h.Count())
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := metrics.NewHistogram(), metrics.NewHistogram()
	for i := 0; i < 50; i++ {
		a.Record(100)
		b.Record(10000)
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Errorf("count = %d", a.Count())
	}
	if a.Min() != 100 || a.Max() != 10000 {
		t.Errorf("min/max = %d/%d", a.Min(), a.Max())
	}
	if a.Sum() != 50*100+50*10000 {
		t.Errorf("sum = %d", a.Sum())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := metrics.NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(int64(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
}

// Property: percentile estimates are within the documented relative error
// of the exact empirical quantile.
func TestPropertyPercentileAccuracy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := metrics.NewHistogram()
		n := 100 + r.Intn(1000)
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(r.Intn(10_000_000))
			h.Record(xs[i])
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, p := range []float64{50, 90, 99} {
			rank := int(math.Ceil(p/100*float64(n))) - 1
			exact := xs[rank]
			got := h.Percentile(p)
			// Estimate must be >= exact (upper bucket bound) and within
			// the 1/16 sub-bucket resolution.
			if got < exact || float64(got) > float64(exact)*1.0626+64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterRates(t *testing.T) {
	m := metrics.NewMeter(0)
	// 1000 packets × 1250 bytes over 10 ms = 1 Gbps, 100 kpps.
	for i := 0; i < 1000; i++ {
		m.Observe(1250, time.Duration(i+1)*10*time.Microsecond)
	}
	if got := m.Gbps(); math.Abs(got-1.0) > 0.001 {
		t.Errorf("Gbps = %v, want 1.0", got)
	}
	if got := m.PPS(); math.Abs(got-100000) > 100 {
		t.Errorf("PPS = %v, want 100000", got)
	}
	if m.LossRate() != 0 {
		t.Errorf("loss = %v", m.LossRate())
	}
	m.Drop(11 * time.Millisecond)
	if got := m.LossRate(); math.Abs(got-1.0/1001) > 1e-9 {
		t.Errorf("loss = %v", got)
	}
}

func TestMeterReset(t *testing.T) {
	m := metrics.NewMeter(0)
	m.Observe(100, time.Millisecond)
	m.Reset(2 * time.Millisecond)
	if m.Packets() != 0 || m.Gbps() != 0 {
		t.Error("reset did not clear")
	}
	m.Observe(100, 3*time.Millisecond)
	if m.Elapsed() != time.Millisecond {
		t.Errorf("elapsed = %v, want 1ms", m.Elapsed())
	}
}

func TestWelford(t *testing.T) {
	var w metrics.Welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != 8 || math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("n=%d mean=%v", w.N(), w.Mean())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if q := metrics.Quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := metrics.Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := metrics.Quantile(xs, 1); q != 5 {
		t.Errorf("q1 = %v", q)
	}
	if q := metrics.Quantile(nil, 0.5); q != 0 {
		t.Errorf("empty = %v", q)
	}
}

func TestTimeSeries(t *testing.T) {
	var ts metrics.TimeSeries
	for i := 0; i < 10; i++ {
		ts.Append(time.Duration(i)*time.Millisecond, float64(i))
	}
	if ts.Len() != 10 {
		t.Errorf("len = %d", ts.Len())
	}
	last, ok := ts.Last()
	if !ok || last.V != 9 {
		t.Errorf("last = %+v ok=%v", last, ok)
	}
}

func TestCounter(t *testing.T) {
	var c metrics.Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("load = %d", c.Load())
	}
	c.Reset()
	if c.Load() != 0 {
		t.Error("reset failed")
	}
}

func TestHistogramRecordBatch(t *testing.T) {
	a := metrics.NewHistogram()
	b := metrics.NewHistogram()
	vs := []int64{0, 1, 17, 1000, 99999, 1 << 40, -5}
	a.RecordBatch(vs)
	for _, v := range vs {
		b.Record(v)
	}
	if a.Count() != b.Count() || a.Sum() != b.Sum() || a.Min() != b.Min() || a.Max() != b.Max() {
		t.Errorf("RecordBatch diverges from Record: %+v vs %+v", a.Snapshot(), b.Snapshot())
	}
	for _, p := range []float64{50, 90, 99} {
		if a.Percentile(p) != b.Percentile(p) {
			t.Errorf("p%.0f: batch %d vs serial %d", p, a.Percentile(p), b.Percentile(p))
		}
	}
	a.RecordBatch(nil) // no-op
	if a.Count() != uint64(len(vs)) {
		t.Errorf("empty batch changed count: %d", a.Count())
	}
}

func TestMeterObserveNDropN(t *testing.T) {
	m := metrics.NewMeter(0)
	m.ObserveN(32, 32*512, time.Second)
	m.DropN(8, 2*time.Second)
	m.ObserveN(0, 0, 5*time.Second) // no-op, must not move the interval
	m.DropN(0, 9*time.Second)       // no-op
	if m.Packets() != 32 || m.Bytes() != 32*512 || m.Drops() != 8 {
		t.Errorf("counters: pkts=%d bytes=%d drops=%d", m.Packets(), m.Bytes(), m.Drops())
	}
	if m.Elapsed() != 2*time.Second {
		t.Errorf("elapsed = %v, want 2s", m.Elapsed())
	}
	wantGbps := float64(32*512) * 8 / 2 / 1e9
	if math.Abs(m.Gbps()-wantGbps) > 1e-12 {
		t.Errorf("gbps = %v, want %v", m.Gbps(), wantGbps)
	}
	if got := m.LossRate(); math.Abs(got-8.0/40.0) > 1e-12 {
		t.Errorf("loss = %v", got)
	}
}

func TestMeterObserveNConcurrent(t *testing.T) {
	m := metrics.NewMeter(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.ObserveN(4, 4*100, time.Duration(i))
				m.DropN(1, time.Duration(i))
			}
		}()
	}
	wg.Wait()
	if m.Packets() != 8*1000*4 || m.Drops() != 8*1000 {
		t.Errorf("lost updates: pkts=%d drops=%d", m.Packets(), m.Drops())
	}
}
