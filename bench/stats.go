package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks; NaN for an empty slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median returns the median of xs (unsorted input); NaN when empty.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// mean returns the arithmetic mean of xs; NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// fastSide aggregates one statistic taken over several slices of a run (its
// seconds, say) into the run's value: the decile on the fast side — the
// lowest one for a time, the highest one for a rate. The sandbox's noise is
// one-sided and comes in bursts of seconds (a neighbour takes the processor;
// nothing ever makes the program faster): over ten 30 s runs the per-second
// median latencies of fig1_paced wandered between 83 and 113 µs inside every
// run while each run's fastest seconds sat at 80-87 µs, so the fast decile
// estimates the undisturbed value (spread 5 % over those runs) where the
// median second carries whatever hit half the run (10 %). A change to the
// code moves every slice.
func fastSide(xs []float64, higherIsFaster bool) float64 {
	if higherIsFaster {
		return quantile(sorted(xs), 0.9)
	}
	return quantile(sorted(xs), 0.1)
}

// tailPercentiles are the candidates highestPercentile chooses from, each
// with the share of samples beyond it in parts per ten thousand.
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{99.99, 1}, {99.9, 10}, {99, 100}, {95, 500}, {90, 1000}, {75, 2500}, {50, 5000}}

// highestPercentile picks the highest percentile a sample of n values
// supports: the largest candidate with at least ten samples beyond it, so a
// reported tail is never one or two outliers. It returns 0 when even the
// median has fewer than ten samples above it.
func highestPercentile(n int) float64 {
	for _, c := range tailPercentiles {
		if n*c.beyond >= 10*10_000 {
			return c.p
		}
	}
	return 0
}

// scaled converts nanosecond samples to float64s divided by div (1e3 for µs,
// 1e6 for ms).
func scaled(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	return out
}
