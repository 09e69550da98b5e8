package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
// A p99 over 200 samples rests on two values; the benchmark reports the
// highest percentile the sample supports instead, and says which.
const minBeyond = 10

// pick is one reported quantile: its value, the percentile actually
// used, and the sample count behind it.
type pick struct {
	Value float64
	Pct   int
	N     int
}

// quantile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// supportedPct returns the highest whole percentile ≤ want that leaves
// at least minBeyond of n samples above its nearest-rank position. When
// even the median has fewer, it returns 50: the median is always
// reported, with its sample count.
func supportedPct(n, want int) int {
	for p := want; p > 50; p-- {
		rank := int(math.Ceil(float64(p) * float64(n) / 100))
		if n-rank >= minBeyond {
			return p
		}
	}
	return 50
}

// tail picks the highest supported percentile up to want of samples.
func tail(samples []float64, want int) pick {
	s := sortedCopy(samples)
	pct := supportedPct(len(s), want)
	return pick{Value: quantile(s, float64(pct)/100), Pct: pct, N: len(s)}
}

// median picks the 50th percentile.
func median(samples []float64) pick {
	s := sortedCopy(samples)
	return pick{Value: quantile(s, 0.5), Pct: 50, N: len(s)}
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func (p pick) String() string {
	beyond := p.N - int(math.Ceil(float64(p.Pct)*float64(p.N)/100))
	return fmt.Sprintf("p%d of n=%d (%d beyond)", p.Pct, p.N, beyond)
}

// ms and us convert durations to the report's float units.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durs converts a duration sample to a unit via conv.
func durs(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}

// medianDur is the nearest-rank median of a duration sample (0 when
// empty).
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)+1)/2-1]
}
