package main

import (
	"testing"
	"time"
)

func TestSupportedPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct{ n, want, got int }{
		{1000, 99, 99}, // 990th of 1000 leaves exactly 10 above
		{999, 99, 98},  // the 990th of 999 leaves 9
		{200, 99, 95},
		{100, 99, 90},
		{20, 99, 50},
		{19, 99, 50}, // too few for any tail: the median, flagged by its count
		{5, 99, 50},
		{1000, 90, 90},
	} {
		if got := supportedPct(tc.n, tc.want); got != tc.got {
			t.Errorf("supportedPct(%d, %d) = %d, want %d", tc.n, tc.want, got, tc.got)
		}
	}
}

func TestTailPicksNearestRank(t *testing.T) {
	var s []float64
	for i := 1000; i >= 1; i-- { // unsorted input
		s = append(s, float64(i))
	}
	if p := tail(s, 99); p.Value != 990 || p.Pct != 99 || p.N != 1000 {
		t.Errorf("tail of 1..1000 = %+v, want p99 = 990", p)
	}
	if p := tail(s[:100], 99); p.Value != 990 || p.Pct != 90 {
		// s[:100] is 1000..901: its p90 by nearest rank is the 90th
		// smallest, 901+89.
		t.Errorf("tail of 100 samples = %+v, want p90 = 990", p)
	}
	if p := median([]float64{3, 1, 2}); p.Value != 2 {
		t.Errorf("median = %v, want 2", p.Value)
	}
	if d := medianDur([]time.Duration{4, 1, 3, 2}); d != 2 {
		t.Errorf("medianDur = %v, want 2 (lower median)", d)
	}
}
