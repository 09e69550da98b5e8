package main

import (
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or a request does
// work; stallAt makes one sleep overshoot, as a descheduled generator
// would.
type fakeClock struct {
	now     time.Time
	sleeps  int
	stallAt int
	stall   time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
	if c.sleeps == c.stallAt {
		c.now = c.now.Add(c.stall)
	}
	c.sleeps++
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		service  = 2 * time.Millisecond
	)
	clk := &fakeClock{now: time.Unix(0, 0), stallAt: 3, stall: 25 * time.Millisecond}
	ol := openLoop{clk: clk, start: clk.now, interval: interval, n: 8, spawn: func(f func()) { f() }}
	as := ol.run(func(k int) bool {
		clk.now = clk.now.Add(service)
		return k != 7
	})
	ms := time.Millisecond
	// Request 3's sleep overshot by 25ms; 4 and 5 went out late behind
	// it and are charged for the wait, 6 has nearly caught up.
	wantLate := []time.Duration{0, 0, 0, 25 * ms, 17 * ms, 9 * ms, 1 * ms, 0}
	for k, a := range as {
		if a.Due != ol.start.Add(time.Duration(k)*interval) {
			t.Errorf("request %d due %v, want start+%d intervals", k, a.Due, k)
		}
		if a.Lateness() != wantLate[k] {
			t.Errorf("request %d lateness %v, want %v", k, a.Lateness(), wantLate[k])
		}
		if a.Latency() != wantLate[k]+service {
			t.Errorf("request %d latency %v, want lateness + service = %v", k, a.Latency(), wantLate[k]+service)
		}
	}
	lat, late, failed := latencies(as)
	if failed != 1 || len(lat) != 7 || len(late) != 8 {
		t.Errorf("latencies: %d ok, %d lateness, %d failed; want 7, 8, 1", len(lat), len(late), failed)
	}
}

func TestOpenLoopRunsAfterOutsideTheSpan(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0), stallAt: -1}
	var checked []int
	ol := openLoop{clk: clk, start: clk.now, interval: time.Millisecond, n: 3, spawn: func(f func()) { f() }}
	ol.after = func(k int) {
		checked = append(checked, k)
		clk.now = clk.now.Add(time.Second) // a slow check must not count
	}
	for k, a := range ol.run(func(int) bool { return true }) {
		// Inline spawns make each check delay the next send, which the
		// lateness records; the request's own span stays empty.
		if a.Done.Sub(a.Sent) != 0 {
			t.Errorf("request %d span %v includes its check", k, a.Done.Sub(a.Sent))
		}
	}
	if len(checked) != 3 {
		t.Errorf("after ran for %v, want every request", checked)
	}
}
