package main

import (
	"sync"
	"time"
)

// clock is the time source of the open-loop generator; tests replace
// it with a fake that stalls on demand.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// spinWindow is how far ahead of a due time the generator stops
// sleeping and spins on the clock instead: timer sleeps here overshoot
// by ~0.2ms. The spin does not yield (runtime.Gosched would requeue the
// generator ahead of the network poller and delay every in-process
// client's replies), so it is kept short.
const spinWindow = 300 * time.Microsecond

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(t) {
	}
}

// openLoop issues n requests on a fixed schedule, request k due at
// start + k·interval, without waiting for earlier requests to finish:
// independent users do not slow down when the service does. Each
// request is timed from its due time, not from when the generator got
// round to sending it, so a stall in the generator or the service
// charges every request that should have gone out meanwhile.
type openLoop struct {
	clk      clock
	start    time.Time
	interval time.Duration
	n        int
	// spawn runs one request; the real loop starts a goroutine, tests
	// run it inline.
	spawn func(func())
	// after, when set, runs once request k's timeline is recorded: work
	// such as answer checks that must stay out of the timed span.
	after func(k int)
}

// arrival is one open-loop request's timeline.
type arrival struct {
	Due, Sent, Done time.Time
	OK              bool
}

// Latency is what the user of request k waited: from its due time to
// its answer.
func (a arrival) Latency() time.Duration { return a.Done.Sub(a.Due) }

// Lateness is how far behind schedule the generator sent it.
func (a arrival) Lateness() time.Duration { return a.Sent.Sub(a.Due) }

// run issues every request through do and returns their timelines once
// all have completed. do reports success.
func (o openLoop) run(do func(k int) bool) []arrival {
	out := make([]arrival, o.n)
	var wg sync.WaitGroup
	for k := 0; k < o.n; k++ {
		due := o.start.Add(time.Duration(k) * o.interval)
		o.clk.SleepUntil(due)
		out[k].Due = due
		out[k].Sent = o.clk.Now()
		wg.Add(1)
		k := k
		o.spawn(func() {
			defer wg.Done()
			ok := do(k)
			out[k].Done = o.clk.Now()
			out[k].OK = ok
			if o.after != nil {
				o.after(k)
			}
		})
	}
	wg.Wait()
	return out
}

// goSpawn is the real loop's spawn.
func goSpawn(f func()) { go f() }

// latencies splits timelines into the latencies of successful requests
// and the generator's lateness over all of them.
func latencies(as []arrival) (lat, late []time.Duration, failed int) {
	for _, a := range as {
		late = append(late, a.Lateness())
		if !a.OK {
			failed++
			continue
		}
		lat = append(lat, a.Latency())
	}
	return lat, late, failed
}
