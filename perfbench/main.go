// Command perfbench is the repository's benchmark: one command that
// self-serves the evolving-graph query service in process (server over
// HTTP and EGWP, ingest with inc maintenance, checkpoints, the
// change-feed) and drives it through egclient with one of three
// workloads, checking every answer it times.
//
//	perfbench --workload hot-read|cold-analytics|write-churn --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics, each with the end-to-end metric it should move.
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. A wrong answer exits 1. README.md
// says why each workload exists; perfbench/run.sh builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", wHot, "hot-read, cold-analytics or write-churn")
		seed     = flag.Int64("seed", 1, "workload seed: graph, schedules and write batches derive from it")
		seconds  = flag.Int("seconds", 20, "measured seconds of the run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		tmp      = flag.String("tmp", ".bench_build/tmp", "scratch directory for WAL and checkpoint files")
		corrupt  = flag.Bool("corrupt-expected", false, "perturb one expected answer; the run must then fail")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := &run{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, corrupt: *corrupt, tmp: *tmp}
	var err error
	switch *workload {
	case wHot:
		err = r.hotRead()
	case wCold:
		err = r.coldAnalytics()
	case wChurn:
		err = r.writeChurn()
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if r.st != nil {
		if cerr := r.st.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", p)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", *workload, *seed, err)
		os.Exit(1)
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", *workload, *seed, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding the result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result computes and prints the run's metrics and returns the result
// line. An end-to-end metric without samples is an error: every one is
// measured on every workload and none reads 0.
func (r *run) result() (result, error) {
	res := result{Correct: !r.wrong, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("perfbench %s seed=%d seconds=%.0f trace=%t\n", r.workload, r.seed, r.seconds.Seconds(), r.trace)
	nHTTP, nWire := connBudget()
	fmt.Printf("  connections: %d HTTP + %d EGWP (nproc budget)\n", nHTTP, nWire)
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  %-30s %12.6f %-6s (%d of %d operations)\n", opsFailedFrac, frac, "frac", r.failed, r.attempted)
	if !r.trace {
		vals, notes := r.endToEnd()
		for _, m := range endToEnd {
			v := vals[m.Name]
			if !(v > 0) || math.IsInf(v, 0) {
				return res, fmt.Errorf("end-to-end metric %s has no valid value (%v, %s)", m.Name, v, notes[m.Name])
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
			fmt.Printf("  %-30s %12.4f %-6s %s\n", m.Name, v, m.Unit, notes[m.Name])
		}
		return res, nil
	}
	for _, n := range r.notes {
		fmt.Printf("  %s\n", n)
	}
	for _, m := range perLayer {
		v := r.layer[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a layer the run never exercised
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
		fmt.Printf("  %-30s %12.4f %-6s -> %v on %s\n", m.Name, v, m.Unit, m.Moves, m.Workload)
	}
	return res, nil
}

// endToEnd computes every end-to-end metric with a note on the sample
// behind it.
func (r *run) endToEnd() (map[string]float64, map[string]string) {
	v, note := map[string]float64{}, map[string]string{}
	set := func(name string, p pick) {
		v[name] = p.Value
		note[name] = p.String()
	}
	setup := median(durs(r.setups, func(d time.Duration) float64 { return d.Seconds() }))
	set("setup_s", setup)
	v["peak_rss_mb"] = r.phase.rssMB
	note["peak_rss_mb"] = fmt.Sprintf("median of %d one-second resident-set peaks; process peak %.1f MB",
		len(r.phase.windowPeaks), r.phase.maxRSSMB)
	set("query_p50_ms", median(durs(r.queryLat, ms)))
	set("query_p99_ms", tail(durs(r.queryLat, ms), 99))
	set("read_qps", median(r.readRates))
	set("refresh_p50_ms", median(durs(r.refresh, ms)))
	var vis, ing []float64
	for _, a := range r.acks {
		if !r.timedUntil.IsZero() && a.due.After(r.timedUntil) {
			continue
		}
		ing = append(ing, ms(a.lat))
		fr, ok := r.vis.visibleAt(a.idx)
		if !ok {
			continue
		}
		d := fr.at.Sub(a.at)
		if d < 0 {
			// The feed event overtook the ack on its way back.
			d = 0
		}
		vis = append(vis, ms(d))
	}
	set("visible_p50_ms", median(vis))
	set("visible_p99_ms", tail(vis, 99))
	set("ingest_p50_ms", median(ing))
	set("ingest_p99_ms", tail(ing, 99))
	return v, note
}
