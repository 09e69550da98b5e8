// Command egload replays a mixed read/write workload against a live
// egserve instance and reports per-endpoint latency percentiles,
// throughput and the server's cache hit rate — the harness that
// demonstrates the result-cache/singleflight win on repeated analytics
// queries (DESIGN.md §10) and, with -writeRatio, exercises the ingest
// write path and its epoch snapshot swaps under concurrent reads
// (DESIGN.md §11).
//
// Usage:
//
//	egload [-url http://host:8080] [-duration 5s | -requests N]
//	       [-concurrency 8] [-distinct 4] [-seed 1]
//	       [-mix bfs:4,stats:2,weak:2,sizes:2,efficiency:2,katz:2,closeness:3,influence:1]
//	       [-writeRatio 0] [-writeBatch 16]
//	       [-nodes 500] [-stamps 8] [-edges 5000]
//	       [-visibility inline|poll|feed] [-pollInterval 50ms] [-wire host:9090]
//	       [-waitReady 0] [-json FILE] [-lintProm URL]
//
// -visibility selects how the harness learns that an acked write became
// readable: "inline" piggybacks on read responses, "poll" runs a
// dedicated /healthz poller (the deprecated X-Graph-Revision pattern),
// "feed" subscribes to the EGWP change-feed on -wire (self-serve opens
// its own wire listener). Running poll and feed over the same workload
// is the BENCH_8 experiment: pushed events resolve at epoch-publish
// time, polling pays up to a full -pollInterval on top.
//
// With -waitReady the harness first polls /readyz until the target
// answers 200 (restart-to-ready; the JSON report records it as
// restartToReadyNs) — launch it alongside a restarting egserve to
// measure boot-to-serving time, which is where a checkpoint boot's
// warm-restart win lands end to end. egserve opens its listener before
// WAL recovery and answers /readyz 503 until the first graph installs,
// so the poll measures readiness, not the process being up.
//
// After the run the harness scrapes the target's /metrics.prom,
// validates the exposition with the strict parser in internal/obs, and
// folds the server-side histograms into the report: per-stage epoch
// timings (eg_epoch_stage_seconds — WAL append, delta fold, CSR build,
// incremental analytics, checkpoint write, publish-to-visible) and
// per-endpoint serve latency p50/p99 as the server measured it. -lintProm
// URL runs only that scrape-and-validate step against URL and exits
// non-zero on any exposition defect — the CI soak harness calls it once
// per generation.
//
// Without -url the harness self-serves: it builds a random graph from
// -nodes/-stamps/-edges/-seed, mounts internal/server (with an
// in-memory ingest pipeline when -writeRatio > 0) on a loopback
// listener in-process and hammers that — one command to go from zero
// to a load report. With -url those three flags are ignored; the graph
// shape is read from the target's /stats.
//
// With -writeRatio R each worker turns that fraction of its requests
// into POST /ingest/arcs batches of -writeBatch events (mostly arc
// adds, some removes, the occasional new stamp). 429 backpressure
// responses are counted as throttled, not failed — that is the write
// path telling the client to slow down, and the report shows how often
// it did. The report also carries client-observed ingest-to-visible
// latency: the time from a write batch's 202 ack until some read first
// carries an X-Graph-Revision newer than the newest revision observed
// at ack time (p50/p99; a fold already in flight at ack time can
// attribute a write to one epoch early, so the number is exact to
// within one epoch).
//
// Each read endpoint draws its parameters from a pool of -distinct
// variants, so the workload repeats queries the way production traffic
// does and the analytics endpoints go hot after one cold computation
// each. The final report (stdout table, plus a JSON document under
// -json) gives p50/p90/p99 per endpoint and the server-side cache and
// ingest counters scraped from /metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	evolving "repro"
	"repro/egclient"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		target      = flag.String("url", "", "base URL of a running egserve (empty: self-serve an in-process server)")
		duration    = flag.Duration("duration", 5*time.Second, "how long to run (ignored when -requests > 0)")
		requests    = flag.Int("requests", 0, "stop after this many requests (0: run for -duration)")
		concurrency = flag.Int("concurrency", 8, "concurrent client workers")
		distinct    = flag.Int("distinct", 4, "distinct parameter variants per endpoint (smaller = hotter cache)")
		mix         = flag.String("mix", "bfs:4,stats:2,weak:2,sizes:2,efficiency:2,katz:2,closeness:3,influence:1",
			"endpoint:weight list; endpoints: stats, bfs, reach, weak, strong, sizes, efficiency, katz, closeness, influence")
		writeRatio = flag.Float64("writeRatio", 0, "fraction of requests that POST /ingest/arcs batches (0 = read-only)")
		writeBatch = flag.Int("writeBatch", 16, "events per write batch")
		seed       = flag.Int64("seed", 1, "workload seed (and self-serve graph seed)")
		nodes      = flag.Int("nodes", 500, "self-serve: node count")
		stamps     = flag.Int("stamps", 8, "self-serve: stamp count")
		edges      = flag.Int("edges", 5_000, "self-serve: static edge count")
		timeout    = flag.Duration("timeout", 60*time.Second, "per-request client timeout")
		waitReady  = flag.Duration("waitReady", 0, "poll /readyz until the first 200 (at most this long) before loading; the report records restartToReadyNs")
		jsonPath   = flag.String("json", "", "write the report to FILE as JSON")
		lintProm   = flag.String("lintProm", "", "strict-parse this /metrics.prom URL, check the required families, and exit (CI exposition linter; no load is generated)")
		chaos      = flag.String("chaos", "", "run a chaos soak instead of a load run: a named fault scenario (conn-flap, disk-full, fsync-stall, slow-compute) or inline fault DSL; self-serves an armed server, drives load for -duration and verifies the survival invariants")
		chaosOut   = flag.String("chaos-out", "", "write the chaos soak's JSON artifact to FILE (default: stdout)")

		compactEvery = flag.Int("compact-every", 256, "self-serve: fold the pending delta after this many events")
		compactIval  = flag.Duration("compact-interval", 500*time.Millisecond, "self-serve: fold any pending delta at least this often")

		visibility = flag.String("visibility", "inline",
			"how ingest-to-visible latency is observed: inline (piggyback on read responses), poll (dedicated /healthz poller — the deprecated pattern), feed (EGWP change-feed subscription — pushed)")
		pollInterval = flag.Duration("pollInterval", 50*time.Millisecond, "poller period for -visibility poll")
		wireTarget   = flag.String("wire", "", "EGWP address of the target for -visibility feed (self-serve opens its own)")
	)
	procStart := time.Now()
	flag.Parse()

	if *lintProm != "" {
		if err := lintPromURL(*lintProm, *timeout); err != nil {
			fmt.Fprintf(os.Stderr, "egload: lint %s: %v\n", *lintProm, err)
			os.Exit(1)
		}
		fmt.Printf("%s: exposition OK\n", *lintProm)
		return
	}

	if *chaos != "" {
		err := runChaos(chaosOptions{
			Scenario:    *chaos,
			Out:         *chaosOut,
			Duration:    *duration,
			Seed:        *seed,
			Nodes:       *nodes,
			Stamps:      *stamps,
			Edges:       *edges,
			Concurrency: *concurrency,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "egload: chaos: %v\n", err)
			os.Exit(1)
		}
		return
	}

	weights, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintf(os.Stderr, "egload: %v\n", err)
		os.Exit(2)
	}
	if *concurrency < 1 || *distinct < 1 {
		fmt.Fprintln(os.Stderr, "egload: -concurrency and -distinct must be positive")
		os.Exit(2)
	}
	if *writeRatio < 0 || *writeRatio > 1 || (*writeRatio > 0 && *writeBatch < 1) {
		fmt.Fprintln(os.Stderr, "egload: -writeRatio must be in [0,1] and -writeBatch positive")
		os.Exit(2)
	}
	switch *visibility {
	case "inline", "poll", "feed":
	default:
		fmt.Fprintln(os.Stderr, "egload: -visibility must be inline, poll or feed")
		os.Exit(2)
	}

	base := *target
	if base == "" {
		g := evolving.Random(evolving.RandomConfig{
			Nodes: *nodes, Stamps: *stamps, Edges: *edges, Directed: true, Seed: *seed,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "egload: listen: %v\n", err)
			os.Exit(1)
		}
		srv := server.New(g, server.Config{})
		if *writeRatio > 0 {
			// In-memory write path so the self-serve mode can exercise
			// snapshot swaps without a WAL on disk.
			lg, err := ingest.New(srv, ingest.Config{
				CompactEvery:    *compactEvery,
				CompactInterval: *compactIval,
				// Share the server's registry so the self-serve report's
				// stage breakdown has real epoch timings in it.
				Registry: srv.Registry(),
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "egload: ingest: %v\n", err)
				os.Exit(1)
			}
			defer lg.Close()
			srv.AttachIngest(lg)
		}
		go http.Serve(ln, srv) //nolint:errcheck // torn down with the process
		base = "http://" + ln.Addr().String()
		if *visibility == "feed" && *wireTarget == "" {
			wl, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fmt.Fprintf(os.Stderr, "egload: wire listen: %v\n", err)
				os.Exit(1)
			}
			go srv.ServeWire(wl) //nolint:errcheck // torn down with the process
			*wireTarget = wl.Addr().String()
		}
		fmt.Printf("self-serving random graph (nodes=%d stamps=%d edges=%d seed=%d) at %s\n",
			*nodes, *stamps, *edges, *seed, base)
	}
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: *timeout}

	// Restart-to-ready: poll /readyz until the target answers 200.
	// egserve's listener opens before WAL recovery (healthz is 200 the
	// whole time), so readiness — the first installed graph — is the
	// event this measures; it is where the recovery suite's ≥10x
	// warm-restart claim shows up end to end.
	var readyNS int64
	var readyPolls int
	if *waitReady > 0 {
		probe := &http.Client{Timeout: time.Second}
		deadline := time.Now().Add(*waitReady)
		ready := false
		for time.Now().Before(deadline) {
			readyPolls++
			resp, err := probe.Get(base + "/readyz")
			if err == nil {
				code := resp.StatusCode
				resp.Body.Close()
				if code == http.StatusOK {
					ready = true
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		if !ready {
			fmt.Fprintf(os.Stderr, "egload: %s/readyz not ready after %s (%d polls)\n", base, *waitReady, readyPolls)
			os.Exit(1)
		}
		readyNS = time.Since(procStart).Nanoseconds()
		fmt.Printf("target ready after %s (%d polls)\n", time.Duration(readyNS).Round(time.Millisecond), readyPolls)
	}

	// The graph shape drives parameter generation for both modes.
	var stats server.StatsResponse
	if err := getJSON(client, base+"/stats", &stats); err != nil {
		fmt.Fprintf(os.Stderr, "egload: probing %s/stats: %v\n", base, err)
		os.Exit(1)
	}

	// The visibility notifier resolves write acks into ingest-to-visible
	// latencies. "inline" piggybacks on read responses (zero extra
	// traffic, but resolution is as coarse as the read rate); "poll"
	// dedicates a /healthz poller at -pollInterval — the deprecated
	// pattern the change-feed replaces and the baseline BENCH_8 measures
	// against; "feed" subscribes to the EGWP change-feed and resolves at
	// push time.
	vis := new(visTracker)
	stopNotifier := func() {}
	switch *visibility {
	case "poll":
		done := make(chan struct{})
		var stopped sync.WaitGroup
		stopped.Add(1)
		go func() {
			defer stopped.Done()
			probe := &http.Client{Timeout: time.Second}
			tick := time.NewTicker(*pollInterval)
			defer tick.Stop()
			for {
				var h server.HealthResponse
				if err := getJSON(probe, base+"/healthz", &h); err == nil {
					vis.observeRev(h.GraphRevision)
				}
				select {
				case <-tick.C:
				case <-done:
					return
				}
			}
		}()
		stopNotifier = func() { close(done); stopped.Wait() }
	case "feed":
		if *wireTarget == "" {
			fmt.Fprintln(os.Stderr, "egload: -visibility feed needs -wire (or self-serve mode)")
			os.Exit(2)
		}
		ctx, cancel := context.WithCancel(context.Background())
		wc, err := egclient.DialWire(ctx, *wireTarget)
		if err != nil {
			cancel()
			fmt.Fprintf(os.Stderr, "egload: dialing wire %s: %v\n", *wireTarget, err)
			os.Exit(1)
		}
		sub, err := wc.Subscribe(ctx, egclient.FeedSpec{Kind: egclient.KindRevision, Cursor: egclient.CursorLive})
		if err != nil {
			cancel()
			fmt.Fprintf(os.Stderr, "egload: subscribing: %v\n", err)
			os.Exit(1)
		}
		var stopped sync.WaitGroup
		stopped.Add(1)
		go func() {
			defer stopped.Done()
			for {
				ev, err := sub.Next(ctx)
				if err != nil {
					return
				}
				vis.observeRev(ev.Revision)
			}
		}()
		stopNotifier = func() {
			cancel()
			sub.Close()
			wc.Close()
			stopped.Wait()
		}
	}

	rep := run(client, base, stats, weights, *concurrency, *distinct, *requests, *duration, *seed,
		*writeRatio, *writeBatch, vis, *visibility == "inline")
	stopNotifier()
	vis.fold(rep)
	rep.VisibilityMode = *visibility
	if *visibility == "poll" {
		rep.PollEveryNS = pollInterval.Nanoseconds()
	}
	rep.RestartToReadyNS = readyNS
	rep.ReadyPolls = readyPolls

	// Scrape the server-side counters; optional (a non-repro target has
	// no /metrics).
	var m server.MetricsResponse
	if err := getJSON(client, base+"/metrics", &m); err == nil {
		rep.ServerMetrics = &m
		rep.CacheHitRate = m.CacheHitRate
	}
	// And the Prometheus exposition: strict-parse it and fold the
	// server-measured histograms — per-stage epoch timings and
	// per-endpoint serve latency — into the report.
	if err := scrapeProm(client, base, rep); err != nil {
		fmt.Fprintf(os.Stderr, "egload: scraping /metrics.prom: %v\n", err)
	}

	printReport(rep)
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "egload: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote report to %s\n", *jsonPath)
	}
}

// endpointReport is the per-endpoint slice of the JSON report.
type endpointReport struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	Errors    int     `json:"errors"`
	NotFound  int     `json:"notFound"`
	Throttled int     `json:"throttled"`
	P50NS     int64   `json:"p50ns"`
	P90NS     int64   `json:"p90ns"`
	P99NS     int64   `json:"p99ns"`
	MaxNS     int64   `json:"maxNs"`
	MeanNS    int64   `json:"meanNs"`
	HitRate   float64 `json:"xCacheHitRate"`
}

// report is the egload -json document.
type report struct {
	Target          string           `json:"target"`
	Concurrency     int              `json:"concurrency"`
	Distinct        int              `json:"distinct"`
	Seed            int64            `json:"seed"`
	WriteRatio      float64          `json:"writeRatio"`
	DurationSeconds float64          `json:"durationSeconds"`
	TotalRequests   int              `json:"totalRequests"`
	Errors          int              `json:"errors"`
	Throttled       int              `json:"throttled"`
	Throughput      float64          `json:"requestsPerSecond"`
	Endpoints       []endpointReport `json:"endpoints"`
	CacheHitRate    float64          `json:"cacheHitRate"`
	// Ingest-to-visible latency (write ack → first read observing a
	// newer X-Graph-Revision), measured client-side across the whole
	// run; zero counts mean the run had no writes or no revision ever
	// advanced past an acked write.
	// Restart-to-ready (-waitReady): egload start → first 200 from
	// /healthz. Launched alongside a restarting server this is its
	// boot-to-serving time — checkpoint boots cut it by the recovery
	// suite's warm-restart factor.
	RestartToReadyNS int64 `json:"restartToReadyNs,omitempty"`
	ReadyPolls       int   `json:"readyPolls,omitempty"`
	// VisibilityMode records how acks were resolved: inline, poll (the
	// deprecated header-polling baseline) or feed (pushed change-feed).
	// BENCH_8 compares poll vs feed p99 on identical workloads.
	VisibilityMode    string                  `json:"visibilityMode"`
	PollEveryNS       int64                   `json:"pollIntervalNs,omitempty"`
	VisibleCount      int                     `json:"ingestVisibleCount,omitempty"`
	VisibleUnresolved int                     `json:"ingestVisibleUnresolved,omitempty"`
	VisibleP50NS      int64                   `json:"ingestVisibleP50Ns,omitempty"`
	VisibleP99NS      int64                   `json:"ingestVisibleP99Ns,omitempty"`
	ServerMetrics     *server.MetricsResponse `json:"serverMetrics,omitempty"`
	// Server-measured histograms scraped from /metrics.prom after the
	// run: the write path's per-stage epoch timings and each endpoint's
	// serve latency as the server recorded it (all cache outcomes and
	// transports merged) — the server-side counterpart of the
	// client-observed percentiles above.
	IngestStages []stageReport `json:"ingestStages,omitempty"`
	ServeLatency []promLatency `json:"serverLatency,omitempty"`
}

// stageReport is one pipeline stage of the scraped
// eg_epoch_stage_seconds histogram: wal (append+fsync), fold (Patch or
// full rebuild), csr (flat CSR build), analytics (incremental
// maintenance), checkpoint (persist) and visible (publish-to-visible).
type stageReport struct {
	Stage      string  `json:"stage"`
	Count      uint64  `json:"count"`
	SumSeconds float64 `json:"sumSeconds"`
	P50NS      int64   `json:"p50ns"`
	P99NS      int64   `json:"p99ns"`
}

// promLatency is one endpoint's serve latency reassembled from the
// scraped eg_serve_latency_seconds histogram.
type promLatency struct {
	Endpoint string `json:"endpoint"`
	Count    uint64 `json:"count"`
	P50NS    int64  `json:"p50ns"`
	P99NS    int64  `json:"p99ns"`
}

// visTracker resolves ingest-to-visible latencies: every write ack
// registers (ack time, newest revision seen so far); every read
// response advances the high-water revision and resolves the pending
// acks older than it.
type visTracker struct {
	maxRev atomic.Uint64
	mu     sync.Mutex
	pend   []visPending
	lats   []time.Duration
}

type visPending struct {
	ack time.Time
	rev uint64
}

func (vt *visTracker) acked() {
	vt.mu.Lock()
	vt.pend = append(vt.pend, visPending{ack: time.Now(), rev: vt.maxRev.Load()})
	vt.mu.Unlock()
}

func (vt *visTracker) observe(revStr string) {
	if revStr == "" {
		return
	}
	r, err := strconv.ParseUint(revStr, 10, 64)
	if err != nil {
		return
	}
	vt.observeRev(r)
}

func (vt *visTracker) observeRev(r uint64) {
	for {
		cur := vt.maxRev.Load()
		if r <= cur {
			return
		}
		if vt.maxRev.CompareAndSwap(cur, r) {
			break
		}
	}
	now := time.Now()
	vt.mu.Lock()
	keep := vt.pend[:0]
	for _, p := range vt.pend {
		if p.rev < r {
			vt.lats = append(vt.lats, now.Sub(p.ack))
		} else {
			keep = append(keep, p)
		}
	}
	vt.pend = keep
	vt.mu.Unlock()
}

// fold writes the tracker's percentiles into the report.
func (vt *visTracker) fold(rep *report) {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	rep.VisibleUnresolved = len(vt.pend)
	if len(vt.lats) == 0 {
		return
	}
	sort.Slice(vt.lats, func(i, j int) bool { return vt.lats[i] < vt.lats[j] })
	rep.VisibleCount = len(vt.lats)
	rep.VisibleP50NS = percentile(vt.lats, 50).Nanoseconds()
	rep.VisibleP99NS = percentile(vt.lats, 99).Nanoseconds()
}

// sample is one completed request.
type sample struct {
	endpoint  string
	dur       time.Duration
	status    int
	xcache    string
	failed    bool
	throttled bool
}

// labelPool is the time labels writers may target: the served graph's
// own labels plus any fresh stamps the workload opened. Fresh labels
// are allocated above the current maximum so concurrent workers never
// collide with an existing stamp.
type labelPool struct {
	mu     sync.Mutex
	labels []int64
	next   int64
}

func newLabelPool(stats server.StatsResponse) *labelPool {
	labels := append([]int64(nil), stats.TimeLabels...)
	if len(labels) == 0 {
		// Pre-TimeLabels servers: the generators label stamps 1..S.
		for t := 1; t <= stats.Stamps; t++ {
			labels = append(labels, int64(t))
		}
	}
	maxL := labels[0]
	for _, l := range labels {
		if l > maxL {
			maxL = l
		}
	}
	return &labelPool{labels: labels, next: maxL + 1}
}

func (p *labelPool) random(rng *rand.Rand) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.labels[rng.Intn(len(p.labels))]
}

// fresh allocates a label above every existing one without publishing
// it: the allocating worker writes the AddStamp batch first and calls
// commit once the server acknowledged it. Publishing earlier would let
// another worker's arc batch race ahead of the stamp registration and
// draw a 400.
func (p *labelPool) fresh() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.next
	p.next++
	return l
}

func (p *labelPool) commit(l int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.labels = append(p.labels, l)
}

// buildWriteBody assembles one NDJSON batch: mostly arc adds, ~15%
// removes, and every ~16th batch opens a fresh stamp and writes into
// it — the append-mostly shape of an evolving graph. fresh is the
// newly opened label (commit it on acceptance), or 0 with ok=false.
func buildWriteBody(rng *rand.Rand, pool *labelPool, nodes, batch int) (body string, fresh int64, ok bool) {
	var b strings.Builder
	if rng.Intn(16) == 0 {
		fresh, ok = pool.fresh(), true
		fmt.Fprintf(&b, "{\"op\":\"stamp\",\"t\":%d}\n", fresh)
		fmt.Fprintf(&b, "{\"op\":\"add\",\"u\":%d,\"v\":%d,\"t\":%d}\n",
			rng.Intn(nodes), nodes, fresh) // first arc into the new stamp
	}
	for i := 0; i < batch; i++ {
		u := rng.Intn(nodes)
		v := rng.Intn(nodes)
		if u == v {
			v = (v + 1) % nodes
		}
		op := "add"
		if rng.Intn(100) < 15 {
			op = "remove"
		}
		fmt.Fprintf(&b, "{\"op\":%q,\"u\":%d,\"v\":%d,\"t\":%d}\n", op, u, v, pool.random(rng))
	}
	return b.String(), fresh, ok
}

// run drives the workers and folds their samples into a report.
func run(client *http.Client, base string, stats server.StatsResponse, weights []weighted,
	concurrency, distinct, maxRequests int, duration time.Duration, seed int64,
	writeRatio float64, writeBatch int, vis *visTracker, inlineVis bool) *report {

	var (
		issued  atomic.Int64
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	pool := newLabelPool(stats)
	deadline := time.Now().Add(duration)
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			var local []sample
			for {
				if maxRequests > 0 {
					if issued.Add(1) > int64(maxRequests) {
						break
					}
				} else if time.Now().After(deadline) {
					break
				}
				if writeRatio > 0 && rng.Float64() < writeRatio {
					body, fresh, opened := buildWriteBody(rng, pool, stats.Nodes, writeBatch)
					t0 := time.Now()
					resp, err := client.Post(base+"/ingest/arcs", "application/x-ndjson", strings.NewReader(body))
					s := sample{endpoint: "ingest", dur: time.Since(t0)}
					if err != nil {
						s.failed = true
					} else {
						s.status = resp.StatusCode
						resp.Body.Close()
						switch {
						case resp.StatusCode == http.StatusTooManyRequests:
							// Backpressure is the contract working, not
							// a failure; count it separately.
							s.throttled = true
						case resp.StatusCode != http.StatusAccepted:
							s.failed = true
						default:
							vis.acked()
							if opened {
								// The stamp is registered server-side;
								// other workers may target it now.
								pool.commit(fresh)
							}
						}
					}
					local = append(local, s)
					continue
				}
				ep := pick(rng, weights)
				url := base + buildPath(ep, rng.Intn(distinct), stats)
				t0 := time.Now()
				resp, err := client.Get(url)
				el := time.Since(t0)
				s := sample{endpoint: ep, dur: el}
				if err != nil {
					s.failed = true
				} else {
					s.status = resp.StatusCode
					s.xcache = resp.Header.Get("X-Cache")
					if inlineVis {
						// In poll/feed mode the dedicated notifier owns
						// resolution, so the measurement isolates the
						// notification channel under test.
						vis.observe(resp.Header.Get("X-Graph-Revision"))
					}
					resp.Body.Close()
					// 5xx is a server failure; 404 on a randomly drawn
					// inactive root is an expected answer.
					if resp.StatusCode >= 500 {
						s.failed = true
					}
				}
				local = append(local, s)
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &report{
		Target:          base,
		Concurrency:     concurrency,
		Distinct:        distinct,
		Seed:            seed,
		WriteRatio:      writeRatio,
		DurationSeconds: elapsed.Seconds(),
		TotalRequests:   len(samples),
		Throughput:      float64(len(samples)) / elapsed.Seconds(),
	}
	byEndpoint := make(map[string][]sample)
	for _, s := range samples {
		byEndpoint[s.endpoint] = append(byEndpoint[s.endpoint], s)
		if s.failed {
			rep.Errors++
		}
		if s.throttled {
			rep.Throttled++
		}
	}
	names := make([]string, 0, len(byEndpoint))
	for name := range byEndpoint {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ss := byEndpoint[name]
		durs := make([]time.Duration, 0, len(ss))
		er := endpointReport{Name: name, Count: len(ss)}
		hits := 0
		cacheable := 0
		var sum time.Duration
		for _, s := range ss {
			durs = append(durs, s.dur)
			sum += s.dur
			if s.failed {
				er.Errors++
			}
			if s.throttled {
				er.Throttled++
			}
			if s.status == http.StatusNotFound {
				er.NotFound++
			}
			if s.xcache != "" {
				cacheable++
				if s.xcache != "miss" {
					hits++
				}
			}
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		er.P50NS = percentile(durs, 50).Nanoseconds()
		er.P90NS = percentile(durs, 90).Nanoseconds()
		er.P99NS = percentile(durs, 99).Nanoseconds()
		er.MaxNS = durs[len(durs)-1].Nanoseconds()
		er.MeanNS = (sum / time.Duration(len(ss))).Nanoseconds()
		if cacheable > 0 {
			er.HitRate = float64(hits) / float64(cacheable)
		}
		rep.Endpoints = append(rep.Endpoints, er)
	}
	return rep
}

// buildPath maps an endpoint name and a variant index to a concrete
// request path. Variants cycle through a small pool of parameter
// combinations so the workload repeats queries.
func buildPath(endpoint string, variant int, stats server.StatsResponse) string {
	mode := [...]string{"allpairs", "consecutive"}[variant%2]
	node := (variant * 7919) % stats.Nodes
	stamp := variant % stats.Stamps
	switch endpoint {
	case "stats":
		return "/stats"
	case "bfs":
		return fmt.Sprintf("/bfs?node=%d&stamp=%d", node, stamp)
	case "reach":
		return fmt.Sprintf("/reach?node=%d&stamp=%d", node, stamp)
	case "weak":
		return "/components/weak?mode=" + mode
	case "strong":
		return fmt.Sprintf("/components/strong?minSize=%d", 2+variant%3)
	case "sizes":
		return "/components/sizes?mode=" + mode
	case "efficiency":
		return "/efficiency?mode=" + mode
	case "katz":
		return fmt.Sprintf("/katz?alpha=%g&top=10", 0.05+0.01*float64(variant%5))
	case "closeness":
		return fmt.Sprintf("/closeness?node=%d&stamp=%d", node, stamp)
	case "influence":
		return fmt.Sprintf("/influence/greedy?k=%d", 1+variant%5)
	default:
		return "/stats"
	}
}

type weighted struct {
	name   string
	weight int
}

var knownEndpoints = map[string]bool{
	"stats": true, "bfs": true, "reach": true, "weak": true, "strong": true,
	"sizes": true, "efficiency": true, "katz": true, "closeness": true, "influence": true,
}

func parseMix(s string) ([]weighted, error) {
	var out []weighted
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, found := strings.Cut(part, ":")
		weight := 1
		if found {
			var err error
			weight, err = strconv.Atoi(weightStr)
			if err != nil || weight < 1 {
				return nil, fmt.Errorf("bad weight in %q", part)
			}
		}
		if !knownEndpoints[name] {
			return nil, fmt.Errorf("unknown endpoint %q in -mix", name)
		}
		out = append(out, weighted{name, weight})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -mix")
	}
	return out, nil
}

func pick(rng *rand.Rand, weights []weighted) string {
	total := 0
	for _, w := range weights {
		total += w.weight
	}
	n := rng.Intn(total)
	for _, w := range weights {
		n -= w.weight
		if n < 0 {
			return w.name
		}
	}
	return weights[len(weights)-1].name
}

// percentile returns the pth percentile of sorted durations
// (nearest-rank).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// scrapeProm fetches base/metrics.prom, strict-parses it and folds the
// server-measured histograms into rep. A parse failure is reported (the
// exposition contract is part of the surface under test); a missing
// endpoint is not (non-repro targets).
func scrapeProm(client *http.Client, base string, rep *report) error {
	resp, err := client.Get(base + "/metrics.prom")
	if err != nil {
		return nil // target has no Prometheus surface; skip silently
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	fams, err := obs.ParseProm(resp.Body)
	if err != nil {
		return fmt.Errorf("strict parse: %w", err)
	}
	if f := fams["eg_epoch_stage_seconds"]; f != nil {
		for _, h := range f.Hists {
			rep.IngestStages = append(rep.IngestStages, stageReport{
				Stage:      h.Labels["stage"],
				Count:      uint64(h.Count),
				SumSeconds: h.Sum,
				P50NS:      int64(h.Quantile(0.50) * 1e9),
				P99NS:      int64(h.Quantile(0.99) * 1e9),
			})
		}
		sort.Slice(rep.IngestStages, func(i, j int) bool {
			return rep.IngestStages[i].Stage < rep.IngestStages[j].Stage
		})
	}
	if f := fams["eg_serve_latency_seconds"]; f != nil {
		merged := make(map[string]*obs.PromHist)
		for _, h := range f.Hists {
			ep := h.Labels["endpoint"]
			m := merged[ep]
			if m == nil {
				merged[ep] = &obs.PromHist{
					Labels:     map[string]string{"endpoint": ep},
					Bounds:     append([]float64(nil), h.Bounds...),
					Cumulative: append([]float64(nil), h.Cumulative...),
					Sum:        h.Sum,
					Count:      h.Count,
				}
				continue
			}
			if len(m.Cumulative) != len(h.Cumulative) {
				continue // foreign exposition with per-series bounds; skip
			}
			for i := range m.Cumulative {
				m.Cumulative[i] += h.Cumulative[i]
			}
			m.Sum += h.Sum
			m.Count += h.Count
		}
		for ep, h := range merged {
			rep.ServeLatency = append(rep.ServeLatency, promLatency{
				Endpoint: ep,
				Count:    uint64(h.Count),
				P50NS:    int64(h.Quantile(0.50) * 1e9),
				P99NS:    int64(h.Quantile(0.99) * 1e9),
			})
		}
		sort.Slice(rep.ServeLatency, func(i, j int) bool {
			return rep.ServeLatency[i].Endpoint < rep.ServeLatency[j].Endpoint
		})
	}
	return nil
}

// lintPromURL is the -lintProm mode: fetch one exposition, run it
// through the strict parser and require the families every healthy
// server must expose. CI calls this once per soak generation.
func lintPromURL(url string, timeout time.Duration) error {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	fams, err := obs.ParseProm(resp.Body)
	if err != nil {
		return fmt.Errorf("strict parse: %w", err)
	}
	for _, want := range []struct{ name, typ string }{
		{"eg_serve_latency_seconds", "histogram"},
		{"eg_graph_revision", "gauge"},
		{"eg_requests_total", "counter"},
		{"eg_goroutines", "gauge"},
	} {
		f := fams[want.name]
		if f == nil {
			return fmt.Errorf("missing family %s", want.name)
		}
		if f.Type != want.typ {
			return fmt.Errorf("family %s has type %s, want %s", want.name, f.Type, want.typ)
		}
	}
	fmt.Printf("parsed %d families\n", len(fams))
	return nil
}

func getJSON(client *http.Client, url string, into interface{}) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func printReport(rep *report) {
	fmt.Printf("\n# egload: %d requests in %.2fs (%.0f req/s, concurrency %d, distinct %d), %d errors, %d throttled\n",
		rep.TotalRequests, rep.DurationSeconds, rep.Throughput, rep.Concurrency, rep.Distinct, rep.Errors, rep.Throttled)
	fmt.Printf("%-12s %8s %7s %5s %5s %12s %12s %12s %8s\n",
		"endpoint", "count", "errors", "429s", "404s", "p50", "p90", "p99", "hit")
	for _, ep := range rep.Endpoints {
		hit := "-"
		if ep.HitRate > 0 || strings.Contains("weak strong sizes efficiency katz closeness influence", ep.Name) {
			hit = fmt.Sprintf("%5.1f%%", 100*ep.HitRate)
		}
		fmt.Printf("%-12s %8d %7d %5d %5d %12s %12s %12s %8s\n",
			ep.Name, ep.Count, ep.Errors, ep.Throttled, ep.NotFound,
			time.Duration(ep.P50NS).Round(time.Microsecond),
			time.Duration(ep.P90NS).Round(time.Microsecond),
			time.Duration(ep.P99NS).Round(time.Microsecond),
			hit)
	}
	if rep.RestartToReadyNS > 0 {
		fmt.Printf("\nrestart-to-ready: %s (%d /readyz polls)\n",
			time.Duration(rep.RestartToReadyNS).Round(time.Millisecond), rep.ReadyPolls)
	}
	if rep.VisibleCount > 0 {
		fmt.Printf("\ningest-to-visible via %s (ack → first newer revision observed): p50=%s p99=%s over %d writes (%d unresolved at shutdown)\n",
			rep.VisibilityMode,
			time.Duration(rep.VisibleP50NS).Round(time.Microsecond),
			time.Duration(rep.VisibleP99NS).Round(time.Microsecond),
			rep.VisibleCount, rep.VisibleUnresolved)
	}
	if rep.ServerMetrics != nil {
		c := rep.ServerMetrics.Cache
		fmt.Printf("\nserver cache: hitRate=%.1f%% hits=%d misses=%d collapsed=%d entries=%d evictions=%d inFlight=%d/%d\n",
			100*rep.CacheHitRate, c.Hits, c.Misses, c.Collapsed, c.Entries, c.Evictions,
			rep.ServerMetrics.InFlight, rep.ServerMetrics.MaxInFlight)
		if ig := rep.ServerMetrics.Ingest; ig != nil {
			fmt.Printf("server ingest: appended=%d pending=%d epochs=%d (patch=%d) compacted=%d throttled=%d lastCompact=%.1fms lastCsrBuild=%.1fms lastVisible=%.1fms\n",
				ig.AppendedEvents, ig.PendingEvents, ig.Epochs, ig.PatchEpochs,
				ig.CompactedEvents, ig.ThrottledBatches, ig.LastCompactMs, ig.LastCSRBuildMs, ig.LastVisibleMs)
		}
	}
	if len(rep.IngestStages) > 0 {
		fmt.Printf("\nepoch stage breakdown (server-measured, scraped from /metrics.prom):\n")
		fmt.Printf("%-12s %8s %12s %12s %12s\n", "stage", "count", "p50", "p99", "total")
		for _, st := range rep.IngestStages {
			fmt.Printf("%-12s %8d %12s %12s %12s\n",
				st.Stage, st.Count,
				time.Duration(st.P50NS).Round(time.Microsecond),
				time.Duration(st.P99NS).Round(time.Microsecond),
				(time.Duration(st.SumSeconds * float64(time.Second))).Round(time.Millisecond))
		}
	}
	if len(rep.ServeLatency) > 0 {
		fmt.Printf("\nserver-side serve latency (all outcomes/transports merged):\n")
		fmt.Printf("%-20s %8s %12s %12s\n", "endpoint", "count", "p50", "p99")
		for _, l := range rep.ServeLatency {
			fmt.Printf("%-20s %8d %12s %12s\n", l.Endpoint, l.Count,
				time.Duration(l.P50NS).Round(time.Microsecond),
				time.Duration(l.P99NS).Round(time.Microsecond))
		}
	}
}
