package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/egclient"
	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/egio"
	"repro/internal/egraph"
	"repro/internal/inc"
	"repro/internal/influence"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/qcache"
	"repro/internal/rank"
)

// The traced run's per-layer numbers. Spans come only from the
// benchmark's own code, around calls into each layer's public
// functions, in three ways: the hooks in stack.go (the wrapped handler,
// listeners and publisher), timing the client calls, and replaying the
// inputs the run recorded against each layer directly — qcache, the
// kernels, encoding/json, egraph.Patch, the flat CSR build,
// inc.Maintainer.Apply, egio.WriteCheckpoint and the ingest WAL.

// phaseStats samples the Go runtime and the resident set over a run's
// measured phases.
type phaseStats struct {
	stop      chan struct{}
	done      chan struct{}
	gc0, cpu0 float64
	gcCPU     float64
	heapPeak  uint64
	// windowPeaks holds the resident-set peak of each rssWindow of the
	// phases; rssMB is their median, maxRSSMB the process's peak
	// resident set (getrusage) when the phases ended.
	windowPeaks []float64
	rssMB       float64
	maxRSSMB    float64
}

// rssWindow is the span over which one resident-set peak is taken. The
// reported peak is the median over windows: a window's peak depends on
// whether a collection ran before or after that window's largest burst
// of garbage, so the single highest sample of a run swung by a third
// from run to run on cold-analytics while the per-window median held.
const rssWindow = time.Second

var runtimeSamples = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func readRuntime() (gc, cpu float64, heap uint64) {
	s := append([]rtmetrics.Sample(nil), runtimeSamples...)
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

// residentMB reads the process's current resident set.
func residentMB() (float64, bool) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

func (p *phaseStats) begin() {
	p.gc0, p.cpu0, p.heapPeak = readRuntime()
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		windowEnd := time.Now().Add(rssWindow)
		peak := 0.0
		for {
			select {
			case <-p.stop:
				if peak > 0 {
					p.windowPeaks = append(p.windowPeaks, peak)
				}
				return
			case now := <-t.C:
				if _, _, h := readRuntime(); h > p.heapPeak {
					p.heapPeak = h
				}
				if mb, ok := residentMB(); ok && mb > peak {
					peak = mb
				}
				if now.After(windowEnd) {
					p.windowPeaks = append(p.windowPeaks, peak)
					peak, windowEnd = 0, now.Add(rssWindow)
				}
			}
		}
	}()
}

func (p *phaseStats) end() {
	if p.stop == nil {
		return
	}
	close(p.stop)
	<-p.done
	p.stop = nil
	gc, cpu, _ := readRuntime()
	if cpu > p.cpu0 {
		p.gcCPU = (gc - p.gc0) / (cpu - p.cpu0)
	}
	p.rssMB = median(p.windowPeaks).Value
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.maxRSSMB = float64(ru.Maxrss) / 1024
	}
}

// probeResult is the traced closed-loop probe of cached-analytics hits:
// per transport, the client span of every hit with its server-side
// serve time, plus the untraced/traced latency pair for the overhead.
type probeResult struct {
	spans    map[bool][]hitSpan // keyed by wire
	bytes    map[bool]float64   // server-conn bytes moved while traced
	queries  map[bool]int       // queries answered while traced
	overhead float64
}

type hitSpan struct {
	q      query
	client time.Duration
	serve  time.Duration
}

// probeSlices alternates untraced and traced slices of the probe; a
// slice ends only once its requests are answered, so the hooks never
// switch under a request in flight.
const (
	probeSlices = 6
	probeSlice  = 400 * time.Millisecond
)

// probeHits runs one closed-loop worker per connection over the
// cached-analytics keys of its transport, alternating untraced and
// traced slices. Only cache hits are kept.
func (r *run) probeHits() probeResult {
	st := r.st
	res := probeResult{spans: map[bool][]hitSpan{}, bytes: map[bool]float64{}, queries: map[bool]int{}}
	nHTTP, nWire := connBudget()
	var off, on []time.Duration
	var reqID int64
	for slice := 0; slice < probeSlices; slice++ {
		traced := slice%2 == 1
		st.tr.reset()
		st.tr.on.Store(traced)
		deadline := time.Now().Add(probeSlice)
		var mu sync.Mutex
		var wg sync.WaitGroup
		type wireRec struct {
			conn  int
			spans []hitSpan
			hits  []bool
		}
		var wireRecs []wireRec
		worker := func(wire bool, conn int) {
			defer wg.Done()
			qs := onWire(r.hot.refresh, wire)
			var rec wireRec
			rec.conn = conn
			for k := 0; time.Now().Before(deadline); k++ {
				q := qs[k%len(qs)]
				ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
				var id int64
				if traced && !wire {
					mu.Lock()
					reqID++
					id = reqID
					mu.Unlock()
					ctx = context.WithValue(ctx, reqIDKey{}, id)
				}
				resp := newResp(q.endpoint)
				t0 := time.Now()
				meta, err := st.client(q, conn).Query(ctx, q.endpoint, q.params, resp)
				d := time.Since(t0)
				cancel()
				hit := err == nil && (meta.Cache == "hit" || meta.Cache == "carried")
				mu.Lock()
				switch {
				case traced && err == nil:
					res.queries[wire]++
					if hit {
						on = append(on, d)
					}
				case hit:
					off = append(off, d)
				}
				mu.Unlock()
				if !traced {
					continue
				}
				if wire {
					rec.spans = append(rec.spans, hitSpan{q: q, client: d})
					rec.hits = append(rec.hits, hit)
				} else if hit {
					st.tr.mu.Lock()
					serve, ok := st.tr.httpServe[id]
					st.tr.mu.Unlock()
					if ok {
						mu.Lock()
						res.spans[false] = append(res.spans[false], hitSpan{q: q, client: d, serve: serve})
						mu.Unlock()
					}
				}
			}
			if wire {
				mu.Lock()
				wireRecs = append(wireRecs, rec)
				mu.Unlock()
			}
		}
		for i := 0; i < nHTTP; i++ {
			wg.Add(1)
			go worker(false, 0)
		}
		for i := 0; i < nWire; i++ {
			wg.Add(1)
			go worker(true, i)
		}
		wg.Wait()
		st.tr.on.Store(false)
		if !traced {
			continue
		}
		// EGWP serve times pair with the client's requests on the same
		// conn in order: one request in flight per conn.
		st.tr.mu.Lock()
		for _, rec := range wireRecs {
			serves := st.tr.wireServe[rec.conn]
			for i, sp := range rec.spans {
				if i < len(serves) && rec.hits[i] {
					sp.serve = serves[i]
					res.spans[true] = append(res.spans[true], sp)
				}
			}
		}
		st.tr.mu.Unlock()
		res.bytes[false] += float64(st.tr.httpBytes.Load())
		res.bytes[true] += float64(st.tr.wireBytes.Load())
	}
	if offP50 := medianDur(off); offP50 > 0 {
		res.overhead = float64(medianDur(on))/float64(offP50) - 1
	}
	return res
}

// replayN is how often each replayed call is timed; the median is
// reported.
const replayN = 200

func timeMedian(n int, fn func()) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	return medianDur(ds)
}

// encodeHTTP replays the server's HTTP response encoder, writeJSON's
// indented json.Encoder; EGWP answers are encoded with json.Marshal.
func encodeHTTP(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// bodyRT answers every request from memory with a fixed body: egclient
// over it runs its whole client path with no network.
type bodyRT struct{ body []byte }

func (b bodyRT) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{"X-Cache": {"hit"}, "X-Graph-Revision": {"1"}},
		Body: io.NopCloser(bytes.NewReader(b.body)), Request: r}, nil
}

// keyCosts replays, per cached hot key and transport, what a hit costs
// each layer: the qcache lookup, the server's encode and the client's
// decode, and egclient's allocations per query.
type keyCosts struct {
	lookup, encode, decode time.Duration
	allocs                 float64
}

func (r *run) replayKeyCosts(want map[int]interface{}) map[string]keyCosts {
	out := map[string]keyCosts{}
	cache := qcache.New(qcache.Options{Capacity: 1024})
	for _, q := range r.hot.refresh {
		v := want[q.key]
		key := q.cacheKey()
		cache.DoAt(1, key, func() (interface{}, error) { return v, nil })
		lookup := timeMedian(replayN, func() { cache.DoAt(1, key, nil) })
		for _, wire := range []bool{false, true} {
			var body []byte
			var encode time.Duration
			if wire {
				body, _ = json.Marshal(v)
				encode = timeMedian(replayN, func() { json.Marshal(v) })
			} else {
				var buf bytes.Buffer
				encodeHTTP(&buf, v)
				body = buf.Bytes()
				encode = timeMedian(replayN, func() { buf.Reset(); encodeHTTP(&buf, v) })
			}
			decode := timeMedian(replayN, func() { json.Unmarshal(body, newResp(q.endpoint)) })
			kc := keyCosts{lookup: lookup, encode: encode, decode: decode}
			if !wire {
				c := egclient.NewHTTP("http://replay", egclient.HTTPOptions{Client: &http.Client{Transport: bodyRT{body}}})
				kc.allocs = testing.AllocsPerRun(replayN, func() {
					c.Query(context.Background(), q.endpoint, q.params, newResp(q.endpoint))
				})
			}
			out[costKey(q.key, wire)] = kc
		}
	}
	return out
}

func costKey(key int, wire bool) string { return fmt.Sprintf("%d/%t", key, wire) }

// budgetLine is one transport's cache-hit budget at the p50.
type budgetLine struct {
	n                                 int
	client, decode, transport, serve  time.Duration
	lookup, encode, unattributed, rtt time.Duration
	bytesPerQuery                     float64
}

// budget splits the client-observed p50 of a transport's cache hits:
// client decode and server serve are medians over the hits (serve from
// the hooks, decode from the replayed cost of each hit's key), and
// transport is the rest, so the three sum to the p50. Serve splits the
// same way into the replayed qcache lookup and encode and the
// unattributed rest.
func budget(spans []hitSpan, costs map[string]keyCosts, wire bool, nbytes float64, queries int) budgetLine {
	var client, serve, decode, lookup, encode, rtt []time.Duration
	for _, s := range spans {
		kc := costs[costKey(s.q.key, wire)]
		client = append(client, s.client)
		serve = append(serve, s.serve)
		rtt = append(rtt, s.client-s.serve)
		decode = append(decode, kc.decode)
		lookup = append(lookup, kc.lookup)
		encode = append(encode, kc.encode)
	}
	b := budgetLine{n: len(spans), client: medianDur(client), serve: medianDur(serve), decode: medianDur(decode),
		lookup: medianDur(lookup), encode: medianDur(encode), rtt: medianDur(rtt)}
	b.transport = b.client - b.decode - b.serve
	b.unattributed = b.serve - b.lookup - b.encode
	if queries > 0 {
		b.bytesPerQuery = nbytes / float64(queries)
	}
	return b
}

// replayKernels times the analytics kernels on g, medians of reps runs.
func replayKernels(g *egraph.IntEvolvingGraph, closeRoots []egraph.TemporalNode, bfsRoots []egraph.TemporalNode, layer map[string]float64) {
	const reps = 3
	mode := egraph.CausalAllPairs
	kms := func(fn func()) float64 { runtime.GC(); return ms(timeMedian(reps, fn)) }
	layer["components.sizes_ms"] = kms(func() { components.SizeDistributionOpts(g, components.Options{Mode: mode}) })
	layer["metrics.efficiency_ms"] = kms(func() { metrics.GlobalEfficiencyOpts(g, metrics.Options{Mode: mode}) })
	layer["influence.greedy_ms"] = kms(func() { influence.Greedy(g, 5, influence.Options{Mode: mode}) })
	layer["rank.katz_ms"] = kms(func() { rank.TemporalKatz(g, rank.KatzOptions{Alpha: 0.05, Mode: mode}) })
	layer["components.strong_ms"] = kms(func() { components.StrongOpts(g, 2, components.Options{}) })
	var cl []time.Duration
	for _, root := range closeRoots {
		cl = append(cl, timeMedian(reps, func() { metrics.TemporalClosenessOpts(g, root, metrics.Options{Mode: mode}) }))
	}
	layer["metrics.closeness_us"] = us(medianDur(cl))
	var bfs []time.Duration
	reached := 0
	for _, root := range bfsRoots {
		bfs = append(bfs, timeMedian(replayN/10, func() { core.BFS(g, root, core.Options{Mode: mode}) }))
		if res, err := core.BFS(g, root, core.Options{Mode: mode}); err == nil {
			reached += res.NumReached()
		}
	}
	layer["core.bfs_us"] = us(medianDur(bfs))
	layer["core.bfs_reached"] = float64(reached) / float64(len(bfsRoots))
	layer["compute.active_roots"] = float64(g.NumActiveNodes())
	layer["compute.flat_arcs"] = float64(len(g.CSR().OutAdj))
	layer["components.sizes_ns_per_root"] = layer["components.sizes_ms"] * 1e6 / float64(g.NumActiveNodes())
}

// maxReplayEpochs bounds the write-path replay.
const (
	maxReplayEpochs = 40
	maxReplayCkpts  = 5
)

// replayWrites replays the run's epochs — the acknowledged batches
// grouped as the published revisions carried them — through the write
// path's layers from start: the WAL, egraph.Patch, the flat CSR build,
// inc.Maintainer.Apply and egio.WriteCheckpoint, then ingest.Recover of
// what the replay wrote.
func (r *run) replayWrites(start *egraph.IntEvolvingGraph, layer map[string]float64) error {
	pubs, _ := r.vis.snapshot()
	byIdx := map[int]ack{}
	for _, a := range r.acks {
		byIdx[a.idx] = a
	}
	dir, err := os.MkdirTemp(r.tmp, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	w, _, err := ingest.OpenWAL(filepath.Join(dir, "events.wal"), ingest.WALOptions{Policy: ingest.SyncInterval, Interval: 100 * time.Millisecond})
	if err != nil {
		return err
	}
	var walT, patchT, csrT, incT, ckptT []time.Duration
	m := inc.New(inc.Config{})
	m.Prime(start)
	g := start
	seqs := 0
	var ckptErr error
	for e, p := range pubs {
		if e >= maxReplayEpochs {
			break
		}
		var epoch []ack
		for _, i := range p.batches {
			if a, ok := byIdx[i]; ok {
				epoch = append(epoch, a)
			}
		}
		sort.Slice(epoch, func(i, j int) bool { return epoch[i].seq < epoch[j].seq })
		var events []ingest.Event
		for _, a := range epoch {
			b := a.b
			t0 := time.Now()
			seq, err := w.Append(b.events)
			if err == nil {
				err = w.Commit(seq)
			}
			if err != nil {
				w.Close()
				return err
			}
			walT = append(walT, time.Since(t0))
			seqs++
			events = append(events, b.events...)
		}
		if len(events) == 0 {
			continue
		}
		delta := ingest.Deltas(events)
		t0 := time.Now()
		next := egraph.Patch(g, delta)
		patchT = append(patchT, time.Since(t0))
		t0 = time.Now()
		next.EnsureCSR(egraph.CSRBuildOptions{})
		csrT = append(csrT, time.Since(t0))
		t0 = time.Now()
		m.Apply(g, next, delta)
		incT = append(incT, time.Since(t0))
		g = next
		if len(ckptT) < maxReplayCkpts {
			t0 = time.Now()
			_, err := egio.WriteCheckpoint(filepath.Join(dir, "events.wal.ckpt"), g,
				egio.CheckpointMeta{WALSeq: uint64(seqs), Labels: g.TimeLabels()})
			ckptT = append(ckptT, time.Since(t0))
			if err != nil {
				ckptErr = err
			}
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	if ckptErr != nil {
		return ckptErr
	}
	layer["ingest.wal_append_us"] = us(medianDur(walT))
	layer["egraph.patch_ms"] = ms(medianDur(patchT))
	layer["egraph.csr_build_ms"] = ms(medianDur(csrT))
	layer["inc.apply_ms"] = ms(medianDur(incT))
	layer["egio.checkpoint_ms"] = ms(medianDur(ckptT))
	if len(r.recovers) > 0 {
		// write-churn: the recoveries its set-ups timed.
		layer["ingest.recover_ms"] = ms(medianDur(r.recovers))
		return nil
	}
	var rec []time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		res, err := recoverDir(dir, func() (*egraph.IntEvolvingGraph, error) { return start, nil })
		if err != nil {
			return err
		}
		rec = append(rec, time.Since(t0))
		res.WAL.Close()
		res.CloseCheckpoint()
	}
	layer["ingest.recover_ms"] = ms(medianDur(rec))
	return nil
}

// traceLayers runs the traced probe and the replays and fills r.layer.
// start is the graph the stack booted with, where the write replay
// begins.
func (r *run) traceLayers(start *egraph.IntEvolvingGraph) error {
	layer := map[string]float64{}
	st := r.st
	cs := st.srv.CacheStats()
	if total := cs.Hits + cs.Misses + cs.Collapsed; total > 0 {
		layer["qcache.hit_rate"] = cs.HitRate()
	}
	pubs, recv := r.vis.snapshot()
	epochs := len(pubs)
	if epochs > 0 {
		layer["qcache.carried_per_epoch"] = float64(st.srv.CacheCarried()) / float64(epochs)
		events := 0
		for _, a := range r.acks {
			events += len(a.b.events)
		}
		layer["ingest.events_per_epoch"] = float64(events) / float64(epochs)
	}
	var pubD, lag []time.Duration
	pubStart := map[uint64]time.Time{}
	for _, p := range pubs {
		pubD = append(pubD, p.dur)
		pubStart[p.rev] = p.start
	}
	for _, fr := range recv {
		if t, ok := pubStart[fr.rev]; ok {
			lag = append(lag, fr.at.Sub(t))
		}
	}
	layer["ingest.publish_ms"] = ms(medianDur(pubD))
	layer["feed.lag_ms"] = ms(medianDur(lag))
	if r.writes > 0 {
		layer["ingest.throttled_frac"] = float64(r.refused) / float64(r.writes)
	}
	layer["runtime.gc_cpu_frac"] = r.phase.gcCPU
	layer["runtime.heap_peak_mb"] = float64(r.phase.heapPeak) / (1 << 20)
	if len(r.late) > 0 {
		layer["bench.sched_late_ms"] = tail(durs(r.late, ms), 99).Value
	}

	// The cache-hit probe and the replays of what a hit costs each layer.
	served := st.srv.Graph()
	want, err := expectAll(served, r.hot.refresh)
	if err != nil {
		return err
	}
	r.probe = r.probeHits()
	costs := r.replayKeyCosts(want)
	var all []hitSpan
	var decode, encode, lookup, serve, allocs []float64
	for _, wire := range []bool{false, true} {
		for _, s := range r.probe.spans[wire] {
			kc := costs[costKey(s.q.key, wire)]
			all = append(all, s)
			decode = append(decode, us(kc.decode))
			encode = append(encode, us(kc.encode))
			lookup = append(lookup, us(kc.lookup))
			serve = append(serve, us(s.serve))
			if !wire {
				allocs = append(allocs, kc.allocs)
			}
		}
	}
	if len(all) == 0 {
		return fmt.Errorf("traced probe saw no cache hits")
	}
	layer["egclient.decode_us"] = median(decode).Value
	layer["egclient.allocs_per_query"] = median(allocs).Value
	layer["server.serve_us"] = median(serve).Value
	layer["server.encode_us"] = median(encode).Value
	layer["qcache.lookup_us"] = median(lookup).Value
	layer["server.unattributed_us"] = layer["server.serve_us"] - layer["server.encode_us"] - layer["qcache.lookup_us"]
	for _, wire := range []bool{false, true} {
		b := budget(r.probe.spans[wire], costs, wire, r.probe.bytes[wire], r.probe.queries[wire])
		name := "http"
		if wire {
			name = "wire"
		}
		layer[name+".rtt_us"] = us(b.rtt)
		layer[name+".bytes_per_query"] = b.bytesPerQuery
		r.notes = append(r.notes, budgetText(name, b))
	}
	layer["bench.trace_overhead_frac"] = r.probe.overhead

	var closeRoots, bfsRoots []egraph.TemporalNode
	for _, q := range coldSet(r.hot) {
		if q.endpoint == "closeness" {
			closeRoots = append(closeRoots, tnParam(q))
		}
	}
	for _, q := range r.hot.point {
		if q.endpoint == "bfs" {
			bfsRoots = append(bfsRoots, tnParam(q))
		}
	}
	replayKernels(served, closeRoots, bfsRoots, layer)
	if err := r.replayWrites(start, layer); err != nil {
		return fmt.Errorf("write-path replay: %w", err)
	}
	r.layer = layer
	return nil
}

func budgetText(name string, b budgetLine) string {
	return fmt.Sprintf("%-4s cache-hit p50 %8.1fus = decode %6.1f + transport %6.1f + serve %6.1f (qcache %5.1f + encode %5.1f + unattributed %5.1f)  [n=%d hits, %.0f B/query]",
		name, us(b.client), us(b.decode), us(b.transport), us(b.serve), us(b.lookup), us(b.encode), us(b.unattributed), b.n, b.bytesPerQuery)
}

// corruptValue perturbs the first integer or float field reachable in
// v, depth first.
func corruptValue(v interface{}) bool {
	return corruptField(reflect.ValueOf(v))
}

func corruptField(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Ptr:
		return !v.IsNil() && corruptField(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if corruptField(v.Field(i)) {
				return true
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if corruptField(v.Index(i)) {
				return true
			}
		}
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
		return true
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
		return true
	}
	return false
}
