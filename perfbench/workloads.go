package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/egclient"
	"repro/internal/egio"
	"repro/internal/egraph"
	"repro/internal/ingest"
)

// Workload parameters. Rates are fixed, well below the capacity the
// closed-loop phases measure on two cores, so the open loops build no
// backlog and their latency tails come from the service, not a queue.
const (
	setupReps = 3

	hotRate     = 100.0 // hot-read open-loop reads per second
	hotOpenFrac = 0.55  // run shares of hot-read's phases
	hotLoopFrac = 0.2   // closed loop; the write probe takes the rest
	probeBatch  = 8     // events per write of the probe and of cold-analytics

	churnBatch     = 32                     // events per write-churn batch
	churnWriteRate = 10.0                   // batches per second
	churnReadRate  = 60.0                   // reads per second beside the writes
	refreshGap     = 250 * time.Millisecond // least spacing of write-churn's refresh rounds
	churnOpenFrac  = 0.8                    // open-loop share of the run; closed-loop reads take the rest
	churnLag       = 16                     // a removal takes back an add at least this many batches old
	churnPrepared  = 240                    // batches in the WAL recovery boots from
	churnCovered   = 200                    // of which the prepared checkpoint covers

	reqTimeout = 20 * time.Second
)

// Compaction trigger: every workload folds on a 10ms timer, with
// cmd/egserve's 4096-event size trigger left in place. Kicking an epoch
// from each write (CompactEvery = batch size) would make visibility pure
// pipeline work, but with the client in the same process the write's
// ack then races its own epoch: the single-threaded inc maintenance
// holds a CPU for ~13ms, and the client goroutine waiting for the ack
// sat in the run queue behind it often enough that ack latency flipped
// between ~0.6ms and several milliseconds from write to write (deciles
// 0.5–4.5ms, against 0.44–0.72ms with no epoch kicked). On the timer the
// epoch starts after the ack nine times in ten, and visibility is
// pipeline work plus at most 10ms of waiting for the tick.
const (
	compactEvery    = 4096
	compactInterval = 10 * time.Millisecond
)

// run is one benchmark run: its inputs, the stack under test and the
// samples it collects.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	corrupt  bool
	tmp      string

	hot hotSet
	st  *stack
	vis *visibility // the kept stack's; outlives it
	gen *batchGen

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
	wrong     bool

	setups    []time.Duration
	recovers  []time.Duration
	queryLat  []time.Duration
	late      []time.Duration
	readRates []float64 // closed-loop reads per second, one per window or round
	refresh   []time.Duration
	acks      []ack
	writes    int
	refused   int
	// timedUntil, when set, excludes writes due after it from the write
	// metrics.
	timedUntil time.Time
	probe      probeResult
	phase      phaseStats
	layer      map[string]float64
	notes      []string
}

// ack is one acknowledged write.
type ack struct {
	idx int
	seq uint64
	due time.Time
	at  time.Time
	lat time.Duration
	b   batch
}

func (r *run) problem(wrong bool, format string, args ...interface{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if wrong {
		r.wrong = true
	}
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// ask issues q and records the outcome: failures and answers that
// differ from want (when given) count against the run.
func (r *run) ask(ctx context.Context, q query, k int, want interface{}) (interface{}, egclient.Meta, bool) {
	r.attempt()
	resp, meta, err := r.st.ask(ctx, q, k)
	if err != nil {
		r.problem(false, "%s: %v", q, err)
		return nil, meta, false
	}
	return resp, meta, r.checkAnswer(q, resp, want)
}

func (r *run) checkAnswer(q query, got, want interface{}) bool {
	if want == nil {
		return true
	}
	if err := sameAnswer(got, want); err != nil {
		r.problem(true, "wrong answer to %s: %v", q, err)
		return false
	}
	return true
}

// write sends one batch; due is when it should have gone out, so the
// ack latency of an open-loop writer counts its queueing.
func (r *run) write(ctx context.Context, b batch, due time.Time) (int, bool) {
	idx := r.vis.sending(b)
	r.attempt()
	acc, err := r.st.hc.IngestArcs(ctx, b.events)
	at := time.Now()
	r.mu.Lock()
	r.writes++
	r.mu.Unlock()
	if err != nil {
		var re *egclient.RemoteError
		if errors.As(err, &re) && re.Code == egclient.CodeBackpressure {
			r.mu.Lock()
			r.refused++
			r.mu.Unlock()
		}
		r.problem(false, "write batch %d: %v", idx, err)
		return idx, false
	}
	r.mu.Lock()
	r.acks = append(r.acks, ack{idx: idx, seq: acc.Seq, due: due, at: at, lat: at.Sub(due), b: b})
	r.mu.Unlock()
	return idx, true
}

// ackedEvents returns the acknowledged events in WAL sequence order.
func (r *run) ackedEvents() []ingest.Event {
	acks := append([]ack(nil), r.acks...)
	sort.Slice(acks, func(i, j int) bool { return acks[i].seq < acks[j].seq })
	var out []ingest.Event
	for _, a := range acks {
		out = append(out, a.b.events...)
	}
	return out
}

// setup boots the stack setupReps times and keeps the last: set-up time
// is the median. prepare rebuilds, untimed, the inputs one boot
// consumes and returns the timed boot, so every boot pays the same work
// (lazy CSR builds and recovery included).
func (r *run) setup(prepare func(rep int) (func() (*stack, error), error), warm func(*stack) error) error {
	for rep := 0; rep < setupReps; rep++ {
		bootFn, err := prepare(rep)
		if err != nil {
			return err
		}
		start := time.Now()
		st, err := bootFn()
		if err != nil {
			return err
		}
		if err := warm(st); err != nil {
			st.close()
			return err
		}
		r.setups = append(r.setups, time.Since(start))
		if rep < setupReps-1 {
			if err := st.close(); err != nil {
				return fmt.Errorf("tearing down set-up %d: %w", rep, err)
			}
			// Collect the torn-down stack before the next boot, so the
			// process never holds two and the peak resident set is one
			// stack's.
			debug.FreeOSMemory()
			continue
		}
		r.st, r.vis = st, st.vis
	}
	return nil
}

// warmHot issues every hot key once over each transport it travels, so
// the cached keys are hits from the first measured request on.
func (r *run) warmHot(st *stack) error {
	qs := append(append(append([]query(nil), r.hot.point...), onWire(r.hot.refresh, false)...), onWire(r.hot.refresh, true)...)
	for k, q := range qs {
		ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
		_, _, err := st.ask(ctx, q, k)
		cancel()
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", q, err)
		}
	}
	return nil
}

// openReads runs seq as an open loop at rate for d, checking answers
// against want (nil: success only).
func (r *run) openReads(seq []query, rate float64, d time.Duration, want map[int]interface{}) {
	n := int(rate * d.Seconds())
	resps := make([]interface{}, n)
	ol := openLoop{clk: realClock{}, start: time.Now().Add(5 * time.Millisecond),
		interval: time.Duration(float64(time.Second) / rate), n: n, spawn: goSpawn}
	ol.after = func(k int) {
		if resps[k] != nil && want != nil {
			r.checkAnswer(seq[k], resps[k], want[seq[k].key])
		}
		resps[k] = nil
	}
	as := ol.run(func(k int) bool {
		ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
		defer cancel()
		r.attempt()
		resp, _, err := r.st.ask(ctx, seq[k], k)
		if err != nil {
			r.problem(false, "%s: %v", seq[k], err)
			return false
		}
		resps[k] = resp
		return true
	})
	lat, late, _ := latencies(as)
	r.mu.Lock()
	r.queryLat = append(r.queryLat, lat...)
	r.late = append(r.late, late...)
	r.mu.Unlock()
}

// closedReads measures read capacity: one worker per connection, each
// cycling through the cached-analytics keys over its transport and
// sending its next request when the last is answered. Throughput is
// taken per rateWindow, so one disturbed window moves the reported
// median rate little.
func (r *run) closedReads(d time.Duration, want map[int]interface{}) {
	nHTTP, nWire := connBudget()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	var done atomic.Int64
	worker := func(wire bool, conn int) {
		defer wg.Done()
		qs := onWire(r.hot.refresh, wire)
		for k := 0; time.Now().Before(deadline); k++ {
			q := qs[k%len(qs)]
			ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
			if _, _, ok := r.ask(ctx, q, conn, want[q.key]); ok {
				done.Add(1)
			}
			cancel()
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
	var rates []float64
	last, lastAt := int64(0), time.Now()
	for t := time.NewTicker(rateWindow); time.Now().Before(deadline); {
		now := <-t.C
		n := done.Load()
		rates = append(rates, float64(n-last)/now.Sub(lastAt).Seconds())
		last, lastAt = n, now
		if !now.Add(rateWindow).Before(deadline.Add(rateWindow / 2)) {
			t.Stop()
			break
		}
	}
	wg.Wait()
	if len(rates) == 0 { // a phase shorter than one window
		rates = append(rates, float64(done.Load())/time.Since(lastAt).Seconds())
	}
	r.mu.Lock()
	r.readRates = append(r.readRates, rates...)
	r.mu.Unlock()
}

// rateWindow is the span of one closed-loop throughput sample.
const rateWindow = 500 * time.Millisecond

// refreshRound re-reads qs after the feed event fe and records the time
// from the event to the last answer. Every answer must come from a
// revision at or after the event's.
func (r *run) refreshRound(qs []query, fe feedRecv, want map[int]interface{}) []interface{} {
	out := make([]interface{}, len(qs))
	for k, q := range qs {
		ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
		t0 := time.Now()
		resp, meta, ok := r.ask(ctx, q, k, want[q.key])
		cancel()
		if ok && q.miss {
			r.mu.Lock()
			r.queryLat = append(r.queryLat, time.Since(t0))
			r.mu.Unlock()
		}
		if ok && meta.Revision < fe.rev {
			r.problem(true, "%s answered from revision %d after revision %d was visible", q, meta.Revision, fe.rev)
		}
		out[k] = resp
	}
	r.mu.Lock()
	r.refresh = append(r.refresh, time.Since(fe.at))
	r.mu.Unlock()
	return out
}

// writeRounds writes one batch at a time until deadline (and at least
// minRounds), waits for its revision on the feed, then runs a refresh
// round of qs. It returns the answers of the first and last rounds and
// the number of batches each round had written.
func (r *run) writeRounds(qs []query, deadline time.Time, minRounds, size int) (first, last []interface{}, firstN, lastN int, err error) {
	for n := 0; n < minRounds || time.Now().Before(deadline); n++ {
		b := r.gen.next(size)
		// Each round starts on a collected heap, so the garbage of the
		// previous round's answers is not collected inside this one's
		// write and visibility spans.
		runtime.GC()
		ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
		idx, ok := r.write(ctx, b, time.Now())
		if !ok {
			cancel()
			continue
		}
		fe, err := r.vis.wait(ctx, idx)
		cancel()
		if err != nil {
			return nil, nil, 0, 0, err
		}
		ans := r.refreshRound(qs, fe, nil)
		if first == nil {
			first, firstN = ans, len(r.acks)
		}
		last, lastN = ans, len(r.acks)
	}
	return first, last, firstN, lastN, nil
}

// checkRound compares a round's answers with direct computation on the
// graph the first n acknowledged batches produce.
func (r *run) checkRound(base *egraph.IntEvolvingGraph, qs []query, answers []interface{}, n int) error {
	var evs []ingest.Event
	for _, a := range r.acks[:n] {
		evs = append(evs, a.b.events...)
	}
	g := ingest.Fold(base, evs)
	want, err := expectAll(g, qs)
	if err != nil {
		return err
	}
	r.corruptOnce(want)
	for k, q := range qs {
		if answers[k] != nil {
			r.checkAnswer(q, answers[k], want[q.key])
		}
	}
	return nil
}

// corruptOnce perturbs one expected answer when --corrupt-expected asks
// for it, to prove a wrong answer fails the run.
func (r *run) corruptOnce(want map[int]interface{}) {
	if !r.corrupt {
		return
	}
	keys := make([]int, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	corruptValue(want[keys[0]])
	r.corrupt = false
}

// hotRead: read-only traffic whose working set (the 32 hot keys) sits in
// qcache, as an open loop timed from due times, then a closed loop for
// capacity, then a short write probe that measures ingest, visibility
// and how long the hot analytics take to refresh after a write.
func (r *run) hotRead() error {
	var base *egraph.IntEvolvingGraph
	err := r.setup(func(int) (func() (*stack, error), error) {
		base = baseGraph(r.seed)
		r.hot = pickHotSet(base, r.seed)
		return func() (*stack, error) {
			return boot(stackConfig{graph: base, vis: newVisibility()})
		}, nil
	}, r.warmHot)
	if err != nil {
		return err
	}
	want, err := expectAll(base, append(append([]query(nil), r.hot.point...), r.hot.refresh...))
	if err != nil {
		return err
	}
	r.corruptOnce(want)
	r.gen = newBatchGen(base, subSeed(r.seed, streamWrites), churnLag)

	r.phase.begin()
	openD := time.Duration(hotOpenFrac * float64(r.seconds))
	seq := sequence(r.hot.mix(), int(hotRate*openD.Seconds())+1, subSeed(r.seed, streamMix))
	r.openReads(seq, hotRate, openD, want)
	r.closedReads(time.Duration(hotLoopFrac*float64(r.seconds)), want)

	stop, err := r.st.subscribe()
	if err != nil {
		return err
	}
	probeD := r.seconds - openD - time.Duration(hotLoopFrac*float64(r.seconds))
	_, last, _, lastN, err := r.writeRounds(onWire(r.hot.refresh, true), time.Now().Add(probeD), 2, probeBatch)
	stop()
	r.phase.end()
	if err != nil {
		return err
	}
	if r.trace {
		if err := r.traceLayers(r.st.start); err != nil {
			return err
		}
	}
	return r.checkRound(base, onWire(r.hot.refresh, true), last, lastN)
}

// coldAnalytics: one closed-loop client in serial rounds — land a small
// write, wait for its revision on the feed, then issue the all-pairs
// analytics set once. Every all-pairs answer misses the cache, so the
// kernels do nearly all the work.
func (r *run) coldAnalytics() error {
	var base *egraph.IntEvolvingGraph
	err := r.setup(func(int) (func() (*stack, error), error) {
		base = baseGraph(r.seed)
		r.hot = pickHotSet(base, r.seed)
		return func() (*stack, error) {
			return boot(stackConfig{graph: base, vis: newVisibility()})
		}, nil
	}, func(*stack) error { return nil })
	if err != nil {
		return err
	}
	r.gen = newBatchGen(base, subSeed(r.seed, streamWrites), churnLag)
	stop, err := r.st.subscribe()
	if err != nil {
		return err
	}
	qs := coldSet(r.hot)
	r.phase.begin()
	start := time.Now()
	first, last, firstN, lastN, err := r.writeRounds(qs, start.Add(r.seconds), 2, probeBatch)
	r.phase.end()
	stop()
	if err != nil {
		return err
	}
	// The analytics client's throughput, one sample per round.
	for _, d := range r.refresh {
		r.readRates = append(r.readRates, float64(len(qs))/d.Seconds())
	}
	if r.trace {
		if err := r.traceLayers(r.st.start); err != nil {
			return err
		}
	}
	if err := r.checkRound(base, qs, first, firstN); err != nil {
		return err
	}
	return r.checkRound(base, qs, last, lastN)
}

// writeChurn: writes beside reads. A WAL-backed pipeline (fsync policy
// interval, inc on, checkpoints every 8 epochs as cmd/egserve does)
// booted through ingest.Recover from a prepared WAL and checkpoint takes
// fixed-size NDJSON batches at a fixed rate while the hot-read mix runs
// at a lower rate and a refresher re-reads the hot analytics after each
// revision; the run ends with closed-loop reads under the same writes.
func (r *run) writeChurn() error {
	dir, err := os.MkdirTemp(r.tmp, "churn-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	base := baseGraph(r.seed)
	r.hot = pickHotSet(base, r.seed)
	prepGen := newBatchGen(base, subSeed(r.seed, streamWrites), churnLag)
	prepared := prepGen.take(churnPrepared, churnBatch)
	if err := prepareWAL(filepath.Join(dir, "prepared"), base, prepared); err != nil {
		return fmt.Errorf("preparing WAL: %w", err)
	}

	var live string
	err = r.setup(func(rep int) (func() (*stack, error), error) {
		live = filepath.Join(dir, fmt.Sprintf("boot%d", rep))
		if err := copyDir(filepath.Join(dir, "prepared"), live); err != nil {
			return nil, err
		}
		return func() (*stack, error) {
			start := time.Now()
			rec, err := recoverDir(live, func() (*egraph.IntEvolvingGraph, error) { return baseGraph(r.seed), nil })
			if err != nil {
				return nil, err
			}
			if rec.Path != "checkpoint" {
				return nil, fmt.Errorf("recovery took the %s path (%s), want checkpoint", rec.Path, rec.FallbackReason)
			}
			r.recovers = append(r.recovers, time.Since(start))
			return boot(stackConfig{recovered: rec, ckptPath: filepath.Join(live, "events.wal.ckpt"), vis: newVisibility()})
		}, nil
	}, r.warmHot)
	if err != nil {
		return err
	}
	served0 := r.st.start
	r.gen = prepGen

	stop, err := r.st.subscribe()
	if err != nil {
		return err
	}
	openD := time.Duration(churnOpenFrac * float64(r.seconds))
	nWrites := int(churnWriteRate * r.seconds.Seconds())
	batches := r.gen.take(nWrites, churnBatch)
	seq := sequence(r.hot.mix(), int(churnReadRate*openD.Seconds())+1, subSeed(r.seed, streamMix))

	r.phase.begin()
	var wg sync.WaitGroup
	wg.Add(3)
	// The writer keeps its rate for the whole run, but only writes due in
	// the open-loop phase are timed: in the closed-loop phase the readers
	// saturate the CPUs by design.
	writeStart := time.Now().Add(5 * time.Millisecond)
	r.timedUntil = writeStart.Add(openD)
	go func() {
		defer wg.Done()
		ol := openLoop{clk: realClock{}, start: writeStart,
			interval: time.Duration(float64(time.Second) / churnWriteRate), n: nWrites, spawn: goSpawn}
		ol.run(func(k int) bool {
			ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
			defer cancel()
			due := ol.start.Add(time.Duration(k) * ol.interval)
			_, ok := r.write(ctx, batches[k], due)
			return ok
		})
	}()
	refreshStop := make(chan struct{})
	go func() {
		defer wg.Done()
		r.openReads(seq, churnReadRate, openD, nil)
		close(refreshStop)
		r.closedReads(r.seconds-openD, nil)
	}()
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-refreshStop
			cancel()
		}()
		qs := onWire(r.hot.refresh, true)
		for i := -1; ; {
			var fe feedRecv
			var err error
			if i, fe, err = r.vis.latest(ctx, i); err != nil {
				return
			}
			r.refreshRound(qs, fe, nil)
			// At most one round per refreshGap: rounds of mostly cache
			// misses after every epoch would be the largest read load of
			// the workload, and its tails would follow any stall of the
			// machine. Revisions that arrive meanwhile are skipped, so the
			// next round is timed from a fresh event.
			select {
			case <-time.After(refreshGap):
			case <-ctx.Done():
				return
			}
			i = r.vis.events() - 1
		}
	}()
	wg.Wait()
	r.phase.end()

	// Drain: every acknowledged batch must become visible.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	for _, a := range r.acks {
		if _, err := r.vis.wait(ctx, a.idx); err != nil {
			cancel()
			stop()
			return err
		}
	}
	cancel()
	stop()
	if r.trace {
		if err := r.traceLayers(served0); err != nil {
			return err
		}
	}

	// The served graph is the fold of everything acknowledged.
	served := r.st.srv.Graph()
	oracle := ingest.Fold(base, append(eventsOf(prepared), r.ackedEvents()...))
	if err := sameGraph(served, oracle); err != nil {
		r.problem(true, "served graph differs from the fold of acknowledged writes: %v", err)
	}
	// The final revision's answers match direct computation.
	final := append(append([]query(nil), r.hot.point...), onWire(r.hot.refresh, true)...)
	want, err := expectAll(served, final)
	if err != nil {
		return err
	}
	r.corruptOnce(want)
	for k, q := range final {
		ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
		r.ask(ctx, q, k, want[q.key])
		cancel()
	}
	// A fresh recovery of the same WAL and checkpoint returns the same
	// graph.
	if err := r.st.close(); err != nil {
		return err
	}
	r.st = nil
	again, err := recoverDir(live, func() (*egraph.IntEvolvingGraph, error) { return baseGraph(r.seed), nil })
	if err != nil {
		return err
	}
	if err := sameGraph(again.Graph, served); err != nil {
		r.problem(true, "fresh recovery differs from the served graph: %v", err)
	}
	again.WAL.Close()
	return again.CloseCheckpoint()
}

// prepareWAL writes the history write-churn boots from: every prepared
// batch in the WAL, and a checkpoint covering the first churnCovered of
// them, so recovery mmaps the checkpoint and patches a WAL tail.
func prepareWAL(dir string, base *egraph.IntEvolvingGraph, prepared []batch) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w, _, err := ingest.OpenWAL(filepath.Join(dir, "events.wal"), ingest.WALOptions{Policy: ingest.SyncNever})
	if err != nil {
		return err
	}
	for _, b := range prepared {
		seq, err := w.Append(b.events)
		if err != nil {
			w.Close()
			return err
		}
		if err := w.Commit(seq); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	covered := ingest.Fold(base, eventsOf(prepared[:churnCovered]))
	_, err = egio.WriteCheckpoint(filepath.Join(dir, "events.wal.ckpt"), covered,
		egio.CheckpointMeta{WALSeq: churnCovered, Labels: base.TimeLabels()})
	return err
}

// recoverDir boots a WAL and checkpoint the way cmd/egserve does:
// fsync policy interval at its default 100ms period.
func recoverDir(dir string, base func() (*egraph.IntEvolvingGraph, error)) (*ingest.RecoverResult, error) {
	return ingest.Recover(ingest.RecoverConfig{
		WALPath:        filepath.Join(dir, "events.wal"),
		WALOptions:     ingest.WALOptions{Policy: ingest.SyncInterval, Interval: 100 * time.Millisecond},
		CheckpointPath: filepath.Join(dir, "events.wal.ckpt"),
		Base:           base,
	})
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
