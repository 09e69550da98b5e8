// Command egserve serves an evolving graph over HTTP: the seed query
// endpoints (BFS distances, shortest temporal paths, reachability,
// forward neighbours, path-optimality criteria) plus the analytics
// layer (components, influence maximisation, closeness, efficiency,
// temporal Katz) behind a versioned result cache with singleflight
// collapse and a bounded in-flight computation gate. With -wal the
// server is live: POST /ingest/arcs appends durable mutation batches
// that an epoch compactor folds into fresh snapshots while reads keep
// flowing. See internal/server for the endpoint reference and
// DESIGN.md §10–11 for the serving architecture and the write path.
//
// Usage:
//
//	egserve [-addr :8080] [-graph edges.txt]
//	        [-nodes 1000] [-stamps 10] [-edges 10000] [-seed 42]
//	        [-cache 1024] [-inflight 0] [-workers 0]
//	        [-wal events.wal] [-fsync interval] [-fsync-interval 100ms]
//	        [-compact-every 4096] [-compact-interval 2s] [-max-pending 65536]
//	        [-checkpoint auto] [-checkpoint-every 8] [-checkpoint-interval 60s]
//	        [-inc=true] [-write-timeout 0] [-shutdown-timeout 10s]
//	        [-pprof localhost:6060] [-trace-sample 64] [-trace-slow 250ms]
//	        [-fault scenario] [-serve-stale]
//
// -fault arms the internal/fault injection sites (WAL append/fsync,
// checkpoint write/fsync/rename, wire accept/read/write, query
// compute) with a named scenario, a scenario file, or inline DSL text.
// A delay rule on a checkpoint site holds the write open at that point
// — -fault 'ckpt.write delay=2s' leaves a partial temp file for that
// long, -fault 'ckpt.rename delay=2s' a complete but unrenamed one —
// which is where crash tests SIGKILL the process. -serve-stale enables
// the degraded read mode that answers from the last good cached result
// (X-Cache: stale) when a compute fails server-side. A WAL disk-full
// or persistent fsync failure flips the process into read-only
// degraded mode: ingest answers 503 with Retry-After, reads keep
// serving, /healthz reports "degraded" and eg_degraded{}=1.
//
// The HTTP listener opens before recovery: /healthz answers 200
// immediately while /readyz stays 503 until the first graph installs
// (egload -waitReady polls it). /metrics.prom exposes the whole
// process — serve latency by endpoint × cache outcome × transport,
// per-stage epoch timings, feed lag, runtime gauges — as Prometheus
// text; /debug/traces dumps sampled and slow request traces; -pprof
// serves the Go profiler on its own port.
//
// Without -graph a random evolving graph is generated and served. With
// -wal the server boots recover-then-serve: it mmaps the newest valid
// checkpoint (-checkpoint; "auto" means <wal>.ckpt) and folds only the
// WAL tail past the checkpoint's covered sequence, falling back to the
// base graph plus a full replay when no checkpoint validates. Either
// path reproduces the pre-crash graph exactly; the compactor then
// persists fresh checkpoints every -checkpoint-every epochs or
// -checkpoint-interval, whichever comes first. The write endpoints
// accept new batches. The process shuts down gracefully on
// SIGINT/SIGTERM: the listener stops, in-flight requests get
// -shutdown-timeout to drain, pending events are folded, a final
// full-coverage checkpoint is written and the WAL is synced, then the
// process exits.
//
// Example session:
//
//	$ egserve -wal events.wal &
//	$ curl 'localhost:8080/stats'
//	$ printf '{"op":"stamp","t":11}\n{"op":"add","u":1,"v":2,"t":11}\n' | \
//	    curl -s -XPOST --data-binary @- 'localhost:8080/ingest/arcs'
//	$ curl 'localhost:8080/ingest/stats'
//	$ curl 'localhost:8080/components/weak'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	evolving "repro"
	"repro/internal/fault"
	"repro/internal/inc"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/server"
)

// swapHandler atomically swaps the whole HTTP surface: the listener
// opens before WAL recovery starts, serving a bootstrap handler whose
// /readyz answers 503 until the real server (first graph installed) is
// swapped in. Load balancers and egload -waitReady therefore measure
// restart-to-ready, while /healthz reports the process live the whole
// time.
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

func (s *swapHandler) swap(h http.Handler) { s.h.Store(&h) }

// The bootstrap surface itself lives in internal/server (Bootstrap):
// liveness yes, readiness no, everything else 503 + Retry-After —
// shared with the server package's Retry-After consistency tests.

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		wireAddr  = flag.String("wire-addr", "", "EGWP binary-protocol listen address (e.g. :8081); empty disables the second listener")
		graphPath = flag.String("graph", "", "edge-list file (default: random graph)")
		nodes     = flag.Int("nodes", 1_000, "random: node count")
		stamps    = flag.Int("stamps", 10, "random: stamp count")
		edges     = flag.Int("edges", 10_000, "random: static edge count")
		seed      = flag.Int64("seed", 42, "random: generator seed")

		cacheCap = flag.Int("cache", 1024, "analytics result-cache capacity (entries)")
		inflight = flag.Int("inflight", 0, "max concurrently computing expensive queries (0 = GOMAXPROCS)")
		workers  = flag.Int("workers", 0, "per-computation analytics fan-out (0 = GOMAXPROCS)")

		walPath         = flag.String("wal", "", "write-ahead log path; enables the ingest endpoints (recover-then-serve)")
		fsyncPolicy     = flag.String("fsync", "interval", "WAL fsync policy: always, interval or never")
		fsyncInterval   = flag.Duration("fsync-interval", 100*time.Millisecond, "WAL background fsync period (policy interval)")
		compactEvery    = flag.Int("compact-every", 4096, "fold the pending delta after this many events")
		compactInterval = flag.Duration("compact-interval", 2*time.Second, "fold any pending delta at least this often")
		maxPending      = flag.Int("max-pending", 1<<16, "pending-delta bound; writes beyond it get 429")
		checkpoint      = flag.String("checkpoint", "auto", `checkpoint file for O(1) warm restart: "auto" = <wal>.ckpt, "none" disables (needs -wal)`)
		checkpointEvery = flag.Int("checkpoint-every", 8, "persist a checkpoint after this many epochs")
		checkpointIval  = flag.Duration("checkpoint-interval", 60*time.Second, "persist a checkpoint at least this often when new batches were folded")
		faultSpec       = flag.String("fault", "", "fault-injection scenario: a named scenario (disk-full, fsync-stall, conn-flap, slow-compute), a scenario file, or inline text (internal/fault DSL); empty disables")
		serveStale      = flag.Bool("serve-stale", false, "degraded read mode: serve the last good cached answer (X-Cache: stale) when a compute fails server-side or its deadline budget runs out")
		incAnalytics    = flag.Bool("inc", true, "maintain weak components and temporal Katz incrementally across compactions; /components/weak and /katz serve the maintained results")

		writeTimeout    = flag.Duration("write-timeout", 0, "per-response write deadline (0 = none; cold analytics queries can be slow)")
		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")

		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
		traceSample = flag.Int("trace-sample", 0, "trace every Nth request into /debug/traces (0 = obs default 1/64, negative disables sampling)")
		traceSlow   = flag.Duration("trace-slow", 0, "retain traces slower than this in the slow ring (0 = obs default 250ms)")
	)
	flag.Parse()

	// One metric registry for the whole process: the server's families,
	// the write path's epoch-stage histograms, and the runtime gauges
	// all render through a single /metrics.prom scrape.
	reg := obs.NewRegistry()

	// One injector arms every site — WAL, checkpoint, wire, compute —
	// so a single -fault scenario exercises the whole process the way
	// the chaos soak does.
	var faults *fault.Injector
	if *faultSpec != "" {
		text := fault.Named(*faultSpec)
		if text == "" {
			if body, err := os.ReadFile(*faultSpec); err == nil {
				text = string(body)
			} else {
				text = *faultSpec // inline scenario text
			}
		}
		sc, err := fault.Parse(text)
		if err != nil {
			log.Fatalf("egserve: -fault %q: %v", *faultSpec, err)
		}
		faults = fault.New(sc)
		fmt.Printf("fault injection armed:\n%s", sc.String())
	}

	// Open the listener before recovery so restarts are observable:
	// /healthz answers immediately while /readyz stays 503 until the
	// first graph is installed.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("egserve: listen: %v", err)
	}
	boot := &swapHandler{}
	boot.swap(server.Bootstrap())
	srv := &http.Server{
		Handler: boot,
		// Slowloris protection on headers; write deadline is opt-in
		// because a cold all-sources analytics query may legitimately
		// outlive any fixed response budget.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Printf("listening on %s (recovering; /readyz 503 until the first graph installs)\n", *addr)

	if *pprofAddr != "" {
		// The profiler gets its own mux on its own listener: nothing
		// registers into http.DefaultServeMux, and the query port never
		// exposes profiling data.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				log.Printf("egserve: pprof: %v", err)
			}
		}()
		fmt.Printf("pprof on %s — go tool pprof http://%s/debug/pprof/heap\n", *pprofAddr, *pprofAddr)
	}

	// base lazily builds the seed graph the WAL was recorded against.
	// On a checkpoint boot it is never invoked: the mmap'd checkpoint
	// plus the WAL tail is the whole graph, so a warm restart skips
	// generation/parsing entirely.
	base := func() (*evolving.Graph, error) {
		if *graphPath != "" {
			f, err := os.Open(*graphPath)
			if err != nil {
				return nil, fmt.Errorf("open: %w", err)
			}
			defer f.Close()
			g, err := evolving.ReadEdgeList(f, true)
			if err != nil {
				return nil, fmt.Errorf("parse: %w", err)
			}
			return g, nil
		}
		g := evolving.Random(evolving.RandomConfig{
			Nodes: *nodes, Stamps: *stamps, Edges: *edges, Directed: true, Seed: *seed,
		})
		fmt.Printf("serving random graph: nodes=%d stamps=%d edges=%d seed=%d\n",
			*nodes, *stamps, *edges, *seed)
		return g, nil
	}

	ckptPath := ""
	if *walPath != "" {
		switch *checkpoint {
		case "", "none":
		case "auto":
			ckptPath = *walPath + ".ckpt"
		default:
			ckptPath = *checkpoint
		}
	}

	// Recover-then-serve: mmap the newest valid checkpoint and fold
	// only the WAL tail past its covered sequence; fall back to the
	// base graph plus a full replay when no checkpoint validates. The
	// mapping lives for the life of the process.
	var (
		g   *evolving.Graph
		wal *ingest.WAL
		res *ingest.RecoverResult
	)
	if *walPath != "" {
		policy, err := ingest.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			log.Fatalf("egserve: %v", err)
		}
		t0 := time.Now()
		res, err = ingest.Recover(ingest.RecoverConfig{
			WALPath:        *walPath,
			WALOptions:     ingest.WALOptions{Policy: policy, Interval: *fsyncInterval, Faults: faults},
			CheckpointPath: ckptPath,
			Base:           base,
			Logf: func(format string, args ...interface{}) {
				fmt.Printf(format+"\n", args...)
			},
		})
		if err != nil {
			log.Fatalf("egserve: %v", err)
		}
		g = res.Graph
		wal = res.WAL
		if res.Recovery.Torn {
			fmt.Printf("WAL %s: torn tail (%d bytes) truncated at the last complete record\n",
				*walPath, res.Recovery.TruncatedBytes)
		}
		fmt.Printf("recovered via %s in %s (%d nodes, %d stamps)\n",
			res.Path, time.Since(t0).Round(time.Millisecond), g.NumNodes(), g.NumStamps())
	} else {
		var err error
		g, err = base()
		if err != nil {
			log.Fatalf("egserve: %v", err)
		}
	}

	handler := server.New(g, server.Config{
		CacheCapacity: *cacheCap,
		MaxInFlight:   *inflight,
		Workers:       *workers,
		Registry:      reg,
		Trace:         obs.TracerOptions{SampleEvery: *traceSample, Slow: *traceSlow},
		Faults:        faults,
		ServeStale:    *serveStale,
	})
	var lg *ingest.Log
	if wal != nil {
		var maint *inc.Maintainer
		if *incAnalytics {
			maint = inc.New(inc.Config{})
		}
		var err error
		lg, err = ingest.New(handler, ingest.Config{
			WAL:             wal,
			Faults:          faults,
			CompactEvery:    *compactEvery,
			CompactInterval: *compactInterval,
			MaxPending:      *maxPending,
			Registry:        reg,
			// Labels the recovered stream mentioned stay writable even
			// when the fold dropped their stamps (e.g. all arcs
			// removed); on a checkpoint boot this is the checkpoint's
			// label set plus the tail's.
			ExtraLabels:         res.ExtraLabels,
			Analytics:           maint,
			CheckpointPath:      ckptPath,
			CheckpointEvery:     *checkpointEvery,
			CheckpointInterval:  *checkpointIval,
			LastCheckpointSeq:   res.CheckpointSeq,
			RecoverPath:         res.Path,
			TailRecordsReplayed: res.TailEvents,
		})
		if err != nil {
			log.Fatalf("egserve: %v", err)
		}
		handler.AttachIngest(lg)
		fmt.Printf("ingest enabled: wal=%s fsync=%s compact-every=%d compact-interval=%s checkpoint=%s inc=%t\n",
			*walPath, *fsyncPolicy, *compactEvery, *compactInterval, ckptPath, *incAnalytics)
	}
	// The first graph is installed: swap the real surface in. From here
	// /readyz answers 200 and every endpoint serves.
	boot.swap(handler)
	fmt.Printf("ready on %s — try /stats, /components/weak, /metrics.prom, /debug/traces\n", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The EGWP binary protocol listens on its own port: same queries,
	// same cache, plus pushed change-feed subscriptions (DESIGN.md §15).
	var wireLn net.Listener
	if *wireAddr != "" {
		var err error
		wireLn, err = net.Listen("tcp", *wireAddr)
		if err != nil {
			log.Fatalf("egserve: wire listen: %v", err)
		}
		go func() {
			if err := handler.ServeWire(wireLn); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("egserve: wire: %v", err)
			}
		}()
		fmt.Printf("wire protocol on %s — egclient.DialWire or egload -transport wire\n", *wireAddr)
	}

	select {
	case err := <-errCh:
		log.Fatalf("egserve: %v", err)
	case <-ctx.Done():
		stop()
		fmt.Println("\nshutting down (signal received)…")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Fatalf("egserve: shutdown: %v", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("egserve: %v", err)
		}
		if wireLn != nil {
			wireLn.Close()
		}
		// Closing the hub wakes every change-feed subscriber with a
		// terminal error before the process exits.
		handler.FeedHub().Close()
		if lg != nil {
			// Final fold + WAL sync so nothing acknowledged is lost.
			if err := lg.Close(); err != nil {
				log.Fatalf("egserve: closing ingest: %v", err)
			}
		}
		fmt.Println("drained; bye")
	}
}
