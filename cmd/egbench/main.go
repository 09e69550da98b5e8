// Command egbench regenerates the paper's Figure 5: wall-clock time of
// Algorithm 1 against the number of static edges |Ẽ| on random evolving
// graphs, plus a least-squares check of the linear shape (Theorem 2).
//
// The paper's run used 10⁵ active nodes, 10 stamps and |Ẽ| from ~1×10⁸
// to ~5×10⁸ on one core of a 1 TB Xeon box. Defaults here are laptop
// sized; raise -edges to approach the paper's scale if you have the RAM.
//
// With -compare the harness instead races the CSR/bitset engine
// (DESIGN.md §8) against the adjacency-map oracles — core.ReferenceBFS
// and the Reference* functions of internal/components, influence and
// metrics, the "maps" rows — across the suites named by -suites:
//
//   - bfs: single-source BFS (plus the parallel CSR engine) on the
//     generator workloads named by -workloads;
//   - components: components.SizeDistribution — one BFS per active
//     temporal node, fanned across workers on the CSR engine;
//   - influence: influence.Greedy seed selection (k=5, CELF) with
//     concurrent CSR reach-set evaluation;
//   - closeness: metrics.GlobalEfficiency — the all-pairs efficiency
//     sweep;
//   - compact: epoch-compaction latency vs delta size — the
//     incremental copy-on-write PatchEvents + parallel arena-reused
//     CSR build (engine "patch") raced against the full FoldEvents
//     rebuild + sequential build (engine "fold", the seed behaviour)
//     on a -compactNodes/-compactEdges base graph, one row pair per
//     -compactDeltas entry, with a bit-identical-graph assertion
//     before any time is reported;
//   - csr: flat-CSR build time, sequential (engine "csr-seq") vs
//     parallel with arena reuse (engine "csr-par"), on the same base
//     graph, asserting bit-identical views;
//   - inc: incrementally maintained analytics (internal/inc) — the
//     maintainer rolling weak components and both causal modes'
//     temporal Katz across chained epochs of -compactDeltas events
//     (engine "inc") raced against the verbatim full recomputations
//     those analytics would otherwise cost per epoch (engine "full"),
//     on the same -compactNodes/-compactEdges base, with per-epoch
//     oracle-equivalence assertions before any time is reported;
//   - recover: warm-restart latency — booting to a query-ready graph
//     through the mmap'd checkpoint plus a WAL-tail fold (engine
//     "ckpt") raced against the full replay the seed performed
//     (engine "replay"), one row pair per -compactDeltas tail size on
//     the same base graph, with a bit-identical-graph assertion
//     before any time is reported.
//
// The analytics suites run on a random-workload ladder sized by
// -suiteNodes/-suiteEdges (they cost one BFS per active temporal node
// per engine, so they use smaller graphs than the bfs suite). Engine
// outputs are checked for equality before any time is reported.
//
// -json FILE writes every measurement (either mode) as a JSON array so
// results can be tracked across runs. -failBelow X is the CI
// regression gate: with -compare it exits non-zero if the new engine's
// speedup over its oracle (csr vs maps, patch vs fold, csr-par vs
// csr-seq) at the largest graph of any workload falls below X
// (cross-engine result mismatches always abort).
//
// Usage:
//
//	egbench [-nodes 100000] [-stamps 10] [-edges 500000,1000000,...]
//	        [-seed 2016] [-reps 3] [-parallel] [-workers N]
//	        [-compare] [-suites bfs,components,influence,closeness,compact,csr,inc,recover]
//	        [-workloads random,citation,gnp,pref]
//	        [-suiteNodes 500] [-suiteEdges 5000,10000,20000,40000]
//	        [-compactNodes 100000] [-compactEdges 1000000]
//	        [-compactDeltas 10,1000,100000] [-incAlpha 0.005] [-json FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	evolving "repro"
	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/influence"
	"repro/internal/metrics"
)

// record is one measurement row of the BENCH json.
type record struct {
	Workload      string  `json:"workload"`
	Graph         string  `json:"graph"`
	Engine        string  `json:"engine"`
	Nodes         int     `json:"nodes"`
	Stamps        int     `json:"stamps"`
	StaticEdges   int     `json:"staticEdges"`
	UnfoldedEdges int     `json:"unfoldedEdges"`
	Reached       int     `json:"reached"`
	DeltaEvents   int     `json:"deltaEvents,omitempty"` // compact suite: events per epoch
	NS            int64   `json:"ns"`
	SpeedupVsMaps float64 `json:"speedupVsMaps,omitempty"` // speedup vs the row's oracle engine
}

func main() {
	var (
		nodes    = flag.Int("nodes", 10_000, "node-id space (paper: 1e5 at ~1000 edges/node; default shrunk to stay supercritical at laptop edge counts)")
		stamps   = flag.Int("stamps", 10, "time stamps (paper: 10)")
		edgeList = flag.String("edges", "500000,1000000,2000000,3000000,4000000",
			"comma-separated |E~| sweep (paper: 1e8..5e8)")
		seed          = flag.Int64("seed", 2016, "generator seed")
		reps          = flag.Int("reps", 3, "timing repetitions per size (min is reported)")
		parallel      = flag.Bool("parallel", false, "time the parallel BFS instead (Figure 5 mode)")
		workers       = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		compare       = flag.Bool("compare", false, "race the CSR/bitset engine against the adjacency-map oracle")
		suites        = flag.String("suites", "bfs,components,influence,closeness", "comma-separated -compare suites: bfs, components, influence, closeness, compact, csr, inc, recover")
		workloads     = flag.String("workloads", "random,citation", "comma-separated workloads for the bfs suite: random, citation, gnp, pref")
		suiteNodes    = flag.Int("suiteNodes", 500, "node-id space of the analytics-suite workload ladder")
		suiteEdges    = flag.String("suiteEdges", "5000,10000,20000,40000", "comma-separated |E~| ladder for the analytics suites")
		compactNodes  = flag.Int("compactNodes", 100_000, "node-id space of the compact/csr suites' base graph")
		compactEdges  = flag.Int("compactEdges", 1_000_000, "static edges of the compact/csr suites' base graph")
		compactDeltas = flag.String("compactDeltas", "10,1000,100000", "comma-separated delta sizes (events per epoch) for the compact and inc suites")
		incAlpha      = flag.Float64("incAlpha", 0.005, "inc suite: Katz attenuation factor (must converge on the base graph)")
		jsonPath      = flag.String("json", "", "write measurements to FILE as a JSON array")
		failBelow     = flag.Float64("failBelow", 0, "with -compare: exit 1 if a gated engine's speedup vs its oracle at the largest graph of any workload falls below this (0 disables) — the CI regression gate")
	)
	flag.Parse()
	if *reps < 1 {
		fmt.Fprintf(os.Stderr, "egbench: -reps must be at least 1, got %d\n", *reps)
		os.Exit(2)
	}

	var records []record
	if *compare {
		for _, s := range strings.Split(*suites, ",") {
			switch s = strings.TrimSpace(s); s {
			case "bfs":
				records = append(records, runCompare(*workloads, *nodes, *stamps, *edgeList, *seed, *reps, *workers)...)
			case "components", "influence", "closeness":
				records = append(records, runAnalyticsSuite(s, *suiteNodes, *stamps, *suiteEdges, *seed, *reps, *workers)...)
			case "compact":
				records = append(records, runCompactSuite(*compactNodes, *stamps, *compactEdges, *compactDeltas, *seed, *reps, *workers)...)
			case "csr":
				records = append(records, runCSRSuite(*compactNodes, *stamps, *compactEdges, *seed, *reps, *workers)...)
			case "inc":
				records = append(records, runIncSuite(*compactNodes, *stamps, *compactEdges, *compactDeltas, *incAlpha, *seed, *reps, *workers)...)
			case "recover":
				records = append(records, runRecoverSuite(*compactNodes, *stamps, *compactEdges, *compactDeltas, *seed, *reps)...)
			default:
				fmt.Fprintf(os.Stderr, "egbench: unknown suite %q (bfs, components, influence, closeness, compact, csr, inc, recover)\n", s)
				os.Exit(2)
			}
		}
	} else {
		var err error
		records, err = runFigure5(*nodes, *stamps, *edgeList, *seed, *reps, *parallel, *workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "egbench: %v\n", err)
			os.Exit(2)
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, records); err != nil {
			fmt.Fprintf(os.Stderr, "egbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d measurements to %s\n", len(records), *jsonPath)
	}
	if *compare && *failBelow > 0 {
		if failures := checkRegression(records, *failBelow); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "egbench: REGRESSION: %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Printf("regression gate: every gated engine ≥ %.2fx vs its oracle at the largest graph of every workload\n", *failBelow)
	}
}

// gatedEngines names the engines -failBelow gates, each against the
// oracle its SpeedupVsMaps field was computed from: csr vs the
// adjacency-map oracle, patch vs the full fold rebuild, csr-par vs the
// sequential CSR build.
var gatedEngines = map[string]string{
	"csr":     "maps oracle",
	"patch":   "fold oracle",
	"csr-par": "sequential build",
	"inc":     "full recompute",
	"ckpt":    "full replay",
}

// checkRegression enforces the CI perf gate: at the largest graph of
// every compared workload each gated engine must beat its oracle by at
// least threshold. Only the largest size counts — small graphs are
// noise-dominated on shared runners. (Cross-engine result mismatches
// already abort before any record is emitted.)
func checkRegression(records []record, threshold float64) []string {
	largest := make(map[string]record)
	for _, r := range records {
		if _, gated := gatedEngines[r.Engine]; !gated {
			continue
		}
		if best, ok := largest[r.Workload]; !ok || r.StaticEdges > best.StaticEdges {
			largest[r.Workload] = r
		}
	}
	var failures []string
	for _, r := range largest {
		if r.SpeedupVsMaps < threshold {
			failures = append(failures, fmt.Sprintf(
				"%s (%s, |E~|=%d): %s speedup %.2fx < %.2fx vs %s",
				r.Workload, r.Graph, r.StaticEdges, r.Engine, r.SpeedupVsMaps,
				threshold, gatedEngines[r.Engine]))
		}
	}
	sort.Strings(failures)
	return failures
}

// runFigure5 is the paper's scaling experiment over the random workload.
func runFigure5(nodes, stamps int, edgeList string, seed int64, reps int, parallel bool, workers int) ([]record, error) {
	counts, err := parseCounts(edgeList)
	if err != nil {
		return nil, err
	}

	engine := "csr"
	if parallel {
		engine = "csr-parallel"
	}
	fmt.Printf("# Figure 5 harness: %d nodes, %d stamps, seed %d, %d reps (min reported), engine %s\n",
		nodes, stamps, seed, reps, engine)
	if parallel {
		fmt.Printf("# parallel BFS, workers=%d\n", workers)
	}
	fmt.Printf("%14s %14s %14s %12s %14s\n", "|E~| requested", "|E~| built", "|E| unfolded", "time", "ns/|E~|")

	series := evolving.RandomSeries(nodes, stamps, counts, true, seed)
	var records []record
	xs := make([]float64, 0, len(series))
	ys := make([]float64, 0, len(series))
	for i, g := range series {
		root := evolving.TemporalNode{Node: int32(g.ActiveNodes(0).NextSet(0)), Stamp: 0}
		bfs := func() (*evolving.Result, error) { return evolving.BFS(g, root, evolving.Options{}) }
		if parallel {
			bfs = func() (*evolving.Result, error) {
				return evolving.ParallelBFS(g, root, evolving.ParallelOptions{Workers: workers})
			}
		}
		best, reached, err := timeBFS(reps, bfs)
		if err != nil {
			return nil, fmt.Errorf("BFS: %v", err)
		}
		built := g.StaticEdgeCount()
		unfolded := g.EdgeCount(evolving.CausalAllPairs)
		fmt.Printf("%14d %14d %14d %12s %14.2f   # reached %d\n",
			counts[i], built, unfolded, best.Round(time.Microsecond),
			float64(best.Nanoseconds())/float64(built), reached)
		xs = append(xs, float64(built))
		ys = append(ys, float64(best.Nanoseconds()))
		records = append(records, record{
			Workload: "random", Graph: fmt.Sprintf("random-%d", counts[i]), Engine: engine,
			Nodes: g.NumNodes(), Stamps: g.NumStamps(), StaticEdges: built,
			UnfoldedEdges: unfolded, Reached: reached, NS: best.Nanoseconds(),
		})
	}

	slope, intercept, r2 := leastSquares(xs, ys)
	fmt.Println()
	fmt.Printf("least-squares fit: time ≈ %.3f ns/edge · |E~| + %.2f ms   (R² = %.4f)\n",
		slope, intercept/1e6, r2)
	if r2 > 0.95 {
		fmt.Println("VERDICT: linear scaling in |E~| (the shape of the paper's Figure 5) HOLDS")
	} else {
		fmt.Println("VERDICT: linear fit is poor — investigate (R² ≤ 0.95)")
	}
	return records, nil
}

// namedGraph is one graph of a comparison workload.
type namedGraph struct {
	name string
	g    *evolving.Graph
}

// runCompare races adjacency-map, CSR and parallel-CSR engines on each
// workload graph.
func runCompare(workloads string, nodes, stamps int, edgeList string, seed int64, reps, workers int) []record {
	counts, err := parseCounts(edgeList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "egbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("# engine comparison: %d reps (min reported), workers=%d (0 = GOMAXPROCS)\n", reps, workers)
	fmt.Printf("%-24s %-14s %14s %14s %12s %10s\n", "graph", "engine", "|E~|", "reached", "time", "speedup")

	var records []record
	for _, w := range strings.Split(workloads, ",") {
		w = strings.TrimSpace(w)
		graphs, err := buildWorkload(w, nodes, stamps, counts, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "egbench: %v\n", err)
			os.Exit(2)
		}
		for _, ng := range graphs {
			g := ng.g
			var root evolving.TemporalNode
			found := false
			for t := 0; t < g.NumStamps() && !found; t++ {
				if v := g.ActiveNodes(t).NextSet(0); v >= 0 {
					root = evolving.TemporalNode{Node: int32(v), Stamp: int32(t)}
					found = true
				}
			}
			if !found {
				continue
			}
			built := g.StaticEdgeCount()
			unfolded := g.EdgeCount(evolving.CausalAllPairs)

			mapsBest, reached, err := timeBFS(reps, func() (*evolving.Result, error) {
				return core.ReferenceBFS(g, []evolving.TemporalNode{root}, evolving.Options{})
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "egbench: %s: %v\n", ng.name, err)
				os.Exit(1)
			}
			csrBest, csrReached, err := timeBFS(reps, func() (*evolving.Result, error) {
				return evolving.BFS(g, root, evolving.Options{})
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "egbench: %s: csr: %v\n", ng.name, err)
				os.Exit(1)
			}
			parBest, parReached, err := timeBFS(reps, func() (*evolving.Result, error) {
				return evolving.ParallelBFS(g, root, evolving.ParallelOptions{Workers: workers})
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "egbench: %s: csr-parallel: %v\n", ng.name, err)
				os.Exit(1)
			}
			// The engines must agree before their times mean anything.
			if csrReached != reached || parReached != reached {
				fmt.Fprintf(os.Stderr, "egbench: %s: engines disagree: maps reached %d, csr %d, csr-parallel %d\n",
					ng.name, reached, csrReached, parReached)
				os.Exit(1)
			}

			row := func(engine string, d time.Duration) {
				speedup := float64(mapsBest.Nanoseconds()) / float64(d.Nanoseconds())
				fmt.Printf("%-24s %-14s %14d %14d %12s %9.2fx\n",
					ng.name, engine, built, reached, d.Round(time.Microsecond), speedup)
				records = append(records, record{
					Workload: w, Graph: ng.name, Engine: engine,
					Nodes: g.NumNodes(), Stamps: g.NumStamps(), StaticEdges: built,
					UnfoldedEdges: unfolded, Reached: reached, NS: d.Nanoseconds(),
					SpeedupVsMaps: speedup,
				})
			}
			row("maps", mapsBest)
			row("csr", csrBest)
			row("csr-parallel", parBest)
		}
	}
	return records
}

// runAnalyticsSuite races one CSR-backed analytics computation against
// its adjacency-map oracle across the random-workload ladder. Engine
// outputs are checked for equality before timing is reported.
//
// The comparison is end-to-end: the maps rows time the sequential
// pre-CSR implementation, the csr rows the current default (CSR
// traversal plus the -workers fan-out where the entry point has one).
// On a single core the speedup isolates the engine; on multiple cores
// it additionally includes the fan-out.
func runAnalyticsSuite(name string, nodes, stamps int, edgeList string, seed int64, reps, workers int) []record {
	counts, err := parseCounts(edgeList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "egbench: %v\n", err)
		os.Exit(2)
	}
	// run evaluates the suite computation on one engine and returns a
	// result for the equality check plus a headline count for the table.
	var run func(g *evolving.Graph, oracle bool) (result interface{}, count int)
	switch name {
	case "components":
		run = func(g *evolving.Graph, oracle bool) (interface{}, int) {
			var sizes []int
			if oracle {
				sizes = components.ReferenceSizeDistribution(g, evolving.CausalAllPairs)
			} else {
				sizes = evolving.ComponentSizeDistribution(g, evolving.ComponentOptions{Workers: workers})
			}
			return sizes, len(sizes)
		}
	case "influence":
		run = func(g *evolving.Graph, oracle bool) (interface{}, int) {
			greedy := evolving.GreedyInfluence
			if oracle {
				greedy = influence.ReferenceGreedy
			}
			seeds, err := greedy(g, 5, evolving.InfluenceOptions{Workers: workers})
			if err != nil {
				fmt.Fprintf(os.Stderr, "egbench: influence: %v\n", err)
				os.Exit(1)
			}
			covered := 0
			if len(seeds) > 0 {
				covered = seeds[len(seeds)-1].Covered
			}
			return seeds, covered
		}
	case "closeness":
		run = func(g *evolving.Graph, oracle bool) (interface{}, int) {
			var st evolving.EfficiencyStats
			if oracle {
				st = metrics.ReferenceEfficiency(g, evolving.CausalAllPairs)
			} else {
				st = evolving.GlobalEfficiencyOpts(g, evolving.MetricOptions{Workers: workers})
			}
			return st, st.Diameter
		}
	}

	fmt.Printf("\n# %s suite: %d nodes, %d stamps, %d reps (min reported), csr workers=%d (0 = GOMAXPROCS; maps rows are the sequential oracle)\n",
		name, nodes, stamps, reps, workers)
	fmt.Printf("%-24s %-14s %14s %14s %12s %10s\n", "graph", "engine", "|E~|", "result", "time", "speedup")

	var records []record
	series := evolving.RandomSeries(nodes, stamps, counts, true, seed)
	for i, g := range series {
		graph := fmt.Sprintf("random-%d", counts[i])
		built := g.StaticEdgeCount()
		unfolded := g.EdgeCount(evolving.CausalAllPairs)

		// The engines must agree before their times mean anything.
		csrResult, count := run(g, false)
		mapsResult, _ := run(g, true)
		if !reflect.DeepEqual(csrResult, mapsResult) {
			fmt.Fprintf(os.Stderr, "egbench: %s %s: engines disagree:\ncsr  %v\nmaps %v\n",
				name, graph, csrResult, mapsResult)
			os.Exit(1)
		}

		mapsBest := timeRuns(reps, func() { run(g, true) })
		csrBest := timeRuns(reps, func() { run(g, false) })
		row := func(engine string, d time.Duration) {
			speedup := float64(mapsBest.Nanoseconds()) / float64(d.Nanoseconds())
			fmt.Printf("%-24s %-14s %14d %14d %12s %9.2fx\n",
				graph, engine, built, count, d.Round(time.Microsecond), speedup)
			records = append(records, record{
				Workload: name, Graph: graph, Engine: engine,
				Nodes: g.NumNodes(), Stamps: g.NumStamps(), StaticEdges: built,
				UnfoldedEdges: unfolded, Reached: count, NS: d.Nanoseconds(),
				SpeedupVsMaps: speedup,
			})
		}
		row("maps", mapsBest)
		row("csr", csrBest)
	}
	return records
}

// runCompactSuite races one epoch of the ingest compactor per delta
// size: the incremental PatchEvents fold plus a parallel arena-reused
// CSR build ("patch") against the seed behaviour — FoldEvents full
// rebuild plus a sequential CSR build ("fold"). Both paths must
// produce bit-identical graphs (flat views compared byte for byte)
// before any time is reported; the patch rows carry speedup vs fold
// and are gated by -failBelow.
func runCompactSuite(nodes, stamps, edges int, deltaList string, seed int64, reps, workers int) []record {
	deltas, err := parseCounts(deltaList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "egbench: -compactDeltas: %v\n", err)
		os.Exit(2)
	}
	base := evolving.Random(evolving.RandomConfig{
		Nodes: nodes, Stamps: stamps, Edges: edges, Directed: true, Seed: seed,
	})
	built := base.StaticEdgeCount()
	unfolded := base.EdgeCount(evolving.CausalAllPairs)
	fmt.Printf("\n# compact suite: epoch latency vs delta size on a %d-node / %d-arc / %d-stamp base, %d reps (min reported), csr workers=%d (0 = GOMAXPROCS)\n",
		base.NumNodes(), built, base.NumStamps(), reps, workers)
	fmt.Printf("%-24s %-14s %14s %14s %12s %10s\n", "graph", "engine", "|E~|", "delta", "time", "speedup")

	var records []record
	for _, k := range deltas {
		events := genCompactEvents(base, k, seed)
		// Bit-identical-graph assertion: the two fold paths and the two
		// build paths must agree exactly before their times mean anything.
		foldG := evolving.FoldEvents(base, events)
		patchG := evolving.PatchEvents(base, events)
		if err := graphsBitIdentical(foldG, patchG); err != nil {
			fmt.Fprintf(os.Stderr, "egbench: compact delta-%d: patch diverged from fold oracle: %v\n", k, err)
			os.Exit(1)
		}

		foldBest := timeRuns(reps, func() {
			g := evolving.FoldEvents(base, events)
			evolving.BuildFlatCSR(g, evolving.CSRBuildOptions{Workers: 1})
		})
		var arena *evolving.CSRArena
		patchBest := timeRuns(reps, func() {
			g := evolving.PatchEvents(base, events)
			c := evolving.BuildFlatCSR(g, evolving.CSRBuildOptions{Workers: workers, Arena: arena})
			arena = c.Recycle() // steady state: every epoch rebuilds into the retiring buffers
		})

		graph := fmt.Sprintf("delta-%d", k)
		row := func(engine string, d time.Duration) {
			speedup := float64(foldBest.Nanoseconds()) / float64(d.Nanoseconds())
			fmt.Printf("%-24s %-14s %14d %14d %12s %9.2fx\n",
				graph, engine, built, len(events), d.Round(time.Microsecond), speedup)
			records = append(records, record{
				Workload: fmt.Sprintf("compact-%d", k), Graph: graph, Engine: engine,
				Nodes: base.NumNodes(), Stamps: base.NumStamps(), StaticEdges: built,
				UnfoldedEdges: unfolded, DeltaEvents: len(events), NS: d.Nanoseconds(),
				SpeedupVsMaps: speedup,
			})
		}
		row("fold", foldBest)
		row("patch", patchBest)
	}
	return records
}

// runCSRSuite races the flat-CSR build sequential vs parallel (with
// arena reuse) on the compact suite's base graph, asserting the views
// come out bit-identical.
func runCSRSuite(nodes, stamps, edges int, seed int64, reps, workers int) []record {
	base := evolving.Random(evolving.RandomConfig{
		Nodes: nodes, Stamps: stamps, Edges: edges, Directed: true, Seed: seed,
	})
	built := base.StaticEdgeCount()
	unfolded := base.EdgeCount(evolving.CausalAllPairs)
	fmt.Printf("\n# csr suite: flat-view build on a %d-node / %d-arc / %d-stamp graph, %d reps (min reported), workers=%d (0 = GOMAXPROCS)\n",
		base.NumNodes(), built, base.NumStamps(), reps, workers)
	fmt.Printf("%-24s %-14s %14s %14s %12s %10s\n", "graph", "engine", "|E~|", "ids", "time", "speedup")

	seq := evolving.BuildFlatCSR(base, evolving.CSRBuildOptions{Workers: 1})
	par := evolving.BuildFlatCSR(base, evolving.CSRBuildOptions{Workers: workers})
	if !reflect.DeepEqual(seq, par) {
		fmt.Fprintln(os.Stderr, "egbench: csr: parallel build differs from sequential")
		os.Exit(1)
	}
	seqBest := timeRuns(reps, func() {
		evolving.BuildFlatCSR(base, evolving.CSRBuildOptions{Workers: 1})
	})
	var arena *evolving.CSRArena
	parBest := timeRuns(reps, func() {
		c := evolving.BuildFlatCSR(base, evolving.CSRBuildOptions{Workers: workers, Arena: arena})
		arena = c.Recycle()
	})

	graph := fmt.Sprintf("random-%d", built)
	var records []record
	row := func(engine string, d time.Duration) {
		speedup := float64(seqBest.Nanoseconds()) / float64(d.Nanoseconds())
		fmt.Printf("%-24s %-14s %14d %14d %12s %9.2fx\n",
			graph, engine, built, seq.Size(), d.Round(time.Microsecond), speedup)
		records = append(records, record{
			Workload: "csr", Graph: graph, Engine: engine,
			Nodes: base.NumNodes(), Stamps: base.NumStamps(), StaticEdges: built,
			UnfoldedEdges: unfolded, Reached: seq.Size(), NS: d.Nanoseconds(),
			SpeedupVsMaps: speedup,
		})
	}
	row("csr-seq", seqBest)
	row("csr-par", parBest)
	return records
}

// runIncSuite races the incrementally maintained analytics
// (internal/inc) against the verbatim full recomputations they
// replace. Per delta size, chained epochs of ingest-shaped events are
// pregenerated and patched; the "inc" engine primes a maintainer once
// (untimed) and times rolling it through every epoch, the "full"
// engine times what serving the same analytics without maintenance
// costs per epoch — the production weak-component partition plus both
// causal modes' temporal Katz. Maintained results are asserted
// oracle-equivalent after every epoch (weak partition exactly, Katz
// within 1e-12) before any time is reported; the inc rows carry
// speedup vs full and are gated by -failBelow.
func runIncSuite(nodes, stamps, edges int, deltaList string, alpha float64, seed int64, reps, workers int) []record {
	deltas, err := parseCounts(deltaList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "egbench: -compactDeltas: %v\n", err)
		os.Exit(2)
	}
	base := evolving.Random(evolving.RandomConfig{
		Nodes: nodes, Stamps: stamps, Edges: edges, Directed: true, Seed: seed,
	})
	built := base.StaticEdgeCount()
	unfolded := base.EdgeCount(evolving.CausalAllPairs)
	if _, err := evolving.TemporalKatz(base, evolving.KatzOptions{Alpha: alpha}); err != nil {
		fmt.Fprintf(os.Stderr, "egbench: inc: katz diverges on the base graph at alpha=%g — lower -incAlpha\n", alpha)
		os.Exit(2)
	}
	const epochs = 3
	modes := []evolving.CausalMode{evolving.CausalAllPairs, evolving.CausalConsecutive}
	fmt.Printf("\n# inc suite: maintained analytics vs full recompute, %d chained epochs per delta size, on a %d-node / %d-arc / %d-stamp base, alpha=%g, %d reps (min reported)\n",
		epochs, base.NumNodes(), built, base.NumStamps(), alpha, reps)
	fmt.Printf("%-24s %-14s %14s %14s %12s %10s\n", "graph", "engine", "|E~|", "delta", "time", "speedup")

	var records []record
	for _, k := range deltas {
		graphs := make([]*evolving.Graph, epochs+1)
		graphs[0] = base
		ds := make([][]evolving.ArcDelta, epochs)
		for e := 0; e < epochs; e++ {
			events := genCompactEvents(graphs[e], k, seed+int64(e)*101)
			ds[e] = evolving.EventDeltas(events)
			graphs[e+1] = evolving.PatchGraph(graphs[e], ds[e])
		}

		// Per-epoch oracle equivalence before any time means anything
		// (this also warms every graph's lazily built CSR view, so the
		// timed loops charge neither engine for construction).
		m := evolving.NewMaintainer(evolving.MaintainerConfig{KatzAlpha: alpha})
		m.Prime(graphs[0])
		for e := 0; e < epochs; e++ {
			res := m.Apply(graphs[e], graphs[e+1], ds[e])
			g := graphs[e+1]
			for _, mode := range modes {
				if err := res.MatchesWeak(g, evolving.WeakComponentsOpts(g, evolving.ComponentOptions{Mode: mode, Workers: workers})); err != nil {
					fmt.Fprintf(os.Stderr, "egbench: inc delta-%d epoch %d: weak diverged from oracle: %v\n", k, e, err)
					os.Exit(1)
				}
				want, kerr := evolving.TemporalKatz(g, evolving.KatzOptions{Alpha: alpha, Mode: mode, Tol: evolving.MaintainerSeriesTol})
				got := res.KatzScores(mode)
				if kerr != nil {
					if got != nil {
						fmt.Fprintf(os.Stderr, "egbench: inc delta-%d epoch %d: oracle diverged but maintainer kept scores\n", k, e)
						os.Exit(1)
					}
					continue
				}
				if got == nil {
					fmt.Fprintf(os.Stderr, "egbench: inc delta-%d epoch %d: maintained katz missing (oracle converged)\n", k, e)
					os.Exit(1)
				}
				for i := range want {
					tol := 1e-12 * math.Max(1, math.Max(math.Abs(got[i]), math.Abs(want[i])))
					if math.Abs(got[i]-want[i]) > tol {
						fmt.Fprintf(os.Stderr, "egbench: inc delta-%d epoch %d id %d: maintained %.17g vs oracle %.17g\n", k, e, i, got[i], want[i])
						os.Exit(1)
					}
				}
			}
		}

		// Time the maintained path: prime untimed (it is paid once per
		// process, not per epoch), then roll through every epoch.
		incBest := time.Duration(math.MaxInt64)
		for r := -1; r < reps; r++ {
			mm := evolving.NewMaintainer(evolving.MaintainerConfig{KatzAlpha: alpha})
			mm.Prime(graphs[0])
			// Collect the previous rep's maintainer state and Prime's
			// garbage outside the timed window (see timeRuns).
			runtime.GC()
			start := time.Now()
			for e := 0; e < epochs; e++ {
				mm.Apply(graphs[e], graphs[e+1], ds[e])
			}
			if el := time.Since(start); r >= 0 && el < incBest {
				incBest = el
			}
		}
		// Time the full path: what the query service would recompute per
		// epoch without maintenance (production tolerances).
		fullBest := timeRuns(reps, func() {
			for e := 0; e < epochs; e++ {
				g := graphs[e+1]
				evolving.WeakComponentsOpts(g, evolving.ComponentOptions{Workers: workers})
				for _, mode := range modes {
					if _, err := evolving.TemporalKatz(g, evolving.KatzOptions{Alpha: alpha, Mode: mode}); err != nil {
						fmt.Fprintf(os.Stderr, "egbench: inc delta-%d: full katz: %v\n", k, err)
						os.Exit(1)
					}
				}
			}
		})

		st := m.Stats()
		fmt.Printf("# delta-%d maintainer: weak %d inc / %d full, katz %d inc / %d full\n",
			k, st.WeakIncremental, st.WeakFull, st.KatzIncremental, st.KatzFull)
		graph := fmt.Sprintf("delta-%d", k)
		row := func(engine string, d time.Duration) {
			speedup := float64(fullBest.Nanoseconds()) / float64(d.Nanoseconds())
			fmt.Printf("%-24s %-14s %14d %14d %12s %9.2fx\n",
				graph, engine, built, k, d.Round(time.Microsecond), speedup)
			records = append(records, record{
				Workload: fmt.Sprintf("inc-%d", k), Graph: graph, Engine: engine,
				Nodes: base.NumNodes(), Stamps: base.NumStamps(), StaticEdges: built,
				UnfoldedEdges: unfolded, DeltaEvents: k, NS: d.Nanoseconds(),
				SpeedupVsMaps: speedup,
			})
		}
		row("full", fullBest)
		row("inc", incBest)
	}
	return records
}

// genCompactEvents builds a deterministic ~k-event epoch delta over
// base: mostly arc insertions at existing labels, ~25% removals of
// arcs base actually holds, and roughly one fresh stamp per 97 events
// — the append-mostly shape of live ingestion.
func genCompactEvents(base *evolving.Graph, k int, seed int64) []evolving.IngestEvent {
	rng := rand.New(rand.NewSource(seed + int64(k)*7919))
	labels := base.TimeLabels()
	n := base.NumNodes()
	next := labels[len(labels)-1] + 1
	events := make([]evolving.IngestEvent, 0, k)
	for len(events) < k {
		switch {
		case len(events)%97 == 96: // open a fresh stamp and seed it
			u := int32(rng.Intn(n))
			events = append(events,
				evolving.IngestEvent{Op: evolving.IngestAddStamp, T: next},
				evolving.IngestEvent{Op: evolving.IngestAddArc, U: u, V: (u + 1) % int32(n), T: next})
			next++
		case rng.Intn(4) == 0: // remove an arc base actually holds
			removed := false
			for tries := 0; tries < 16 && !removed; tries++ {
				u := int32(rng.Intn(n))
				ti := rng.Intn(base.NumStamps())
				if nbrs := base.OutNeighbors(u, int32(ti)); len(nbrs) > 0 {
					events = append(events, evolving.IngestEvent{
						Op: evolving.IngestRemoveArc, U: u, V: nbrs[rng.Intn(len(nbrs))], T: labels[ti],
					})
					removed = true
				}
			}
		default: // plain insertion at an existing label
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u == v {
				v = (v + 1) % int32(n)
			}
			events = append(events, evolving.IngestEvent{
				Op: evolving.IngestAddArc, U: u, V: v, T: labels[rng.Intn(len(labels))],
			})
		}
	}
	return events[:k]
}

// graphsBitIdentical compares two graphs the strong way: identical
// shape, labels, per-stamp weighted edge streams, and byte-identical
// flat CSR views.
func graphsBitIdentical(a, b *evolving.Graph) error {
	if a.NumNodes() != b.NumNodes() || a.NumStamps() != b.NumStamps() {
		return fmt.Errorf("shape (%d nodes, %d stamps) vs (%d nodes, %d stamps)",
			a.NumNodes(), a.NumStamps(), b.NumNodes(), b.NumStamps())
	}
	if !reflect.DeepEqual(a.TimeLabels(), b.TimeLabels()) {
		return fmt.Errorf("time labels %v vs %v", a.TimeLabels(), b.TimeLabels())
	}
	type edge struct {
		u, v int32
		w    float64
	}
	for t := 0; t < a.NumStamps(); t++ {
		var ae, be []edge
		a.VisitEdges(int32(t), func(u, v int32, w float64) bool {
			ae = append(ae, edge{u, v, w})
			return true
		})
		b.VisitEdges(int32(t), func(u, v int32, w float64) bool {
			be = append(be, edge{u, v, w})
			return true
		})
		if !reflect.DeepEqual(ae, be) {
			return fmt.Errorf("stamp %d: %d vs %d edges or differing streams", t, len(ae), len(be))
		}
	}
	ac := evolving.BuildFlatCSR(a, evolving.CSRBuildOptions{Workers: 1})
	bc := evolving.BuildFlatCSR(b, evolving.CSRBuildOptions{Workers: 1})
	if !reflect.DeepEqual(ac, bc) {
		return fmt.Errorf("flat CSR views differ")
	}
	return nil
}

// timeRuns reports the minimum wall-clock time of reps invocations,
// after one untimed warm-up (the lazily built CSR view and page faults
// charge neither engine).
// timeRuns reports the best of reps timed runs of fn after one untimed
// warmup. Each timed window starts on a clean heap: without the
// explicit collection, garbage from the previous run is collected
// *during* the next timed window, and on few-core machines the
// assist/STW cost lands in whichever run the pacer picks — the
// dominant noise source for sub-second measurements.
func timeRuns(reps int, fn func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for r := -1; r < reps; r++ {
		runtime.GC()
		start := time.Now()
		fn()
		if el := time.Since(start); r >= 0 && el < best {
			best = el
		}
	}
	return best
}

// buildWorkload materialises the named generator workload.
func buildWorkload(name string, nodes, stamps int, counts []int, seed int64) ([]namedGraph, error) {
	switch name {
	case "random":
		series := evolving.RandomSeries(nodes, stamps, counts, true, seed)
		out := make([]namedGraph, len(series))
		for i, g := range series {
			out[i] = namedGraph{fmt.Sprintf("random-%d", counts[i]), g}
		}
		return out, nil
	case "citation":
		var out []namedGraph
		for _, authors := range []int{2000, 5000} {
			cfg := evolving.DefaultCitationConfig()
			cfg.Authors = authors
			cfg.Stamps = stamps
			cfg.Seed = seed
			g, _ := evolving.SyntheticCitation(cfg)
			out = append(out, namedGraph{fmt.Sprintf("citation-%d", authors), g})
		}
		return out, nil
	case "gnp":
		var out []namedGraph
		for _, p := range []float64{0.001, 0.002} {
			g := evolving.GNP(nodes, stamps, p, true, seed)
			out = append(out, namedGraph{fmt.Sprintf("gnp-%g", p), g})
		}
		return out, nil
	case "pref":
		var out []namedGraph
		for _, m := range []int{4, 8} {
			g := evolving.PreferentialAttachment(nodes, stamps, m, seed)
			out = append(out, namedGraph{fmt.Sprintf("pref-m%d", m), g})
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (random, citation, gnp, pref)", name)
	}
}

// timeBFS reports the minimum wall-clock time of reps runs of bfs. One
// untimed warm-up run precedes the timed ones so one-time setup (the
// lazily built CSR view, page faults on fresh arrays) charges neither
// engine.
func timeBFS(reps int, bfs func() (*evolving.Result, error)) (time.Duration, int, error) {
	best := time.Duration(math.MaxInt64)
	reached := 0
	for r := -1; r < reps; r++ {
		start := time.Now()
		res, err := bfs()
		if err != nil {
			return 0, 0, err
		}
		if el := time.Since(start); r >= 0 && el < best {
			best = el
		}
		reached = res.NumReached()
	}
	return best, reached, nil
}

func writeJSON(path string, records []record) error {
	buf, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func parseCounts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	counts := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad edge count %q", p)
		}
		counts = append(counts, n)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			return nil, fmt.Errorf("edge counts must be non-decreasing")
		}
	}
	return counts, nil
}

// leastSquares fits y = a·x + b and returns (a, b, R²).
func leastSquares(xs, ys []float64) (a, b, r2 float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n, 0
	}
	a = (n*sxy - sx*sy) / den
	b = (sy - a*sx) / n
	mean := sy / n
	var ssTot, ssRes float64
	for i := range xs {
		ssTot += (ys[i] - mean) * (ys[i] - mean)
		pred := a*xs[i] + b
		ssRes += (ys[i] - pred) * (ys[i] - pred)
	}
	if ssTot == 0 {
		return a, b, 1
	}
	return a, b, 1 - ssRes/ssTot
}

// runRecoverSuite measures warm restart: booting to a query-ready
// graph through the mmap'd checkpoint plus a WAL-tail fold (engine
// "ckpt") vs the full replay boot the seed performed (engine
// "replay"). The replay engine pays exactly what cmd/egserve's
// fallback path pays — construct the base graph, then fold the whole
// event history — because that is what RecoverConfig.Base's laziness
// lets a checkpoint boot skip. The checkpoint covers the base plus a
// fixed bulk history; each -compactDeltas entry is the WAL tail the
// checkpoint has not covered yet. Neither timed boot builds the flat
// CSR view — the server is query-ready before it (EnsureCSR is lazy),
// and the checkpoint ships its CSR sections zero-copy anyway. Both
// boots must produce bit-identical graphs (flat views compared byte
// for byte) before any time is reported; the ckpt rows carry speedup
// vs replay and are gated by -failBelow (CI: ≥10x on the
// 100k-node/1M-arc base).
func runRecoverSuite(nodes, stamps, edges int, deltaList string, seed int64, reps int) []record {
	deltas, err := parseCounts(deltaList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "egbench: -compactDeltas: %v\n", err)
		os.Exit(2)
	}
	cfg := evolving.RandomConfig{
		Nodes: nodes, Stamps: stamps, Edges: edges, Directed: true, Seed: seed,
	}
	base := evolving.Random(cfg)
	built := base.StaticEdgeCount()
	unfolded := base.EdgeCount(evolving.CausalAllPairs)

	// The durable history: a fixed bulk delta the checkpoint covers,
	// then per-row tails it has not. The bulk stays at existing labels
	// (arc churn, no fresh stamps): per-stamp ptr rows cost O(N) each,
	// so a stamp-opening bulk would balloon the checkpoint instead of
	// representing the steady state the compactor checkpoints from.
	// The generator is deterministic, so "the WAL" is reproducible
	// without a file on disk.
	const bulk = 10_000
	bulkEvents := genRecoverBulk(base, bulk, seed+1)
	ckptG := evolving.FoldEvents(base, bulkEvents)

	dir, err := os.MkdirTemp("", "egbench-recover-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "egbench: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "graph.ckpt")
	ckptBytes, err := evolving.WriteCheckpoint(path, ckptG, evolving.CheckpointMeta{
		WALSeq: 1, Labels: ckptG.TimeLabels(),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "egbench: recover: write checkpoint: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("\n# recover suite: boot-to-query-ready vs WAL-tail size on a %d-node / %d-arc / %d-stamp base (+%d-event bulk history; checkpoint %d bytes), %d reps (min reported)\n",
		base.NumNodes(), built, base.NumStamps(), bulk, ckptBytes, reps)
	fmt.Printf("%-24s %-14s %14s %14s %12s %10s\n", "graph", "engine", "|E~|", "tail", "time", "speedup")

	var records []record
	for _, k := range deltas {
		tail := genCompactEvents(ckptG, k, seed+2)
		all := append(append([]evolving.IngestEvent(nil), bulkEvents...), tail...)

		// Bit-identical-boot assertion: the checkpoint path must agree
		// with the full replay exactly before its time means anything.
		replayG := evolving.FoldEvents(base, all)
		ck, err := evolving.OpenCheckpoint(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "egbench: recover tail-%d: open checkpoint: %v\n", k, err)
			os.Exit(1)
		}
		warmG := evolving.PatchEvents(ck.Graph, tail)
		if err := graphsBitIdentical(replayG, warmG); err != nil {
			fmt.Fprintf(os.Stderr, "egbench: recover tail-%d: checkpoint boot diverged from full replay: %v\n", k, err)
			os.Exit(1)
		}
		ck.Close()

		replayBest := timeRuns(reps, func() {
			evolving.FoldEvents(evolving.Random(cfg), all)
		})
		ckptBest := timeRuns(reps, func() {
			ck, err := evolving.OpenCheckpoint(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "egbench: recover tail-%d: open checkpoint: %v\n", k, err)
				os.Exit(1)
			}
			evolving.PatchEvents(ck.Graph, tail)
			ck.Close()
		})

		graph := fmt.Sprintf("tail-%d", k)
		row := func(engine string, d time.Duration) {
			speedup := float64(replayBest.Nanoseconds()) / float64(d.Nanoseconds())
			fmt.Printf("%-24s %-14s %14d %14d %12s %9.2fx\n",
				graph, engine, built, len(tail), d.Round(time.Microsecond), speedup)
			records = append(records, record{
				Workload: fmt.Sprintf("recover-%d", k), Graph: graph, Engine: engine,
				Nodes: base.NumNodes(), Stamps: base.NumStamps(), StaticEdges: built,
				UnfoldedEdges: unfolded, DeltaEvents: len(tail), NS: d.Nanoseconds(),
				SpeedupVsMaps: speedup,
			})
		}
		row("replay", replayBest)
		row("ckpt", ckptBest)
	}
	return records
}

// genRecoverBulk builds a deterministic k-event arc-churn delta at
// base's existing labels — ~25% removals of arcs base actually holds,
// the rest insertions — the steady-state history a checkpoint covers.
func genRecoverBulk(base *evolving.Graph, k int, seed int64) []evolving.IngestEvent {
	rng := rand.New(rand.NewSource(seed + int64(k)*104729))
	labels := base.TimeLabels()
	n := base.NumNodes()
	events := make([]evolving.IngestEvent, 0, k)
	for len(events) < k {
		if rng.Intn(4) == 0 {
			removed := false
			for tries := 0; tries < 16 && !removed; tries++ {
				u := int32(rng.Intn(n))
				ti := rng.Intn(base.NumStamps())
				if nbrs := base.OutNeighbors(u, int32(ti)); len(nbrs) > 0 {
					events = append(events, evolving.IngestEvent{
						Op: evolving.IngestRemoveArc, U: u, V: nbrs[rng.Intn(len(nbrs))], T: labels[ti],
					})
					removed = true
				}
			}
			continue
		}
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			v = (v + 1) % int32(n)
		}
		events = append(events, evolving.IngestEvent{
			Op: evolving.IngestAddArc, U: u, V: v, T: labels[rng.Intn(len(labels))],
		})
	}
	return events
}
