package rank

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/egraph"
	"repro/internal/gen"
)

func TestEvolvingPageRankSumsToOne(t *testing.T) {
	g := egraph.Figure1Graph()
	res, err := EvolvingPageRank(g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 3 {
		t.Fatalf("stamps = %d", len(res.Scores))
	}
	for ts, scores := range res.Scores {
		var sum float64
		act := g.ActiveNodes(ts)
		for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
			if scores[v] <= 0 {
				t.Fatalf("stamp %d: active node %d has score %g", ts, v, scores[v])
			}
			sum += scores[v]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("stamp %d: scores sum to %g", ts, sum)
		}
		// Inactive nodes carry no mass.
		for v := 0; v < g.NumNodes(); v++ {
			if !g.IsActive(int32(v), int32(ts)) && scores[v] != 0 {
				t.Fatalf("stamp %d: inactive node %d has score %g", ts, v, scores[v])
			}
		}
	}
}

func TestPageRankSinkDominates(t *testing.T) {
	// Star into node 0 at one stamp: 0 must outrank the spokes.
	b := egraph.NewBuilder(true)
	for v := int32(1); v <= 5; v++ {
		b.AddEdge(v, 0, 1)
	}
	g := b.Build()
	res, err := EvolvingPageRank(g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Scores[0]
	for v := 1; v <= 5; v++ {
		if s[0] <= s[v] {
			t.Fatalf("hub score %g not above spoke %g", s[0], s[v])
		}
	}
}

// Warm and cold starts converge to the same per-stamp ranking, and the
// warm start takes no more total iterations on slowly changing graphs.
func TestPageRankWarmStartAgreesAndSavesIterations(t *testing.T) {
	// A slowly evolving graph: consecutive snapshots share most edges.
	b := egraph.NewBuilder(true)
	rng := rand.New(rand.NewSource(5))
	const n = 60
	type e struct{ u, v int32 }
	var base []e
	for i := 0; i < 240; i++ {
		base = append(base, e{int32(rng.Intn(n)), int32(rng.Intn(n))})
	}
	for ts := int64(1); ts <= 6; ts++ {
		for i, ed := range base {
			// Perturb 5% of edges per stamp.
			if rng.Intn(20) == 0 {
				base[i] = e{int32(rng.Intn(n)), int32(rng.Intn(n))}
			}
			b.AddEdge(ed.u, ed.v, ts)
		}
	}
	g := b.Build()

	warm, err := EvolvingPageRank(g, PageRankOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := EvolvingPageRank(g, PageRankOptions{Tol: 1e-12, ColdStart: true})
	if err != nil {
		t.Fatal(err)
	}
	for ts := range warm.Scores {
		for v := range warm.Scores[ts] {
			if math.Abs(warm.Scores[ts][v]-cold.Scores[ts][v]) > 1e-6 {
				t.Fatalf("stamp %d node %d: warm %g vs cold %g",
					ts, v, warm.Scores[ts][v], cold.Scores[ts][v])
			}
		}
	}
	if warm.TotalIterations() > cold.TotalIterations() {
		t.Fatalf("warm start took %d iterations, cold %d",
			warm.TotalIterations(), cold.TotalIterations())
	}
	// The first stamp has no warm start, so later stamps must be where
	// the saving comes from.
	if warm.Iterations[0] != cold.Iterations[0] {
		t.Fatal("first stamp should be identical")
	}
}

func TestPageRankBadDamping(t *testing.T) {
	g := egraph.Figure1Graph()
	for _, d := range []float64{-0.1, 1.0, 1.5} {
		if _, err := EvolvingPageRank(g, PageRankOptions{Damping: d}); err == nil {
			t.Fatalf("damping %g should fail", d)
		}
	}
}

// Property: PageRank mass is conserved per stamp on random graphs.
func TestPageRankMassConservation(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		b := egraph.NewBuilder(directed)
		n := 2 + rng.Intn(10)
		stamps := 1 + rng.Intn(4)
		for e := 0; e < 3*n; e++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), int64(1+rng.Intn(stamps)))
		}
		b.AddEdge(0, 1, 1)
		g := b.Build()
		res, err := EvolvingPageRank(g, PageRankOptions{})
		if err != nil {
			return false
		}
		for ts, scores := range res.Scores {
			var sum float64
			for _, s := range scores {
				sum += s
			}
			if g.ActiveNodes(ts).Count() > 0 && math.Abs(sum-1) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTemporalKatzFigure1(t *testing.T) {
	g := egraph.Figure1Graph()
	scores, err := TemporalKatz(g, KatzOptions{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	id := func(v, s int) int { return s*g.NumNodes() + v }
	// Exact series on the nilpotent Fig. 1 block matrix (α = 1/2):
	// walks into (3,t3): one 1-hop from (2,t3), one 1-hop from (3,t2),
	// 2-hop and 3-hop continuations...
	// Sanity: the sink (3,t3) collects the most walk mass.
	sink := scores[id(2, 2)]
	for v := 0; v < 3; v++ {
		for s := 0; s < 3; s++ {
			if v == 2 && s == 2 {
				continue
			}
			if scores[id(v, s)] > sink {
				t.Fatalf("(%d,t%d) score %g exceeds sink %g", v+1, s+1, scores[id(v, s)], sink)
			}
		}
	}
	// Sources with no inbound walks keep exactly the seed value 1.
	if scores[id(0, 0)] != 1 {
		t.Fatalf("(1,t1) score = %g, want 1", scores[id(0, 0)])
	}
	// Inactive slots stay 0.
	if scores[id(2, 0)] != 0 {
		t.Fatalf("inactive (3,t1) score = %g, want 0", scores[id(2, 0)])
	}
}

// Exact check: on the Fig. 1 graph the Katz score of (3,t3) is
// 1 + α·(walks of 1 hop in) + α²·(2 hops) + α³·(3 hops).
// In-walk counts ending at (3,t3): 1-hop: 2 ((2,t3),(3,t2)); 2-hop: 3
// (via (2,t1)→(2,t3), (1,t2)→(3,t2), (3,t2) chains…) — computed from
// the A3ᵀ powers: col sums of e-basis. We derive them from the paper's
// A3 matrix directly.
func TestTemporalKatzExactSeries(t *testing.T) {
	g := egraph.Figure1Graph()
	alpha := 0.5
	scores, err := TemporalKatz(g, KatzOptions{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	// Walk counts into (3,t3) by length, from the unfolded DAG:
	// len1: (2,t3)→, (3,t2)→  = 2
	// len2: (2,t1)→(2,t3)→, (1,t2)→(3,t2)→ = 2... plus (1,t1)→(1,t2)?
	//       that ends at (1,t2). Into (3,t3): paths of length 2:
	//       (2,t1)→(2,t3)→(3,t3), (1,t2)→(3,t2)→(3,t3) = 2
	// len3: (1,t1)→(2,t1)→(2,t3)→(3,t3), (1,t1)→(1,t2)→(3,t2)→(3,t3) = 2
	want := 1 + alpha*2 + alpha*alpha*2 + alpha*alpha*alpha*2
	got := scores[2*g.NumNodes()+2]
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Katz((3,t3)) = %g, want %g", got, want)
	}
}

func TestTemporalKatzDivergence(t *testing.T) {
	// 2-cycle at one stamp with α = 1: series cannot attenuate.
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 0, 1)
	g := b.Build()
	if _, err := TemporalKatz(g, KatzOptions{Alpha: 1.0, MaxTerms: 50}); err != ErrKatzDiverged {
		t.Fatalf("err = %v, want ErrKatzDiverged", err)
	}
	// Small α converges even with the cycle.
	if _, err := TemporalKatz(g, KatzOptions{Alpha: 0.3}); err != nil {
		t.Fatal(err)
	}
}

func TestTemporalKatzBadAlpha(t *testing.T) {
	g := egraph.Figure1Graph()
	if _, err := TemporalKatz(g, KatzOptions{Alpha: -1}); err == nil {
		t.Fatal("negative alpha should fail")
	}
}

func TestPageRankOnCitationNetwork(t *testing.T) {
	g, _ := gen.Citation(gen.DefaultCitationConfig())
	res, err := EvolvingPageRank(g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != g.NumStamps() {
		t.Fatal("stamp count mismatch")
	}
	warmIters := res.TotalIterations()
	cold, err := EvolvingPageRank(g, PageRankOptions{ColdStart: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("citation network: warm %d iters vs cold %d", warmIters, cold.TotalIterations())
}

// Differential kernel equivalence: the CSR gather and the block matrix
// kernel accumulate each temporal node's in-flow in the same order, so
// TemporalKatz must return float-bit-identical scores either way, across
// causal modes and generator workloads.
func assertKatzKernelsAgree(t *testing.T, g *egraph.IntEvolvingGraph, alpha float64, label string) {
	t.Helper()
	for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
		opts := KatzOptions{Alpha: alpha, Mode: mode}
		got, err1 := TemporalKatz(g, opts)
		want, err2 := ReferenceKatz(g, opts)
		if err1 != err2 {
			t.Fatalf("%s mode %v: kernel errors diverge: csr %v, block %v", label, mode, err1, err2)
		}
		if err1 != nil {
			continue // both diverged identically
		}
		if len(got) != len(want) {
			t.Fatalf("%s mode %v: score lengths diverge: %d vs %d", label, mode, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s mode %v: score[%d] diverges: csr %v, block %v", label, mode, i, got[i], want[i])
			}
		}
	}
}

func TestTemporalKatzKernelEquivalence(t *testing.T) {
	assertKatzKernelsAgree(t, egraph.Figure1Graph(), 0.5, "figure1")
	cfg := gen.DefaultCitationConfig()
	cfg.Authors = 50
	cfg.Stamps = 6
	cite, _ := gen.Citation(cfg)
	assertKatzKernelsAgree(t, cite, 0.05, "citation")
	assertKatzKernelsAgree(t, gen.GNP(30, 4, 0.05, true, 5), 0.05, "gnp")

	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		b := egraph.NewBuilder(directed)
		n := 2 + rng.Intn(8)
		stamps := 1 + rng.Intn(4)
		for e := 0; e < rng.Intn(3*n); e++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), int64(1+rng.Intn(stamps)))
		}
		b.AddEdge(0, 1, 1)
		assertKatzKernelsAgree(t, b.Build(), 0.02, "random")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
