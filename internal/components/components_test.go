package components

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/egraph"
	"repro/internal/gen"
)

func tn(v, s int32) egraph.TemporalNode { return egraph.TemporalNode{Node: v, Stamp: s} }

func randomGraph(rng *rand.Rand, directed bool) *egraph.IntEvolvingGraph {
	b := egraph.NewBuilder(directed)
	n := 2 + rng.Intn(8)
	stamps := 1 + rng.Intn(4)
	for e := 0; e < rng.Intn(3*n); e++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), int64(1+rng.Intn(stamps)))
	}
	b.AddEdge(0, 1, 1)
	return b.Build()
}

func TestWeakFigure1(t *testing.T) {
	// The Fig. 1 graph is weakly connected: one component of 6.
	g := egraph.Figure1Graph()
	comps := Weak(g, egraph.CausalAllPairs)
	if len(comps) != 1 || len(comps[0]) != 6 {
		t.Fatalf("components = %v", comps)
	}
}

func TestWeakTwoIslands(t *testing.T) {
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 1) // island A
	b.AddEdge(2, 3, 2) // island B
	b.AddEdge(0, 1, 3) // A again (causal edges join stamps)
	g := b.Build()
	comps := Weak(g, egraph.CausalAllPairs)
	if len(comps) != 2 {
		t.Fatalf("want 2 components, got %d: %v", len(comps), comps)
	}
	// Island A has 4 temporal nodes (0,1 at two stamps), B has 2.
	if len(comps[0]) != 4 || len(comps[1]) != 2 {
		t.Fatalf("sizes = %d,%d, want 4,2", len(comps[0]), len(comps[1]))
	}
}

func TestWeakCausalOnlyBridge(t *testing.T) {
	// Node 1 appears at stamps 1 and 2 with different partners; only the
	// causal edge links the stamps into one component.
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	g := b.Build()
	comps := Weak(g, egraph.CausalAllPairs)
	if len(comps) != 1 || len(comps[0]) != 4 {
		t.Fatalf("components = %v, want one of size 4", comps)
	}
}

func TestStrongFigure1AllTrivial(t *testing.T) {
	// The Fig. 1 graph is a temporal DAG: every SCC is a singleton.
	g := egraph.Figure1Graph()
	comps := Strong(g, 2)
	if len(comps) != 0 {
		t.Fatalf("nontrivial SCCs = %v, want none", comps)
	}
	all := Strong(g, 1)
	if len(all) != 6 {
		t.Fatalf("singleton SCC count = %d, want 6", len(all))
	}
}

func TestStrongCycleWithinStamp(t *testing.T) {
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 1) // 3-cycle at t1
	b.AddEdge(0, 1, 2) // acyclic at t2
	g := b.Build()
	comps := Strong(g, 2)
	if len(comps) != 1 || len(comps[0]) != 3 {
		t.Fatalf("SCCs = %v, want one triangle", comps)
	}
	if comps[0][0].Stamp != 0 {
		t.Fatal("SCC at wrong stamp")
	}
}

// The structure theorem: SCCs of the unfolded graph equal the union of
// per-snapshot SCCs (cross-stamp arcs cannot close cycles). Validate the
// per-snapshot shortcut against generic Tarjan on the unfolding.
func TestStrongMatchesGenericTarjan(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		u := g.Unfold(egraph.CausalAllPairs)

		want := map[string]int{} // canonical member list -> count
		for _, scc := range TarjanStatic(u.Graph) {
			if len(scc) < 2 {
				continue
			}
			want[canonical(u, scc)]++
		}
		got := map[string]int{}
		for _, comp := range Strong(g, 2) {
			key := ""
			for _, tnode := range comp {
				key += tnode.String() + ";"
			}
			got[key]++
		}
		if len(got) != len(want) {
			return false
		}
		for k, c := range want {
			if got[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func canonical(u *egraph.Unfolding, scc []int32) string {
	nodes := make([]egraph.TemporalNode, len(scc))
	for i, id := range scc {
		nodes[i] = u.Order[id]
	}
	sort.Slice(nodes, func(a, b int) bool {
		if nodes[a].Stamp != nodes[b].Stamp {
			return nodes[a].Stamp < nodes[b].Stamp
		}
		return nodes[a].Node < nodes[b].Node
	})
	key := ""
	for _, n := range nodes {
		key += n.String() + ";"
	}
	return key
}

// Undirected graphs: every connected snapshot subgraph is one SCC.
func TestStrongUndirected(t *testing.T) {
	b := egraph.NewBuilder(false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g := b.Build()
	comps := Strong(g, 2)
	if len(comps) != 1 || len(comps[0]) != 3 {
		t.Fatalf("undirected SCCs = %v", comps)
	}
}

func TestOutComponent(t *testing.T) {
	g := egraph.Figure1Graph()
	comp, err := OutComponent(g, tn(0, 0), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) != 6 {
		t.Fatalf("out-component size = %d, want 6", len(comp))
	}
	// Sorted stamp-major.
	for i := 1; i < len(comp); i++ {
		a, b := comp[i-1], comp[i]
		if a.Stamp > b.Stamp || (a.Stamp == b.Stamp && a.Node >= b.Node) {
			t.Fatalf("not sorted: %v", comp)
		}
	}
	if _, err := OutComponent(g, tn(2, 0), egraph.CausalAllPairs); err == nil {
		t.Fatal("inactive root should fail")
	}
}

func TestSizeDistribution(t *testing.T) {
	g := egraph.Figure1Graph()
	sizes := SizeDistribution(g, egraph.CausalAllPairs)
	if len(sizes) != 6 {
		t.Fatalf("%d sizes, want 6", len(sizes))
	}
	// Descending, max is the full reach of (1,t1) = 6, min is 1 ((3,t3)).
	if sizes[0] != 6 || sizes[len(sizes)-1] != 1 {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Fatalf("not descending: %v", sizes)
		}
	}
}

// Differential engine equivalence: the CSR paths must return results
// identical to the adjacency-map oracles for every entry point, across
// both causal modes.
func assertEnginesAgree(t *testing.T, g *egraph.IntEvolvingGraph, label string) {
	t.Helper()
	for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
		csr := Options{Mode: mode, Workers: 3}
		if got, want := WeakOpts(g, csr), ReferenceWeak(g, mode); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s mode %v: Weak diverges:\ncsr  %v\nmaps %v", label, mode, got, want)
		}
		if got, want := StrongOpts(g, 1, csr), ReferenceStrong(g, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s mode %v: Strong diverges:\ncsr  %v\nmaps %v", label, mode, got, want)
		}
		if got, want := SizeDistributionOpts(g, csr), ReferenceSizeDistribution(g, mode); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s mode %v: SizeDistribution diverges:\ncsr  %v\nmaps %v", label, mode, got, want)
		}
		for i, root := range g.ActiveTemporalNodes() {
			if i%3 != 0 {
				continue // sample roots to keep the sweep cheap
			}
			got, err1 := OutComponentOpts(g, root, csr)
			res, err2 := core.ReferenceBFS(g, []egraph.TemporalNode{root}, core.Options{Mode: mode})
			if err1 != nil || err2 != nil {
				t.Fatalf("%s mode %v: OutComponent errors: %v / %v", label, mode, err1, err2)
			}
			var want Component
			res.Visit(func(tn egraph.TemporalNode, _ int) bool {
				want = append(want, tn)
				return true
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s mode %v root %v: OutComponent diverges:\ncsr  %v\nmaps %v",
					label, mode, root, got, want)
			}
		}
	}
}

func TestEngineEquivalenceRandom(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		assertEnginesAgree(t, randomGraph(rng, directed), "random")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineEquivalenceGeneratorWorkloads(t *testing.T) {
	cfg := gen.DefaultCitationConfig()
	cfg.Authors = 60
	cfg.Stamps = 6
	cite, _ := gen.Citation(cfg)
	assertEnginesAgree(t, cite, "citation")
	assertEnginesAgree(t, gen.GNP(40, 4, 0.05, true, 7), "gnp")
	assertEnginesAgree(t, gen.Random(gen.RandomConfig{Nodes: 50, Stamps: 5, Edges: 200, Directed: true, Seed: 11}), "random-gen")
}

// Property: weak components partition the active temporal nodes.
func TestWeakIsPartition(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		comps := Weak(g, egraph.CausalAllPairs)
		seen := map[egraph.TemporalNode]bool{}
		total := 0
		for _, c := range comps {
			for _, tnode := range c {
				if seen[tnode] {
					return false
				}
				seen[tnode] = true
				total++
			}
		}
		return total == g.NumActiveNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
