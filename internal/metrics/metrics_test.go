package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/egraph"
	"repro/internal/gen"
)

func tn(v, s int32) egraph.TemporalNode { return egraph.TemporalNode{Node: v, Stamp: s} }

// The three distance notions disagree on the Fig. 1 graph for the pair
// (1,t1) → node 3:
//
//   - paper distance (edges, causal counted): 3
//   - dynamic-walk distance (causal free): 1
//   - Tang temporal distance (stamps, inclusive): 2  (start at t1, reach 3 at t2)
func TestThreeDistanceNotionsDisagree(t *testing.T) {
	g := egraph.Figure1Graph()
	paper, err := PaperDistance(g, tn(0, 0), tn(2, 2), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if paper != 3 {
		t.Fatalf("paper distance = %d, want 3", paper)
	}
	dw, err := DynamicWalkDistance(g, tn(0, 0), tn(2, 2), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if dw != 1 {
		t.Fatalf("dynamic-walk distance = %d, want 1", dw)
	}
	tang := TangTemporalDistance(g, tn(0, 0), 2)
	if tang != 2 {
		t.Fatalf("Tang temporal distance = %d, want 2", tang)
	}
	if paper == dw || paper == tang {
		t.Fatal("distance notions should disagree on this instance")
	}
}

func TestTangDistanceBasics(t *testing.T) {
	g := egraph.Figure1Graph()
	// Self: inclusive convention counts the starting stamp.
	if d := TangTemporalDistance(g, tn(0, 0), 0); d != 1 {
		t.Fatalf("self distance = %d, want 1", d)
	}
	// One hop within the first stamp: still 1 stamp used.
	if d := TangTemporalDistance(g, tn(0, 0), 1); d != 1 {
		t.Fatalf("same-stamp hop = %d, want 1", d)
	}
	// Unreachable: nothing reaches node 1 from (3,·) forward.
	if d := TangTemporalDistance(g, tn(2, 1), 0); d != Unreachable {
		t.Fatalf("unreachable = %d, want -1", d)
	}
	// Out-of-range inputs.
	if d := TangTemporalDistance(g, tn(9, 0), 0); d != Unreachable {
		t.Fatalf("bad node = %d, want -1", d)
	}
}

// Tang's model allows only one hop per stamp: a two-hop chain within a
// single stamp needs two stamps' worth of edges, or is unreachable if the
// edge never reappears.
func TestTangOneHopPerStamp(t *testing.T) {
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1) // same stamp
	g := b.Build()
	if d := TangTemporalDistance(g, tn(0, 0), 2); d != Unreachable {
		t.Fatalf("two hops in one stamp = %d, want unreachable", d)
	}
	// With the second edge also present at stamp 2, the journey takes 2.
	b2 := egraph.NewBuilder(true)
	b2.AddEdge(0, 1, 1)
	b2.AddEdge(1, 2, 1)
	b2.AddEdge(1, 2, 2)
	g2 := b2.Build()
	if d := TangTemporalDistance(g2, tn(0, 0), 2); d != 2 {
		t.Fatalf("two-stamp journey = %d, want 2", d)
	}
}

func TestDynamicWalkDistanceUnreachable(t *testing.T) {
	g := egraph.Figure1Graph()
	d, err := DynamicWalkDistance(g, tn(2, 2), tn(0, 0), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if d != Unreachable {
		t.Fatalf("d = %d, want unreachable", d)
	}
	if _, err := DynamicWalkDistance(g, tn(2, 0), tn(0, 0), egraph.CausalAllPairs); err == nil {
		t.Fatal("inactive source should error")
	}
}

func TestDynamicCommunicability(t *testing.T) {
	g := egraph.Figure1Graph()
	q, err := DynamicCommunicability(g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	// Q ≥ I elementwise on the diagonal; walk 1→2 (via t1) and 1→3
	// (via t2, or t1→t3 chain) have positive weight.
	if q.At(0, 0) < 1 || q.At(0, 1) <= 0 || q.At(0, 2) <= 0 {
		t.Fatalf("communicability entries wrong:\n%v", q)
	}
	// No walk reaches node 1 from node 3 (edges never point back).
	if q.At(2, 0) != 0 {
		t.Fatalf("Q[3][1] = %g, want 0", q.At(2, 0))
	}
	// The chain walk 1→2@t1 then 2→3@t3 contributes at second order:
	// Q[1][3] must exceed the single-edge weight alpha.
	if q.At(0, 2) <= 0.3 {
		t.Fatalf("Q[1][3] = %g, want > alpha (chain walk missing)", q.At(0, 2))
	}
}

func TestDynamicCommunicabilityErrors(t *testing.T) {
	g := egraph.Figure1Graph()
	if _, err := DynamicCommunicability(g, 0); err == nil {
		t.Fatal("alpha = 0 should error")
	}
	// A 2-cycle with alpha = 1 makes I − αA singular.
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 0, 1)
	if _, err := DynamicCommunicability(b.Build(), 1.0); err == nil {
		t.Fatal("singular resolvent should error")
	}
}

func TestBroadcastReceiveCentrality(t *testing.T) {
	g := egraph.Figure1Graph()
	q, err := DynamicCommunicability(g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	bc := BroadcastCentrality(q)
	rc := ReceiveCentrality(q)
	// Node 1 broadcasts most (starts both chains); node 3 receives most.
	if !(bc[0] > bc[1] && bc[0] > bc[2]) {
		t.Fatalf("broadcast = %v, want node 1 max", bc)
	}
	if !(rc[2] > rc[0] && rc[2] > rc[1]) {
		t.Fatalf("receive = %v, want node 3 max", rc)
	}
}

func TestTemporalCloseness(t *testing.T) {
	g := egraph.Figure1Graph()
	c, err := TemporalCloseness(g, tn(0, 0), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	// Distances from (1,t1): 1,1,2,2,3 → Σ1/d = 1+1+0.5+0.5+1/3.
	want := 1 + 1 + 0.5 + 0.5 + 1.0/3.0
	if math.Abs(c-want) > 1e-12 {
		t.Fatalf("closeness = %g, want %g", c, want)
	}
	// A sink has closeness 0.
	c2, err := TemporalCloseness(g, tn(2, 2), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != 0 {
		t.Fatalf("sink closeness = %g, want 0", c2)
	}
	if _, err := TemporalCloseness(g, tn(2, 0), egraph.CausalAllPairs); err == nil {
		t.Fatal("inactive root should error")
	}
}

func TestTemporalBetweenness(t *testing.T) {
	// Path 0→1@t1, 1→2@t2: node 1 is the only intermediary.
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	g := b.Build()
	bt := TemporalBetweenness(g, egraph.CausalAllPairs)
	if len(bt) != 3 {
		t.Fatalf("scores = %v", bt)
	}
	if bt[1] <= 0 {
		t.Fatalf("intermediary node 1 has betweenness %g, want > 0", bt[1])
	}
	if bt[1] <= bt[0] || bt[1] <= bt[2] {
		t.Fatalf("node 1 should dominate: %v", bt)
	}
}

func TestTemporalBetweennessStar(t *testing.T) {
	// Hub 0 relays between 4 leaves across two stamps.
	b := egraph.NewBuilder(true)
	b.AddEdge(1, 0, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(0, 3, 2)
	b.AddEdge(0, 4, 2)
	g := b.Build()
	bt := TemporalBetweenness(g, egraph.CausalAllPairs)
	for v := 1; v <= 4; v++ {
		if bt[0] <= bt[v] {
			t.Fatalf("hub should dominate leaves: %v", bt)
		}
	}
}

func TestGlobalEfficiencyFigure1(t *testing.T) {
	g := egraph.Figure1Graph()
	st := GlobalEfficiency(g, egraph.CausalAllPairs)
	// Reachable ordered pairs among the 6 active temporal nodes:
	// from (1,t1): 5; (2,t1): 2 ((2,t3),(3,t3)); (1,t2): 2; (3,t2): 1;
	// (2,t3): 1; (3,t3): 0  => 11 of 30.
	if st.ReachableFraction != 11.0/30.0 {
		t.Fatalf("ReachableFraction = %g, want %g", st.ReachableFraction, 11.0/30.0)
	}
	if st.Diameter != 3 {
		t.Fatalf("Diameter = %d, want 3", st.Diameter)
	}
	if st.Efficiency <= 0 || st.Efficiency >= 1 {
		t.Fatalf("Efficiency = %g out of range", st.Efficiency)
	}
	if st.MeanDistance <= 1 || st.MeanDistance >= 3 {
		t.Fatalf("MeanDistance = %g implausible", st.MeanDistance)
	}
}

func TestGlobalEfficiencyTrivial(t *testing.T) {
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 1)
	g := b.Build()
	st := GlobalEfficiency(g, egraph.CausalAllPairs)
	// Two active temporal nodes, one reachable pair of distance 1.
	if st.ReachableFraction != 0.5 || st.Efficiency != 0.5 || st.MeanDistance != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Differential engine equivalence: the CSR-backed closeness and
// efficiency sweeps must return float-bit-identical results to the
// adjacency-map oracle (the underlying dist arrays are identical and
// both paths accumulate in the same order), across causal modes,
// worker counts and generator workloads.
func assertEnginesAgree(t *testing.T, g *egraph.IntEvolvingGraph, label string) {
	t.Helper()
	for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
		csr := Options{Mode: mode, Workers: 3}
		if got, want := GlobalEfficiencyOpts(g, csr), ReferenceEfficiency(g, mode); got != want {
			t.Fatalf("%s mode %v: GlobalEfficiency diverges:\ncsr  %+v\nmaps %+v", label, mode, got, want)
		}
		for i, root := range g.ActiveTemporalNodes() {
			if i%3 != 0 {
				continue // sample roots to keep the sweep cheap
			}
			got, err1 := TemporalClosenessOpts(g, root, csr)
			res, err2 := core.ReferenceBFS(g, []egraph.TemporalNode{root}, core.Options{Mode: mode})
			if err1 != nil || err2 != nil {
				t.Fatalf("%s mode %v: closeness errors: %v / %v", label, mode, err1, err2)
			}
			want := 0.0
			res.Visit(func(_ egraph.TemporalNode, d int) bool {
				if d > 0 {
					want += 1 / float64(d)
				}
				return true
			})
			if got != want {
				t.Fatalf("%s mode %v root %v: closeness diverges: csr %v, maps %v",
					label, mode, root, got, want)
			}
		}
	}
}

func TestEngineEquivalenceRandom(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		b := egraph.NewBuilder(directed)
		n := 2 + rng.Intn(8)
		stamps := 1 + rng.Intn(4)
		for e := 0; e < rng.Intn(3*n); e++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), int64(1+rng.Intn(stamps)))
		}
		b.AddEdge(0, 1, 1)
		assertEnginesAgree(t, b.Build(), "random")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineEquivalenceGeneratorWorkloads(t *testing.T) {
	cfg := gen.DefaultCitationConfig()
	cfg.Authors = 50
	cfg.Stamps = 6
	cite, _ := gen.Citation(cfg)
	assertEnginesAgree(t, cite, "citation")
	assertEnginesAgree(t, gen.GNP(30, 4, 0.05, true, 5), "gnp")
}
