// Package rank implements ranking measures over evolving graphs:
//
//   - EvolvingPageRank: per-snapshot PageRank maintained as the graph
//     evolves, with warm-started power iteration — the workload of the
//     paper's ref. [2] (Bahmani, Kumar, Mahdian, Upfal: "PageRank on an
//     evolving graph"). Warm starting from the previous stamp's vector
//     is the incremental trick; the package benchmark shows it cutting
//     iteration counts vs cold starts while converging to the same
//     ranking.
//   - TemporalKatz: Katz centrality over the unfolded temporal graph,
//     computed as the power series Σ_k α^k (A_nᵀ)^k 1 (never
//     materialising A_n). On acyclic snapshots A_n is nilpotent
//     (Lemma 1) and the series is exact and finite.
//
// TemporalKatz evaluates its series terms by a neighbour gather over
// the graph's cached flat CSR view (DESIGN.md §8-9); ReferenceKatz runs
// the same series through the assembled block matrix kernel — the
// differential-testing oracle, bit-identical scores.
// EvolvingPageRank is per-snapshot by construction and runs directly on
// the per-stamp adjacency.
package rank

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/egraph"
)

// PageRankOptions configures the per-snapshot PageRank iteration.
type PageRankOptions struct {
	// Damping is the teleport-complement factor (default 0.85).
	Damping float64
	// Tol is the L1 convergence threshold (default 1e-10).
	Tol float64
	// MaxIter caps power iterations per snapshot (default 200).
	MaxIter int
	// ColdStart disables warm starting from the previous stamp's
	// vector (the ablation baseline).
	ColdStart bool
}

func (o *PageRankOptions) defaults() {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter == 0 {
		o.MaxIter = 200
	}
}

// PageRankResult holds one PageRank vector per stamp plus the iteration
// counts the solver needed (the warm-start advantage shows up there).
type PageRankResult struct {
	// Scores[t][v] is node v's PageRank in snapshot t (restricted to
	// nodes active at t; inactive nodes hold 0).
	Scores [][]float64
	// Iterations[t] is the number of power iterations snapshot t took.
	Iterations []int
}

// TotalIterations sums the per-stamp iteration counts.
func (r *PageRankResult) TotalIterations() int {
	total := 0
	for _, it := range r.Iterations {
		total += it
	}
	return total
}

// EvolvingPageRank computes PageRank for every snapshot of g. Each
// snapshot's walk lives on its active nodes; dangling active nodes
// teleport uniformly. Unless ColdStart is set, stamp t's iteration is
// seeded with stamp t-1's vector (re-normalised over the new active
// set), which converges in far fewer sweeps when consecutive snapshots
// overlap — the ref. [2] observation.
func EvolvingPageRank(g *egraph.IntEvolvingGraph, opts PageRankOptions) (*PageRankResult, error) {
	opts.defaults()
	if opts.Damping <= 0 || opts.Damping >= 1 {
		return nil, fmt.Errorf("rank: damping %g outside (0,1)", opts.Damping)
	}
	n := g.NumNodes()
	res := &PageRankResult{
		Scores:     make([][]float64, g.NumStamps()),
		Iterations: make([]int, g.NumStamps()),
	}
	var prev []float64
	for t := 0; t < g.NumStamps(); t++ {
		act := g.ActiveNodes(t)
		m := act.Count()
		if m == 0 {
			res.Scores[t] = make([]float64, n)
			continue
		}
		x := make([]float64, n)
		if prev != nil && !opts.ColdStart {
			// Warm start: carry the previous vector over the new active
			// set, topping up newly active nodes uniformly.
			var mass float64
			for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
				x[v] = prev[v]
				mass += prev[v]
			}
			if mass > 0 {
				for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
					if x[v] == 0 {
						x[v] = mass / float64(m) // seed newcomers
					}
				}
			}
			normalize(x, act)
		} else {
			u := 1 / float64(m)
			for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
				x[v] = u
			}
		}

		next := make([]float64, n)
		iters := 0
		for ; iters < opts.MaxIter; iters++ {
			var dangling float64
			for i := range next {
				next[i] = 0
			}
			for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
				out := g.OutNeighbors(int32(v), int32(t))
				if len(out) == 0 {
					dangling += x[v]
					continue
				}
				share := x[v] / float64(len(out))
				for _, w := range out {
					next[w] += share
				}
			}
			teleport := (1 - opts.Damping) / float64(m)
			danglingShare := opts.Damping * dangling / float64(m)
			var delta float64
			for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
				nv := opts.Damping*next[v] + teleport + danglingShare
				delta += math.Abs(nv - x[v])
				next[v] = nv
			}
			// Zero any mass that leaked to inactive targets (cannot
			// happen: out-neighbours at stamp t are active by Def. 3).
			x, next = next, x
			for i := range next {
				next[i] = 0
			}
			if delta < opts.Tol {
				iters++
				break
			}
		}
		res.Iterations[t] = iters
		normalize(x, act)
		res.Scores[t] = x
		prev = x
	}
	return res, nil
}

func normalize(x []float64, act interface {
	NextSet(int) int
}) {
	var sum float64
	for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
		sum += x[v]
	}
	if sum == 0 {
		return
	}
	for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
		x[v] /= sum
	}
}

// KatzOptions configures the temporal Katz computation.
type KatzOptions struct {
	// Alpha is the walk attenuation (default 0.1). For graphs with
	// cyclic snapshots it must satisfy α·ρ(A_n) < 1 to converge.
	Alpha float64
	// Mode selects the causal edge set.
	Mode egraph.CausalMode
	// Tol stops the series when a term's L1 mass falls below it
	// (default 1e-12).
	Tol float64
	// MaxTerms caps the series length (default 10·stamps + 100).
	MaxTerms int
}

// ErrKatzDiverged is returned when the power series fails to attenuate
// within MaxTerms (α too large for a cyclic graph).
var ErrKatzDiverged = errors.New("rank: Katz series did not converge (alpha too large?)")

// TemporalKatz returns, for every temporal node id (stamp-major t·N+v),
// the Katz score Σ_k α^k · (#temporal walks of length k ending there,
// from anywhere). High scores mark temporal nodes that many temporal
// paths flow into. The series terms are evaluated by an A_nᵀ
// neighbour-gather over the graph's flat CSR view; inactive slots
// stay 0.
func TemporalKatz(g *egraph.IntEvolvingGraph, opts KatzOptions) ([]float64, error) {
	csr := g.CSR()
	consecutive := opts.Mode == egraph.CausalConsecutive
	return katz(g, opts, func(dst, src []float64) { csrTMatVec(csr, consecutive, dst, src) })
}

// ReferenceKatz is the differential-testing oracle for TemporalKatz: the
// same series with its terms evaluated through the assembled block
// matrix A_nᵀ (matrix.Block.TMatVec). Only tests call it.
func ReferenceKatz(g *egraph.IntEvolvingGraph, opts KatzOptions) ([]float64, error) {
	return katz(g, opts, g.BlockMatrix(opts.Mode).TMatVec)
}

// katz sums the Katz power series, computing each term from the last
// with kernel (dst = A_nᵀ·src).
func katz(g *egraph.IntEvolvingGraph, opts KatzOptions, kernel func(dst, src []float64)) ([]float64, error) {
	if opts.Alpha == 0 {
		opts.Alpha = 0.1
	}
	if opts.Alpha < 0 {
		return nil, fmt.Errorf("rank: negative alpha %g", opts.Alpha)
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-12
	}
	if opts.MaxTerms == 0 {
		opts.MaxTerms = 10*g.NumStamps() + 100
	}
	dim := g.NumStamps() * g.NumNodes()
	// Seed with 1 on every *active* temporal node.
	term := make([]float64, dim)
	for t := 0; t < g.NumStamps(); t++ {
		act := g.ActiveNodes(t)
		for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
			term[t*g.NumNodes()+v] = 1
		}
	}
	score := append([]float64(nil), term...)
	next := make([]float64, dim)
	for k := 1; k <= opts.MaxTerms; k++ {
		kernel(next, term)
		var mass float64
		for i := range next {
			next[i] *= opts.Alpha
			mass += math.Abs(next[i])
		}
		if mass < opts.Tol {
			return score, nil
		}
		for i := range next {
			score[i] += next[i]
		}
		term, next = next, term
	}
	return nil, ErrKatzDiverged
}

// csrTMatVec computes dst = A_nᵀ·src by gathering over the flat CSR
// view: the score flowing into temporal node (v, t) is the sum of src
// over v's static in-neighbours at t (ascending) plus v's earlier
// active stamps (ascending; just the previous one under consecutive
// mode). That is exactly the accumulation order of the block kernel —
// matrix.Block.TMatVec runs the diagonal CSC column sum first, then the
// ⊙-masked causal blocks in ascending stamp order — so the two kernels
// produce bit-identical floating-point results, which the package's
// differential test asserts. Inactive slots are written 0, matching the
// block kernel's empty columns.
func csrTMatVec(csr *egraph.CSR, consecutive bool, dst, src []float64) {
	n := int32(csr.N)
	for id := range dst {
		if csr.ActPos[id] < 0 {
			dst[id] = 0
			continue
		}
		var s float64
		for _, u := range csr.InArcs(int32(id)) {
			s += src[u]
		}
		stamps, v := csr.CausalArcs(int32(id), false, consecutive)
		for _, t := range stamps {
			if x := src[t*n+v]; x != 0 {
				s += x
			}
		}
		dst[id] = s
	}
}
