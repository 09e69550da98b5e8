// Package metrics implements the related-work measures the paper
// explicitly contrasts its BFS distance against, plus centrality indices
// built on top of the core BFS:
//
//   - Tang-style temporal distance (refs [4],[8]): the number of time
//     steps, inclusive, needed to reach a node when one static hop may be
//     taken per stamp. The paper's Def. 6 distance counts edges instead.
//   - Grindrod–Higham dynamic-walk distance (refs [9],[10]): static hops
//     cost 1, waiting (causal edges) is free — "causal edges … are only
//     implicitly included in dynamic walks and are not counted toward
//     the length".
//   - Grindrod–Higham dynamic communicability (the matrix iteration
//     Q = Π (I − αA[t])⁻¹), with broadcast/receive centralities.
//   - Temporal closeness and temporal betweenness over the evolving
//     graph, computed with the paper's BFS.
//
// Having these executable side by side demonstrates that the three
// distance notions genuinely disagree (see the package tests).
//
// The BFS-backed centralities (TemporalCloseness, GlobalEfficiency) run
// on the graph's cached flat CSR view (DESIGN.md §8-9), with
// GlobalEfficiency fanning its one-BFS-per-root sweep across a worker
// pool; ReferenceEfficiency is its sequential adjacency-map oracle.
// Per-root contributions are always combined in root order, so results
// are bit-identical across engines and worker counts.
package metrics

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ds"
	"repro/internal/egraph"
	"repro/internal/matrix"
)

// Options configures the BFS-backed centrality computations. The zero
// value is the paper's all-pairs causal mode with a GOMAXPROCS-wide
// sweep.
type Options struct {
	// Mode selects the causal edge set.
	Mode egraph.CausalMode
	// Workers bounds the fan-out of GlobalEfficiency's per-root sweep;
	// 0 means GOMAXPROCS.
	Workers int
}

// Unreachable is returned as a distance when no journey exists.
const Unreachable = -1

// TangTemporalDistance returns the Tang-style temporal distance from
// temporal node (v, t) to node w: the minimum number of stamps, counted
// inclusively from stamp t, needed to reach w when within each stamp a
// frontier may advance by at most one static hop (and waiting in place is
// free). Reaching w at stamp t itself (w == v) costs 1, matching the
// inclusive convention of Tang et al. Returns Unreachable if no journey
// exists.
func TangTemporalDistance(g *egraph.IntEvolvingGraph, from egraph.TemporalNode, w int32) int {
	if from.Node < 0 || int(from.Node) >= g.NumNodes() || w < 0 || int(w) >= g.NumNodes() ||
		from.Stamp < 0 || int(from.Stamp) >= g.NumStamps() {
		return Unreachable
	}
	cur := ds.NewBitSet(g.NumNodes())
	cur.Set(int(from.Node))
	if from.Node == w {
		return 1
	}
	for s := from.Stamp; s < int32(g.NumStamps()); s++ {
		next := cur.Clone() // waiting is free
		for vi := cur.NextSet(0); vi >= 0; vi = cur.NextSet(vi + 1) {
			for _, nb := range g.OutNeighbors(int32(vi), s) {
				next.Set(int(nb))
			}
		}
		if next.Get(int(w)) {
			return int(s-from.Stamp) + 1
		}
		cur = next
	}
	return Unreachable
}

// DynamicWalkDistance returns the Grindrod–Higham style distance from
// `from` to `to`: the minimum number of *static* hops over all temporal
// paths — causal hops are free. Returns Unreachable when no temporal
// path exists.
func DynamicWalkDistance(g *egraph.IntEvolvingGraph, from, to egraph.TemporalNode, mode egraph.CausalMode) (int, error) {
	res, err := core.WeightedShortestPaths(g, from, core.WeightedOptions{Mode: mode, CausalWeight: 0})
	if err != nil {
		return Unreachable, err
	}
	if !res.Reached(to) {
		return Unreachable, nil
	}
	return int(res.Dist(to)), nil
}

// PaperDistance returns the paper's Def. 6 distance (static + causal
// hops), or Unreachable.
func PaperDistance(g *egraph.IntEvolvingGraph, from, to egraph.TemporalNode, mode egraph.CausalMode) (int, error) {
	res, err := core.BFS(g, from, core.Options{Mode: mode})
	if err != nil {
		return Unreachable, err
	}
	return res.Dist(to), nil
}

// DynamicCommunicability computes the Grindrod–Higham matrix iteration
// Q = (I − αA[t1])⁻¹ (I − αA[t2])⁻¹ ··· (I − αA[tn])⁻¹ over the
// per-stamp adjacency matrices. α must satisfy α·ρ(A[t]) < 1 for every
// stamp; callers typically take α below 1/max-degree. Q[i][j] measures
// the weight of dynamic walks from i to j.
func DynamicCommunicability(g *egraph.IntEvolvingGraph, alpha float64) (*matrix.Dense, error) {
	if alpha <= 0 {
		return nil, errors.New("metrics: alpha must be positive")
	}
	n := g.NumNodes()
	q := matrix.Identity(n)
	for t := 0; t < g.NumStamps(); t++ {
		a := matrix.NewDense(n, n)
		g.VisitEdges(int32(t), func(u, v int32, _ float64) bool {
			a.Set(int(u), int(v), 1)
			if !g.Directed() {
				a.Set(int(v), int(u), 1)
			}
			return true
		})
		factor := matrix.Identity(n).Sub(a.Scale(alpha))
		inv, err := factor.Inverse()
		if err != nil {
			return nil, fmt.Errorf("metrics: resolvent at stamp %d: %w (alpha too large?)", t, err)
		}
		q = q.Mul(inv)
	}
	return q, nil
}

// BroadcastCentrality returns the row sums of the dynamic
// communicability matrix: how effectively each node seeds information.
func BroadcastCentrality(q *matrix.Dense) []float64 {
	r, c := q.Dims()
	out := make([]float64, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out[i] += q.At(i, j)
		}
	}
	return out
}

// ReceiveCentrality returns the column sums of the dynamic
// communicability matrix: how effectively each node collects information.
func ReceiveCentrality(q *matrix.Dense) []float64 {
	r, c := q.Dims()
	out := make([]float64, c)
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			out[j] += q.At(i, j)
		}
	}
	return out
}

// TemporalCloseness returns the closeness centrality of an active
// temporal node: Σ 1/d over all temporal nodes at positive distance d
// from it (harmonic convention, so disconnected pairs contribute 0).
func TemporalCloseness(g *egraph.IntEvolvingGraph, root egraph.TemporalNode, mode egraph.CausalMode) (float64, error) {
	return TemporalClosenessOpts(g, root, Options{Mode: mode})
}

// TemporalClosenessOpts is TemporalCloseness taking Options. The
// harmonic sum is accumulated in temporal-node id order, so the value
// is bit-identical to the same sum over core.ReferenceBFS.
func TemporalClosenessOpts(g *egraph.IntEvolvingGraph, root egraph.TemporalNode, opts Options) (float64, error) {
	res, err := core.BFS(g, root, core.Options{Mode: opts.Mode})
	if err != nil {
		return 0, err
	}
	return closenessOf(res), nil
}

// closenessOf accumulates Σ 1/d over a BFS result in temporal-node id
// order (the Visit order) — kept in one place so every sweep sums
// identically.
func closenessOf(res *core.Result) float64 {
	sum := 0.0
	res.Visit(func(_ egraph.TemporalNode, d int) bool {
		if d > 0 {
			sum += 1 / float64(d)
		}
		return true
	})
	return sum
}

// EfficiencyStats summarises global temporal-connectivity efficiency.
type EfficiencyStats struct {
	// Efficiency is the mean of 1/d over all ordered pairs of distinct
	// active temporal nodes (0 for unreachable pairs) — the temporal
	// analogue of global network efficiency.
	Efficiency float64
	// ReachableFraction is the fraction of ordered pairs with a
	// temporal path.
	ReachableFraction float64
	// MeanDistance is the mean Def. 6 distance over reachable pairs
	// (0 when no pair is reachable).
	MeanDistance float64
	// Diameter is the largest finite distance.
	Diameter int
}

// GlobalEfficiency computes EfficiencyStats with one BFS per active
// temporal node (analysis scale).
func GlobalEfficiency(g *egraph.IntEvolvingGraph, mode egraph.CausalMode) EfficiencyStats {
	return GlobalEfficiencyOpts(g, Options{Mode: mode})
}

// sourcePartial is one root's contribution to the efficiency sweep.
type sourcePartial struct {
	eff, dist float64
	reachable int
	ecc       int
}

// GlobalEfficiencyOpts is GlobalEfficiency with worker control. The
// per-root searches are fanned across Workers goroutines; each root's
// contribution is accumulated in temporal-node id order and the
// partials are combined in root order, so the result is bit-identical
// across worker counts and to ReferenceEfficiency.
func GlobalEfficiencyOpts(g *egraph.IntEvolvingGraph, opts Options) EfficiencyStats {
	roots := g.ActiveTemporalNodes()
	n := len(roots)
	if n < 2 {
		return EfficiencyStats{}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	parts := make([]sourcePartial, n)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				res, err := core.BFS(g, roots[i], core.Options{Mode: opts.Mode})
				if err != nil {
					continue // unreachable: roots are active by construction
				}
				parts[i] = partialOf(res)
			}
		}()
	}
	wg.Wait()
	return combinePartials(parts)
}

// ReferenceEfficiency is the differential-testing oracle for
// GlobalEfficiency: the pre-CSR implementation, one sequential
// core.ReferenceBFS per active temporal node. Only tests and
// cmd/egbench call it.
func ReferenceEfficiency(g *egraph.IntEvolvingGraph, mode egraph.CausalMode) EfficiencyStats {
	roots := g.ActiveTemporalNodes()
	if len(roots) < 2 {
		return EfficiencyStats{}
	}
	parts := make([]sourcePartial, len(roots))
	for i, root := range roots {
		res, err := core.ReferenceBFS(g, []egraph.TemporalNode{root}, core.Options{Mode: mode})
		if err != nil {
			continue // unreachable: roots are active by construction
		}
		parts[i] = partialOf(res)
	}
	return combinePartials(parts)
}

// partialOf accumulates one root's contribution in Visit order.
func partialOf(res *core.Result) sourcePartial {
	var p sourcePartial
	res.Visit(func(_ egraph.TemporalNode, d int) bool {
		if d > 0 {
			p.eff += 1 / float64(d)
			p.dist += float64(d)
			p.reachable++
			if d > p.ecc {
				p.ecc = d
			}
		}
		return true
	})
	return p
}

// combinePartials sums per-root partials in root order.
func combinePartials(parts []sourcePartial) EfficiencyStats {
	var st EfficiencyStats
	var effSum, distSum float64
	reachable := 0
	for i := range parts {
		effSum += parts[i].eff
		distSum += parts[i].dist
		reachable += parts[i].reachable
		if parts[i].ecc > st.Diameter {
			st.Diameter = parts[i].ecc
		}
	}
	n := len(parts)
	pairs := float64(n * (n - 1))
	st.Efficiency = effSum / pairs
	st.ReachableFraction = float64(reachable) / pairs
	if reachable > 0 {
		st.MeanDistance = distSum / float64(reachable)
	}
	return st
}
