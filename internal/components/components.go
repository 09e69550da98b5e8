// Package components computes connectivity structure over evolving
// graphs via the Theorem 1 unfolding:
//
//   - weakly connected temporal components (edge direction and time
//     ignored): the coarsest "who ever touches whom" partition;
//   - strongly connected temporal components: because causal edges only
//     ever point forward in time, every directed cycle of the unfolded
//     graph lies within a single stamp, so SCCs are per-snapshot
//     objects — a small structure theorem this package both exploits
//     and property-tests;
//   - out-components (Def. 7 reachability sets) and their size
//     distribution, the building block of Sec. V influence analysis.
//
// Every entry point traverses the graph's cached flat CSR view
// (Graph.CSR, DESIGN.md §8-9) by default: weak components union-find
// directly over CSR arcs, strong components run per-snapshot Tarjan off
// the CSR rows, and the size distribution fans its per-root BFS runs
// across a worker pool with pooled frontier scratch (core.ReachSweep).
// ReferenceWeak, ReferenceStrong and ReferenceSizeDistribution compute
// the same results through the original per-stamp adjacency traversal —
// slower, kept as the differential-testing oracles that the package's
// equivalence tests and cmd/egbench compare against.
package components

import (
	"sort"

	"repro/internal/core"
	"repro/internal/ds"
	"repro/internal/egraph"
)

// Component is a set of temporal nodes.
type Component []egraph.TemporalNode

// Options configures the component computations. The zero value is the
// paper's all-pairs causal mode with a GOMAXPROCS-wide sweep.
type Options struct {
	// Mode selects the causal edge set. Weak and out-component structure
	// is identical in both modes (causal reachability is transitive);
	// the option exists so differential tests can exercise both unfolded
	// edge sets.
	Mode egraph.CausalMode
	// Workers bounds the fan-out of SizeDistribution's per-root BFS
	// sweep; 0 means GOMAXPROCS.
	Workers int
}

// Weak returns the weakly connected components of the evolving graph's
// unfolding: temporal nodes joined by static or causal edges in either
// direction. Components are sorted by decreasing size (ties: by first
// member); members are in stamp-major order.
func Weak(g *egraph.IntEvolvingGraph, mode egraph.CausalMode) []Component {
	return WeakOpts(g, Options{Mode: mode})
}

// WeakOpts is Weak taking Options.
func WeakOpts(g *egraph.IntEvolvingGraph, opts Options) []Component {
	return weakCSR(g, opts.Mode)
}

// weakCSR computes weak components by union-find straight over the CSR
// view: every static out-arc and forward causal arc of every active
// temporal node is one Union call (unions are symmetric, so one
// direction per arc suffices; undirected graphs already carry both
// directions in their out rows).
func weakCSR(g *egraph.IntEvolvingGraph, mode egraph.CausalMode) []Component {
	csr := g.CSR()
	n := int32(csr.N)
	consecutive := mode == egraph.CausalConsecutive
	uf := ds.NewUnionFind(csr.Size())
	for id := csr.Active.NextSet(0); id >= 0; id = csr.Active.NextSet(id + 1) {
		for _, nb := range csr.OutArcs(int32(id)) {
			uf.Union(id, int(nb))
		}
		stamps, v := csr.CausalArcs(int32(id), true, consecutive)
		for _, s := range stamps {
			uf.Union(id, int(s*n+v))
		}
	}
	// Group active ids by root; stamp-major id order keeps every
	// component's member list sorted as it is built.
	groups := make(map[int][]int)
	for id := csr.Active.NextSet(0); id >= 0; id = csr.Active.NextSet(id + 1) {
		r := uf.Find(id)
		groups[r] = append(groups[r], id)
	}
	out := make([]Component, 0, len(groups))
	for _, ids := range groups {
		comp := make(Component, len(ids))
		for i, id := range ids {
			comp[i] = egraph.TemporalNode{Node: int32(id) % n, Stamp: int32(id) / n}
		}
		out = append(out, comp)
	}
	sortComponents(out)
	return out
}

// ReferenceWeak is the differential-testing oracle for Weak: union-find
// over the materialised Theorem 1 unfolding. Only tests call it.
func ReferenceWeak(g *egraph.IntEvolvingGraph, mode egraph.CausalMode) []Component {
	u := g.Unfold(mode)
	n := u.Graph.NumNodes()
	uf := ds.NewUnionFind(n)
	for v := 0; v < n; v++ {
		for _, w := range u.Graph.Neighbors(int32(v)) {
			uf.Union(v, int(w))
		}
	}
	groups := make(map[int][]int, uf.Sets())
	for v := 0; v < n; v++ {
		r := uf.Find(v)
		groups[r] = append(groups[r], v)
	}
	out := make([]Component, 0, len(groups))
	for _, ids := range groups {
		comp := make(Component, len(ids))
		for i, id := range ids {
			comp[i] = u.Order[id]
		}
		out = append(out, comp)
	}
	sortComponents(out)
	return out
}

// Strong returns the strongly connected components of the unfolding with
// at least minSize members. Because the unfolded graph's cross-stamp
// edges are acyclic, this runs Tarjan's algorithm independently on each
// snapshot's active subgraph; TestStrongMatchesGenericTarjan verifies the
// shortcut against a direct Tarjan on the whole unfolding. Causal mode is
// irrelevant: causal edges cannot close cycles.
func Strong(g *egraph.IntEvolvingGraph, minSize int) []Component {
	return StrongOpts(g, minSize, Options{})
}

// StrongOpts is Strong taking Options; no option changes the result.
func StrongOpts(g *egraph.IntEvolvingGraph, minSize int, opts Options) []Component {
	return strongCSR(g, max(minSize, 1))
}

// strongCSR runs the per-snapshot Tarjan over the CSR rows: each
// snapshot's active nodes get dense local ids through one reusable index
// array, and adjacency comes from the pre-rebased OutArcs rows — no maps
// and no per-visit neighbour lookups.
func strongCSR(g *egraph.IntEvolvingGraph, minSize int) []Component {
	csr := g.CSR()
	n := csr.N
	index := make([]int32, n)
	var ids []int32
	var out []Component
	for t := 0; t < csr.T; t++ {
		base := t * n
		act := g.ActiveNodes(t)
		ids = ids[:0]
		for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
			index[v] = int32(len(ids))
			ids = append(ids, int32(v))
		}
		adj := make([][]int32, len(ids))
		for i, v := range ids {
			row := csr.OutArcs(int32(base + int(v)))
			if len(row) == 0 {
				continue
			}
			local := make([]int32, len(row))
			for j, w := range row {
				local[j] = index[int(w)-base]
			}
			adj[i] = local
		}
		out = appendSCCs(out, adj, ids, int32(t), minSize)
	}
	sortComponents(out)
	return out
}

// ReferenceStrong is the differential-testing oracle for Strong: the
// same per-snapshot Tarjan over the per-stamp adjacency maps. Only
// tests call it.
func ReferenceStrong(g *egraph.IntEvolvingGraph, minSize int) []Component {
	minSize = max(minSize, 1)
	var out []Component
	for t := 0; t < g.NumStamps(); t++ {
		act := g.ActiveNodes(t)
		ids := make([]int32, 0, act.Count())
		index := make(map[int32]int32)
		for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
			index[int32(v)] = int32(len(ids))
			ids = append(ids, int32(v))
		}
		adj := make([][]int32, len(ids))
		for i, v := range ids {
			for _, w := range g.OutNeighbors(v, int32(t)) {
				adj[i] = append(adj[i], index[w])
			}
		}
		out = appendSCCs(out, adj, ids, int32(t), minSize)
	}
	sortComponents(out)
	return out
}

// appendSCCs converts one snapshot's Tarjan output to Components,
// dropping those below minSize.
func appendSCCs(out []Component, adj [][]int32, ids []int32, stamp int32, minSize int) []Component {
	for _, scc := range tarjan(adj) {
		if len(scc) < minSize {
			continue
		}
		comp := make(Component, len(scc))
		for i, li := range scc {
			comp[i] = egraph.TemporalNode{Node: ids[li], Stamp: stamp}
		}
		sort.Slice(comp, func(a, b int) bool { return comp[a].Node < comp[b].Node })
		out = append(out, comp)
	}
	return out
}

// OutComponent returns the reachability set of an active temporal node
// (Def. 7) as a Component, root included, sorted stamp-major.
func OutComponent(g *egraph.IntEvolvingGraph, root egraph.TemporalNode, mode egraph.CausalMode) (Component, error) {
	return OutComponentOpts(g, root, Options{Mode: mode})
}

// OutComponentOpts is OutComponent taking Options.
func OutComponentOpts(g *egraph.IntEvolvingGraph, root egraph.TemporalNode, opts Options) (Component, error) {
	res, err := core.BFS(g, root, core.Options{Mode: opts.Mode})
	if err != nil {
		return nil, err
	}
	comp := make(Component, 0, res.NumReached())
	// Visit iterates temporal-node ids ascending — already stamp-major.
	res.Visit(func(tn egraph.TemporalNode, _ int) bool {
		comp = append(comp, tn)
		return true
	})
	return comp, nil
}

// SizeDistribution returns the multiset of out-component sizes over all
// active temporal nodes, sorted descending — the influence profile of
// the graph. Cost is one BFS per active temporal node, fanned across
// workers with pooled scratch.
func SizeDistribution(g *egraph.IntEvolvingGraph, mode egraph.CausalMode) []int {
	return SizeDistributionOpts(g, Options{Mode: mode})
}

// SizeDistributionOpts is SizeDistribution with worker control.
func SizeDistributionOpts(g *egraph.IntEvolvingGraph, opts Options) []int {
	roots := g.ActiveTemporalNodes()
	sizes := make([]int, len(roots))
	// Roots are active by construction, so the sweep cannot fail.
	_ = core.ReachSweep(g, roots, core.Options{Mode: opts.Mode}, opts.Workers,
		func(i int, reached []int32) { sizes[i] = len(reached) })
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// ReferenceSizeDistribution is the differential-testing oracle for
// SizeDistribution: one sequential core.ReferenceBFS per active temporal
// node. Only tests and cmd/egbench call it.
func ReferenceSizeDistribution(g *egraph.IntEvolvingGraph, mode egraph.CausalMode) []int {
	roots := g.ActiveTemporalNodes()
	sizes := make([]int, len(roots))
	for i, root := range roots {
		res, err := core.ReferenceBFS(g, []egraph.TemporalNode{root}, core.Options{Mode: mode})
		if err != nil {
			continue // unreachable: roots are active by construction
		}
		sizes[i] = res.NumReached()
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// sortComponents orders by decreasing size, then by first member.
func sortComponents(cs []Component) {
	for _, c := range cs {
		sort.Slice(c, func(a, b int) bool {
			if c[a].Stamp != c[b].Stamp {
				return c[a].Stamp < c[b].Stamp
			}
			return c[a].Node < c[b].Node
		})
	}
	sort.Slice(cs, func(i, j int) bool {
		if len(cs[i]) != len(cs[j]) {
			return len(cs[i]) > len(cs[j])
		}
		a, b := cs[i][0], cs[j][0]
		if a.Stamp != b.Stamp {
			return a.Stamp < b.Stamp
		}
		return a.Node < b.Node
	})
}

// tarjan computes strongly connected components of a digraph given as
// adjacency lists, iteratively (no recursion, safe for deep graphs).
// Components are emitted in reverse topological order.
func tarjan(adj [][]int32) [][]int32 {
	n := len(adj)
	const unset = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unset
	}
	var (
		stack   []int32 // Tarjan stack
		sccs    [][]int32
		counter int32
	)
	type frame struct {
		v  int32
		ei int // next edge index to explore
	}
	var call []frame
	for s := 0; s < n; s++ {
		if index[s] != unset {
			continue
		}
		call = append(call[:0], frame{v: int32(s)})
		index[s] = counter
		low[s] = counter
		counter++
		stack = append(stack, int32(s))
		onStack[s] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if index[w] == unset {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Post-order: pop the frame, emit an SCC if v is a root.
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var scc []int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}

// TarjanStatic exposes the generic Tarjan over an unfolded static graph,
// used by tests to validate the per-snapshot shortcut of Strong.
func TarjanStatic(g *egraph.StaticGraph) [][]int32 {
	adj := make([][]int32, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		adj[v] = g.Neighbors(int32(v))
	}
	return tarjan(adj)
}
