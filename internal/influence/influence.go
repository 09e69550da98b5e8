// Package influence selects maximally influential seed sets on evolving
// graphs, extending the paper's Sec. V citation mining from "who did a
// influence?" (one BFS) to "which K authors jointly influence the most?"
//
// The objective — the number of distinct nodes covered by the union of
// the seeds' influence sets T(a, t) — is monotone and submodular, so
// greedy selection is a (1 − 1/e)-approximation (Nemhauser et al.). The
// implementation uses CELF lazy evaluation (Leskovec et al.): marginal
// gains only shrink as the covered set grows, so a stale heap priority
// is an upper bound and most re-evaluations are skipped.
//
// Influence sets are materialised once as per-source node bitsets via
// the paper's BFS from each node's earliest active stamp. The searches
// run on the graph's cached flat CSR view (DESIGN.md §8-9), evaluated
// concurrently across a worker pool with pooled frontier scratch
// (core.ReachSweep); ReferenceGreedy and ReferenceSpread instead run one
// adjacency-map BFS per candidate — the differential-testing oracles,
// producing bit-identical reach sets, seeds and spreads. Either way the
// cost is one O(|E| + |V|) search per candidate and |V|²/8 bytes of
// bitsets — exact and fine at mining scale; use internal/sketch for
// read-only influence *ranking* on graphs too large to materialise.
package influence

import (
	"container/heap"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/ds"
	"repro/internal/egraph"
)

// Options configures seed selection.
type Options struct {
	// Mode selects the causal edge set; reachability (and therefore
	// influence) is identical in both modes.
	Mode egraph.CausalMode
	// ReverseEdges flips static edges, the citation-network convention:
	// an edge i→j records "i cites j", so influence flows j→i (Sec. V).
	ReverseEdges bool
	// Candidates restricts the seed pool to these nodes; nil means
	// every active node is a candidate.
	Candidates []int32
	// Workers bounds the concurrency of reach-set evaluation; 0 means
	// GOMAXPROCS. The Reference oracles ignore it.
	Workers int
}

// Seed is one greedy selection step.
type Seed struct {
	// Node is the selected seed.
	Node int32
	// Gain is the number of nodes newly covered by this seed.
	Gain int
	// Covered is the cumulative coverage after adding this seed.
	Covered int
}

// Greedy picks up to k seeds maximising joint influence coverage. It
// stops early when every remaining candidate has zero marginal gain.
// Nodes that are never active cannot influence anything and are skipped.
func Greedy(g *egraph.IntEvolvingGraph, k int, opts Options) ([]Seed, error) {
	return greedy(g, k, opts, reachSets)
}

// ReferenceGreedy is the differential-testing oracle for Greedy: the
// same CELF selection over reach sets from one sequential
// core.ReferenceBFS plus a full temporal-node scan per candidate. Only
// tests and cmd/egbench call it.
func ReferenceGreedy(g *egraph.IntEvolvingGraph, k int, opts Options) ([]Seed, error) {
	return greedy(g, k, opts, referenceReachSets)
}

// greedy is Greedy over the reach-set evaluator sets.
func greedy(g *egraph.IntEvolvingGraph, k int, opts Options,
	sets func(*egraph.IntEvolvingGraph, []int32, Options) (map[int32]*ds.BitSet, error)) ([]Seed, error) {
	if k <= 0 {
		return nil, fmt.Errorf("influence: k must be positive, got %d", k)
	}
	candidates := opts.Candidates
	if candidates == nil {
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if len(g.ActiveStamps(v)) > 0 {
				candidates = append(candidates, v)
			}
		}
	} else {
		for _, v := range candidates {
			if v < 0 || int(v) >= g.NumNodes() {
				return nil, fmt.Errorf("influence: candidate %d out of range (n=%d)", v, g.NumNodes())
			}
		}
	}

	reach, err := sets(g, candidates, opts)
	if err != nil {
		return nil, err
	}

	// CELF: heap of (stale gain, node, round-evaluated). A candidate
	// whose priority was computed in the current round is exact and
	// can be taken immediately; otherwise re-evaluate and push back.
	h := &gainHeap{}
	for v, r := range reach {
		heap.Push(h, gainEntry{node: v, gain: r.Count(), round: 0})
	}
	covered := ds.NewBitSet(g.NumNodes())
	var seeds []Seed
	for round := 1; len(seeds) < k && h.Len() > 0; {
		top := heap.Pop(h).(gainEntry)
		if top.round == round {
			if top.gain == 0 {
				break // submodularity: nobody can do better than 0
			}
			covered.Or(reach[top.node])
			seeds = append(seeds, Seed{Node: top.node, Gain: top.gain, Covered: covered.Count()})
			round++
			continue
		}
		// Lazy re-evaluation: AndNotCount counts the uncovered bits of
		// the candidate's reach set without cloning it, so CELF rounds
		// allocate nothing.
		top.gain = reach[top.node].AndNotCount(covered)
		top.round = round
		heap.Push(h, top)
	}
	return seeds, nil
}

// Spread returns the exact joint coverage of an arbitrary seed set: the
// number of distinct nodes influenced by at least one seed. Unlike
// Greedy it never holds per-seed reach sets — every search folds
// straight into one covered bitset — so memory stays O(|V|/8) however
// many seeds are passed.
func Spread(g *egraph.IntEvolvingGraph, seeds []int32, opts Options) (int, error) {
	if err := checkSeeds(g, seeds); err != nil {
		return 0, err
	}
	n := g.NumNodes()
	covered := ds.NewBitSet(n)
	roots := make([]egraph.TemporalNode, 0, len(seeds))
	for _, v := range seeds {
		if stamps := g.ActiveStamps(v); len(stamps) > 0 {
			roots = append(roots, egraph.TemporalNode{Node: v, Stamp: stamps[0]})
		}
	}
	var mu sync.Mutex
	err := core.ReachSweep(g, roots, core.Options{Mode: opts.Mode, ReverseEdges: opts.ReverseEdges},
		opts.Workers, func(_ int, reached []int32) {
			mu.Lock()
			for _, id := range reached {
				covered.Set(int(id) % n) // temporal id t·N+v → node v
			}
			mu.Unlock()
		})
	if err != nil {
		return 0, err // unreachable: roots are earliest active stamps
	}
	return covered.Count(), nil
}

// ReferenceSpread is the differential-testing oracle for Spread: the
// union of one core.ReferenceBFS reach set per seed. Only tests call
// it.
func ReferenceSpread(g *egraph.IntEvolvingGraph, seeds []int32, opts Options) (int, error) {
	if err := checkSeeds(g, seeds); err != nil {
		return 0, err
	}
	covered := ds.NewBitSet(g.NumNodes())
	for _, v := range seeds {
		r, err := referenceReachSet(g, v, opts)
		if err != nil {
			return 0, err
		}
		if r != nil {
			covered.Or(r)
		}
	}
	return covered.Count(), nil
}

// checkSeeds rejects seed ids outside the graph's node range.
func checkSeeds(g *egraph.IntEvolvingGraph, seeds []int32) error {
	for _, v := range seeds {
		if v < 0 || int(v) >= g.NumNodes() {
			return fmt.Errorf("influence: seed %d out of range (n=%d)", v, g.NumNodes())
		}
	}
	return nil
}

// reachSets materialises the per-candidate influence bitsets: candidate
// v covers node w iff some (w, s) is reachable from v's earliest active
// temporal node. Never-active candidates are skipped (no map entry). The
// sets come from concurrent CSR reach sweeps.
func reachSets(g *egraph.IntEvolvingGraph, candidates []int32, opts Options) (map[int32]*ds.BitSet, error) {
	out := make(map[int32]*ds.BitSet, len(candidates))
	nodes := make([]int32, 0, len(candidates))
	roots := make([]egraph.TemporalNode, 0, len(candidates))
	for _, v := range candidates {
		stamps := g.ActiveStamps(v)
		if len(stamps) == 0 {
			continue
		}
		nodes = append(nodes, v)
		roots = append(roots, egraph.TemporalNode{Node: v, Stamp: stamps[0]})
	}
	sets := make([]*ds.BitSet, len(roots))
	n := g.NumNodes()
	err := core.ReachSweep(g, roots, core.Options{Mode: opts.Mode, ReverseEdges: opts.ReverseEdges},
		opts.Workers, func(i int, reached []int32) {
			set := ds.NewBitSet(n)
			for _, id := range reached {
				set.Set(int(id) % n) // temporal id t·N+v → node v
			}
			sets[i] = set
		})
	if err != nil {
		return nil, err // unreachable: roots are earliest active stamps
	}
	for i, v := range nodes {
		out[v] = sets[i]
	}
	return out, nil
}

// referenceReachSets is reachSets built from referenceReachSet, one
// candidate at a time.
func referenceReachSets(g *egraph.IntEvolvingGraph, candidates []int32, opts Options) (map[int32]*ds.BitSet, error) {
	out := make(map[int32]*ds.BitSet, len(candidates))
	for _, v := range candidates {
		r, err := referenceReachSet(g, v, opts)
		if err != nil {
			return nil, err
		}
		if r != nil {
			out[v] = r
		}
	}
	return out, nil
}

// referenceReachSet is the adjacency-map oracle: the paper's BFS from
// v's earliest active stamp, collapsed to a distinct-node bitset by a
// full temporal-node scan. nil (no error) for never-active nodes.
func referenceReachSet(g *egraph.IntEvolvingGraph, v int32, opts Options) (*ds.BitSet, error) {
	stamps := g.ActiveStamps(v)
	if len(stamps) == 0 {
		return nil, nil
	}
	root := egraph.TemporalNode{Node: v, Stamp: stamps[0]}
	res, err := core.ReferenceBFS(g, []egraph.TemporalNode{root}, core.Options{
		Mode: opts.Mode, ReverseEdges: opts.ReverseEdges,
	})
	if err != nil {
		return nil, fmt.Errorf("influence: BFS from %v: %w", root, err)
	}
	set := ds.NewBitSet(g.NumNodes())
	for w := int32(0); w < int32(g.NumNodes()); w++ {
		for _, s := range g.ActiveStamps(w) {
			if res.Reached(egraph.TemporalNode{Node: w, Stamp: s}) {
				set.Set(int(w))
				break
			}
		}
	}
	return set, nil
}

type gainEntry struct {
	node  int32
	gain  int
	round int
}

// gainHeap is a max-heap on gain, tie-broken by node id for determinism.
type gainHeap []gainEntry

func (h gainHeap) Len() int { return len(h) }
func (h gainHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].node < h[j].node
}
func (h gainHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x interface{}) { *h = append(*h, x.(gainEntry)) }
func (h *gainHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
