package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ds"
	"repro/internal/egraph"
)

// ReachSweep runs one BFS per root, fanned out over a worker pool on the
// flat CSR engine (DESIGN.md §8), and invokes fn(i, reached) for root i
// with the ids of every reached temporal node — root included, in
// discovery order. The reached slice is worker-owned scratch: it is only
// valid during the call and must not be retained. fn may run
// concurrently for different indices but never twice for the same index,
// so writing to out[i] needs no locking. Every root must be active.
//
// This is the fan-out primitive behind the reach-only all-sources
// analytics — components.SizeDistribution and influence reach-set
// evaluation (DESIGN.md §9): a full BFS Result per root would cost an
// O(N·T) allocation and memset each, while the sweep recycles one
// pooled ds.Frontier and one id buffer per worker. Sweeps that need
// distances (metrics.GlobalEfficiencyOpts) run full BFS Results over
// their own worker pool instead. There is deliberately no
// adjacency-map variant of the sweep: the analytics oracles
// (components.ReferenceSizeDistribution, influence.ReferenceGreedy and
// ReferenceSpread) run one ReferenceBFS per root instead.
func ReachSweep(g *egraph.IntEvolvingGraph, roots []egraph.TemporalNode, opts Options, workers int, fn func(i int, reached []int32)) error {
	for _, root := range roots {
		if err := checkRoot(g, root); err != nil {
			return err
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(roots) {
		workers = len(roots)
	}
	csr := g.CSR()
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := frontierPool.Get().(*ds.Frontier)
			var buf []int32
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(roots) {
					break
				}
				rootID := int32(g.TemporalNodeID(roots[i]))
				buf = expandReach(csr, rootID, opts, f, buf[:0])
				fn(i, buf)
			}
			frontierPool.Put(f)
		}()
	}
	wg.Wait()
	return nil
}

// expandReach runs a frontier expansion from rootID over the CSR view,
// appending every reached id (rootID first) to out. It is the
// reach-only core of runCSR: no distances, parents or level sizes, so a
// sweep of many roots allocates nothing past its scratch buffers.
func expandReach(csr *egraph.CSR, rootID int32, opts Options, f *ds.Frontier, out []int32) []int32 {
	f.Reset(csr.Size())
	f.Seed(rootID)
	out = append(out, rootID)

	n := int32(csr.N)
	useOut := (opts.Direction == Forward) != opts.ReverseEdges
	forward := opts.Direction == Forward
	consecutive := opts.Mode == egraph.CausalConsecutive

	k := 1
	for len(f.Cur) > 0 {
		if opts.MaxDepth > 0 && k > opts.MaxDepth {
			break
		}
		for _, id := range f.Cur {
			var arcs []int32
			if useOut {
				arcs = csr.OutAdj[csr.OutPtr[id]:csr.OutPtr[id+1]]
			} else {
				arcs = csr.InAdj[csr.InPtr[id]:csr.InPtr[id+1]]
			}
			for _, nb := range arcs {
				if !f.Visited.TestAndSet(int(nb)) {
					f.Push(nb)
				}
			}
			stamps, v := csr.CausalArcs(id, forward, consecutive)
			for _, s := range stamps {
				nb := s*n + v
				if !f.Visited.TestAndSet(int(nb)) {
					f.Push(nb)
				}
			}
		}
		out = append(out, f.Next...)
		f.Advance()
		k++
	}
	return out
}
