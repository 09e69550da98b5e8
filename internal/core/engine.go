package core

import (
	"runtime"
	"sync"

	"repro/internal/ds"
	"repro/internal/egraph"
)

// This file holds the default BFS engine (DESIGN.md §8): Algorithm 1
// over the graph's flat CSR view. A frontier expansion is pure array
// traversal — static arcs are pre-rebased temporal-node ids, causal
// arcs are a suffix or prefix scan of the node's active-stamp row, and
// visited-set membership is a single bit test. Frontier buffers and the
// visited bitset are recycled through a pool, so steady-state searches
// allocate only the Result.
//
// Neighbour visit order deliberately mirrors the adjacency-map oracle
// ReferenceBFS (static arcs ascending, then causal stamps descending for forward
// searches / ascending for backward): with identical discovery order
// the two engines produce bit-identical distance, parent and level
// arrays, which is what the differential tests assert.

var frontierPool = sync.Pool{New: func() interface{} { return new(ds.Frontier) }}

// runCSR expands the seeded frontier to exhaustion over g.CSR().
// Seeds must already be recorded in r (dist 0, reached, level 0).
func runCSR(g *egraph.IntEvolvingGraph, r *Result, seeds []int32, opts Options) {
	csr := g.CSR()
	f := frontierPool.Get().(*ds.Frontier)
	f.Reset(csr.Size())
	f.Seed(seeds...)

	n := int32(csr.N)
	useOut := (opts.Direction == Forward) != opts.ReverseEdges
	forward := opts.Direction == Forward
	consecutive := opts.Mode == egraph.CausalConsecutive
	dist, parent := r.dist, r.parent

	k := int32(1)
	for len(f.Cur) > 0 {
		if opts.MaxDepth > 0 && int(k) > opts.MaxDepth {
			break
		}
		for _, id := range f.Cur {
			// Static arcs within this stamp.
			var arcs []int32
			if useOut {
				arcs = csr.OutAdj[csr.OutPtr[id]:csr.OutPtr[id+1]]
			} else {
				arcs = csr.InAdj[csr.InPtr[id]:csr.InPtr[id+1]]
			}
			for _, nb := range arcs {
				if !f.Visited.TestAndSet(int(nb)) {
					dist[nb] = k
					if parent != nil {
						parent[nb] = id
					}
					f.Push(nb)
				}
			}
			// Causal arcs: the node's active-stamp row around this stamp.
			stamps, v := csr.CausalArcs(id, forward, consecutive)
			for i := range stamps {
				s := stamps[i]
				if forward {
					s = stamps[len(stamps)-1-i] // oracle order: descending
				}
				nb := s*n + v
				if !f.Visited.TestAndSet(int(nb)) {
					dist[nb] = k
					if parent != nil {
						parent[nb] = id
					}
					f.Push(nb)
				}
			}
		}
		if len(f.Next) > 0 {
			r.levels = append(r.levels, len(f.Next))
			r.reached += len(f.Next)
		}
		f.Advance()
		k++
	}
	frontierPool.Put(f)
}

// runParallelCSR is the level-synchronous parallel expansion over the
// CSR view: each level's frontier is partitioned into contiguous ranges,
// one per worker; workers claim discoveries through an atomic bitset
// (exactly one claimant per temporal node) into per-worker buffers that
// concatenate into the next frontier at the level barrier. Distances and
// level sizes are identical to the sequential engines; parent choice
// within a level may differ.
func runParallelCSR(g *egraph.IntEvolvingGraph, r *Result, rootID int, opts ParallelOptions) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	csr := g.CSR()
	n := int32(csr.N)
	useOut := (opts.Direction == Forward) != opts.ReverseEdges
	forward := opts.Direction == Forward
	consecutive := opts.Mode == egraph.CausalConsecutive
	dist, parent := r.dist, r.parent

	visited := ds.NewAtomicBitSet(csr.Size())
	visited.Set(rootID)
	frontier := []int32{int32(rootID)}
	buffers := make([][]int32, workers)

	k := int32(1)
	for len(frontier) > 0 {
		if opts.MaxDepth > 0 && int(k) > opts.MaxDepth {
			break
		}
		chunk := (len(frontier) + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			if lo >= len(frontier) {
				break
			}
			hi := lo + chunk
			if hi > len(frontier) {
				hi = len(frontier)
			}
			wg.Add(1)
			go func(w int, part []int32) {
				defer wg.Done()
				buf := buffers[w][:0]
				claim := func(nb, id int32) {
					if !visited.TestAndSet(int(nb)) {
						// Exclusive claim: the stores below race with
						// no other writer.
						dist[nb] = k
						if parent != nil {
							parent[nb] = id
						}
						buf = append(buf, nb)
					}
				}
				for _, id := range part {
					var arcs []int32
					if useOut {
						arcs = csr.OutAdj[csr.OutPtr[id]:csr.OutPtr[id+1]]
					} else {
						arcs = csr.InAdj[csr.InPtr[id]:csr.InPtr[id+1]]
					}
					for _, nb := range arcs {
						claim(nb, id)
					}
					stamps, v := csr.CausalArcs(id, forward, consecutive)
					for _, s := range stamps {
						claim(s*n+v, id)
					}
				}
				buffers[w] = buf
			}(w, frontier[lo:hi])
		}
		wg.Wait()

		frontier = frontier[:0]
		for w := range buffers {
			frontier = append(frontier, buffers[w]...)
			// Reset every buffer, including those of idle workers: a
			// worker with no slice of the next level must not leak this
			// level's nodes back into the frontier.
			buffers[w] = buffers[w][:0]
		}
		if len(frontier) > 0 {
			r.levels = append(r.levels, len(frontier))
			r.reached += len(frontier)
		}
		k++
	}
}
