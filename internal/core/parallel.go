package core

import (
	"repro/internal/egraph"
)

// ParallelOptions configures the level-synchronous parallel BFS.
type ParallelOptions struct {
	Options
	// Workers is the number of goroutines expanding each frontier.
	// Zero means GOMAXPROCS.
	Workers int
}

// ParallelBFS is a level-synchronous parallel variant of Algorithm 1
// over the flat CSR view: each BFS level is partitioned into contiguous
// ranges across Workers goroutines; workers claim newly discovered
// temporal nodes through an atomic visited bitmap (exactly one claimant
// per node) and append them to per-worker buffers that are concatenated
// into the next frontier. Because levels are processed with a barrier
// between them, the distance labelling is identical to the sequential
// BFS — only discovery order within a level (and hence the parent tree)
// may differ.
func ParallelBFS(g *egraph.IntEvolvingGraph, root egraph.TemporalNode, opts ParallelOptions) (*Result, error) {
	if err := checkRoot(g, root); err != nil {
		return nil, err
	}
	r := newResult(g, root, opts.Options)
	rootID := g.TemporalNodeID(root)
	r.dist[rootID] = 0
	r.reached = 1
	r.levels = []int{1}
	runParallelCSR(g, r, rootID, opts)
	return r, nil
}
