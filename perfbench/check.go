package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"

	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/egraph"
	"repro/internal/influence"
	"repro/internal/metrics"
	"repro/internal/rank"
	"repro/internal/server"
	"repro/internal/temporal"
)

// Answer checks. Every expected answer is computed by direct library
// calls on the graph the answer must describe, built into the server's
// response type the way its handler builds it, and compared with what
// the client decoded. Checks run outside every timed span.

// newResp returns a fresh decode target for an endpoint's response.
func newResp(endpoint string) interface{} {
	switch endpoint {
	case "bfs":
		return new(server.BFSResponse)
	case "reach":
		return new(server.ReachResponse)
	case "neighbors":
		return new(server.NeighborsResponse)
	case "criteria":
		return new(server.CriteriaResponse)
	case "components/weak", "components/strong":
		return new(server.ComponentsResponse)
	case "components/sizes":
		return new(server.SizeDistributionResponse)
	case "influence/greedy":
		return new(server.InfluenceResponse)
	case "closeness":
		return new(server.ClosenessResponse)
	case "efficiency":
		return new(server.EfficiencyResponse)
	case "katz":
		return new(server.KatzResponse)
	}
	panic("perfbench: no response type for " + endpoint)
}

func tnJSON(g *egraph.IntEvolvingGraph, tn egraph.TemporalNode) server.TemporalNodeJSON {
	return server.TemporalNodeJSON{Node: tn.Node, Stamp: tn.Stamp, Label: g.TimeLabel(int(tn.Stamp))}
}

func intParam(q query, key string, def int) int {
	if s := q.params.Get(key); s != "" {
		v, err := strconv.Atoi(s)
		if err == nil {
			return v
		}
	}
	return def
}

func tnParam(q query) egraph.TemporalNode {
	return egraph.TemporalNode{Node: int32(intParam(q, "node", 0)), Stamp: int32(intParam(q, "stamp", 0))}
}

func sizesList(comps []components.Component, limit int) ([]int, bool) {
	out := []int{}
	for i, c := range comps {
		if limit > 0 && i >= limit {
			return out, true
		}
		out = append(out, len(c))
	}
	return out, false
}

// expect computes q's answer on g directly (all-pairs mode, forward,
// the server defaults every query here uses).
func expect(g *egraph.IntEvolvingGraph, q query) (interface{}, error) {
	mode := egraph.CausalAllPairs
	switch q.endpoint {
	case "bfs":
		root := tnParam(q)
		res, err := core.BFS(g, root, core.Options{Mode: mode})
		if err != nil {
			return nil, err
		}
		resp := &server.BFSResponse{Root: tnJSON(g, root), Levels: res.LevelSizes()}
		res.Visit(func(tn egraph.TemporalNode, d int) bool {
			resp.Reached = append(resp.Reached, server.BFSEntry{TemporalNodeJSON: tnJSON(g, tn), Dist: d})
			return true
		})
		return resp, nil
	case "reach":
		root := tnParam(q)
		res, err := core.BFS(g, root, core.Options{Mode: mode})
		if err != nil {
			return nil, err
		}
		distinct := map[int32]bool{}
		res.Visit(func(tn egraph.TemporalNode, _ int) bool {
			distinct[tn.Node] = true
			return true
		})
		return &server.ReachResponse{Root: tnJSON(g, root), TemporalNodes: res.NumReached(),
			DistinctNodes: len(distinct), MaxDist: res.MaxDist()}, nil
	case "neighbors":
		tn := tnParam(q)
		resp := &server.NeighborsResponse{Of: tnJSON(g, tn)}
		for _, nb := range core.ForwardNeighbors(g, tn, mode) {
			resp.Neighbors = append(resp.Neighbors, tnJSON(g, nb))
		}
		return resp, nil
	case "criteria":
		sum, err := temporal.Compare(g, int32(intParam(q, "src", 0)), int32(intParam(q, "dst", 0)), mode)
		if err != nil {
			return nil, err
		}
		return &server.CriteriaResponse{Source: sum.Source, Target: sum.Target, Reachable: sum.Reachable,
			ShortestHops: sum.ShortestHops, EarliestArrival: sum.EarliestArrival,
			LatestDeparture: sum.LatestDeparture, FastestDuration: sum.FastestDuration}, nil
	case "components/weak":
		comps := components.WeakOpts(g, components.Options{Mode: mode})
		limit := intParam(q, "limit", 100)
		resp := &server.ComponentsResponse{Mode: "allpairs", Count: len(comps)}
		if len(comps) > 0 {
			resp.Largest = len(comps[0])
		}
		resp.Sizes, resp.Truncated = sizesList(comps, limit)
		return resp, nil
	case "components/strong":
		minSize := intParam(q, "minSize", 2)
		comps := components.StrongOpts(g, minSize, components.Options{})
		resp := &server.ComponentsResponse{MinSize: minSize, Count: len(comps)}
		if len(comps) > 0 {
			resp.Largest = len(comps[0])
		}
		resp.Sizes, resp.Truncated = sizesList(comps, intParam(q, "limit", 100))
		return resp, nil
	case "components/sizes":
		sizes := components.SizeDistributionOpts(g, components.Options{Mode: mode})
		resp := &server.SizeDistributionResponse{Mode: "allpairs", Count: len(sizes), Sizes: []int{}}
		sum := 0
		for _, s := range sizes {
			sum += s
		}
		if len(sizes) > 0 {
			resp.MaxSize = sizes[0]
			resp.MeanSize = float64(sum) / float64(len(sizes))
		}
		if limit := intParam(q, "limit", 100); limit > 0 && len(sizes) > limit {
			sizes = sizes[:limit]
			resp.Truncated = true
		}
		resp.Sizes = append(resp.Sizes, sizes...)
		return resp, nil
	case "influence/greedy":
		k := intParam(q, "k", 1)
		seeds, err := influence.Greedy(g, k, influence.Options{Mode: mode})
		if err != nil {
			return nil, err
		}
		resp := &server.InfluenceResponse{K: k, Mode: "allpairs", Seeds: []server.InfluenceSeedJSON{}}
		for _, s := range seeds {
			resp.Seeds = append(resp.Seeds, server.InfluenceSeedJSON{Node: s.Node, Gain: s.Gain, Covered: s.Covered})
			resp.Covered = s.Covered
		}
		return resp, nil
	case "closeness":
		root := tnParam(q)
		c, err := metrics.TemporalClosenessOpts(g, root, metrics.Options{Mode: mode})
		if err != nil {
			return nil, err
		}
		return &server.ClosenessResponse{Root: tnJSON(g, root), Mode: "allpairs", Closeness: c}, nil
	case "efficiency":
		st := metrics.GlobalEfficiencyOpts(g, metrics.Options{Mode: mode})
		return &server.EfficiencyResponse{Mode: "allpairs", Efficiency: st.Efficiency,
			ReachableFraction: st.ReachableFraction, MeanDistance: st.MeanDistance, Diameter: st.Diameter}, nil
	case "katz":
		alpha := 0.1
		if a := q.params.Get("alpha"); a != "" {
			alpha, _ = strconv.ParseFloat(a, 64)
		}
		scores, err := rank.TemporalKatz(g, rank.KatzOptions{Alpha: alpha, Mode: mode})
		if err != nil {
			return nil, err
		}
		active := g.ActiveTemporalNodes()
		sort.SliceStable(active, func(i, j int) bool {
			return scores[g.TemporalNodeID(active[i])] > scores[g.TemporalNodeID(active[j])]
		})
		if top := intParam(q, "top", 10); top < len(active) {
			active = active[:top]
		}
		resp := &server.KatzResponse{Alpha: alpha, Mode: "allpairs", Top: []server.KatzEntry{}}
		for _, tn := range active {
			resp.Top = append(resp.Top, server.KatzEntry{TemporalNodeJSON: tnJSON(g, tn), Score: scores[g.TemporalNodeID(tn)]})
		}
		return resp, nil
	}
	return nil, fmt.Errorf("perfbench: no oracle for %s", q.endpoint)
}

// katzTol is the relative tolerance on Katz scores. The maintained
// vector internal/inc serves after writes is certified to within 1e-12
// of a full recompute, not bit-identical, and its top-k order may swap
// entries whose scores tie within that tolerance.
const katzTol = 1e-9

// sameAnswer reports why got differs from want, or nil.
func sameAnswer(got, want interface{}) error {
	switch w := want.(type) {
	case *server.BFSResponse:
		g := got.(*server.BFSResponse)
		if g.Root != w.Root || !reflect.DeepEqual(g.Levels, w.Levels) || len(g.Reached) != len(w.Reached) {
			return fmt.Errorf("bfs from %v: root/levels/size differ (%d vs %d reached)", w.Root, len(g.Reached), len(w.Reached))
		}
		for i := range w.Reached {
			if g.Reached[i] != w.Reached[i] {
				return fmt.Errorf("bfs from %v: entry %d is %+v, want %+v", w.Root, i, g.Reached[i], w.Reached[i])
			}
		}
		return nil
	case *server.KatzResponse:
		g := got.(*server.KatzResponse)
		if g.Alpha != w.Alpha || g.Mode != w.Mode || len(g.Top) != len(w.Top) {
			return fmt.Errorf("katz: header or length differs (%d vs %d)", len(g.Top), len(w.Top))
		}
		for i := range w.Top {
			a, b := g.Top[i], w.Top[i]
			if math.Abs(a.Score-b.Score) > katzTol*math.Abs(b.Score) {
				return fmt.Errorf("katz: rank %d score %v, want %v", i, a.Score, b.Score)
			}
			if a.TemporalNodeJSON != b.TemporalNodeJSON && !katzTie(w.Top, i, a) {
				return fmt.Errorf("katz: rank %d is %+v, want %+v", i, a.TemporalNodeJSON, b.TemporalNodeJSON)
			}
		}
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%T: got %+v, want %+v", want, got, want)
	}
	return nil
}

// katzTie reports whether a appears in want with a score tied to rank
// i's within katzTol.
func katzTie(want []server.KatzEntry, i int, a server.KatzEntry) bool {
	for _, w := range want {
		if w.TemporalNodeJSON == a.TemporalNodeJSON {
			return math.Abs(w.Score-want[i].Score) <= katzTol*math.Abs(want[i].Score)
		}
	}
	return false
}

// expectAll computes the expected answers of qs on g, keyed by query
// key.
func expectAll(g *egraph.IntEvolvingGraph, qs []query) (map[int]interface{}, error) {
	out := make(map[int]interface{}, len(qs))
	for _, q := range qs {
		if _, ok := out[q.key]; ok {
			continue
		}
		v, err := expect(g, q)
		if err != nil {
			return nil, fmt.Errorf("expected answer of %s: %w", q, err)
		}
		out[q.key] = v
	}
	return out, nil
}

// sameGraph compares two graphs the strong way: shape, labels, active
// sets and the per-stamp arc streams.
func sameGraph(a, b *egraph.IntEvolvingGraph) error {
	if a.NumNodes() != b.NumNodes() || a.NumStamps() != b.NumStamps() || a.NumActiveNodes() != b.NumActiveNodes() {
		return fmt.Errorf("shape (%d nodes, %d stamps, %d active) vs (%d, %d, %d)",
			a.NumNodes(), a.NumStamps(), a.NumActiveNodes(), b.NumNodes(), b.NumStamps(), b.NumActiveNodes())
	}
	if !reflect.DeepEqual(a.TimeLabels(), b.TimeLabels()) {
		return fmt.Errorf("time labels %v vs %v", a.TimeLabels(), b.TimeLabels())
	}
	type arc struct {
		u, v int32
		w    float64
	}
	for t := 0; t < a.NumStamps(); t++ {
		if !a.ActiveNodes(t).Equal(b.ActiveNodes(t)) {
			return fmt.Errorf("stamp %d: active sets differ", t)
		}
		var ae, be []arc
		a.VisitEdges(int32(t), func(u, v int32, w float64) bool { ae = append(ae, arc{u, v, w}); return true })
		b.VisitEdges(int32(t), func(u, v int32, w float64) bool { be = append(be, arc{u, v, w}); return true })
		if !reflect.DeepEqual(ae, be) {
			return fmt.Errorf("stamp %d: %d vs %d arcs or differing streams", t, len(ae), len(be))
		}
	}
	return nil
}
