package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/egraph"
	"repro/internal/gen"
	"repro/internal/ingest"
)

// Every input the program receives is derived here from the workload
// seed: the graph, the hot key set, the request mix and the write
// batches. The program sees only these generated inputs.

// The graph scale of every workload: about 1k nodes, 10k static edges
// and 8 stamps, ~7.4k active temporal nodes. At 2k nodes one
// cold-analytics round takes several seconds on two cores, too few
// rounds per run for a steady median, so the scale stays here.
const (
	graphNodes  = 1000
	graphStamps = 8
	graphEdges  = 10000
)

// subSeed derives an independent stream for one input from the
// workload seed.
func subSeed(seed int64, stream int64) int64 { return seed*1_000_003 + stream }

const (
	streamHot = iota + 1
	streamMix
	streamWrites
)

// baseGraph is the seeded random evolving graph every workload serves
// (the generator cmd/egserve serves without -graph).
func baseGraph(seed int64) *egraph.IntEvolvingGraph {
	return gen.Random(gen.RandomConfig{
		Nodes: graphNodes, Stamps: graphStamps, Edges: graphEdges, Directed: true, Seed: seed,
	})
}

// query is one request of a mix: an endpoint with its parameters, the
// transport it travels over, and the index of its distinct key.
type query struct {
	endpoint string
	params   url.Values
	wire     bool
	key      int
	// miss marks cold-analytics' all-pairs queries, which miss the cache
	// every round; their latencies are the workload's query latencies.
	miss bool
}

// cacheKey is the server's canonical qcache key for a cached query
// (internal/server's decoders form the same strings), "" for point
// queries, which bypass the cache.
func (q query) cacheKey() string {
	p := q.params
	switch q.endpoint {
	case "components/weak", "components/sizes":
		limit := p.Get("limit")
		if limit == "" {
			limit = "100"
		}
		return fmt.Sprintf("%s?mode=allpairs&limit=%s", q.endpoint, limit)
	case "components/strong":
		return fmt.Sprintf("components/strong?minSize=%s&limit=%s", p.Get("minSize"), p.Get("limit"))
	case "katz":
		alpha := 0.1
		if a := p.Get("alpha"); a != "" {
			alpha, _ = strconv.ParseFloat(a, 64)
		}
		top := p.Get("top")
		if top == "" {
			top = "10"
		}
		return fmt.Sprintf("katz?alpha=%g&mode=allpairs&top=%s", alpha, top)
	case "closeness":
		return fmt.Sprintf("closeness?node=%s&stamp=%s&mode=allpairs", p.Get("node"), p.Get("stamp"))
	case "efficiency":
		return "efficiency?mode=allpairs"
	case "influence/greedy":
		return fmt.Sprintf("influence/greedy?k=%s&mode=allpairs&reverse=false", p.Get("k"))
	}
	return ""
}

func (q query) String() string {
	t := "http"
	if q.wire {
		t = "wire"
	}
	if enc := q.params.Encode(); enc != "" {
		return fmt.Sprintf("%s /%s?%s", t, q.endpoint, enc)
	}
	return fmt.Sprintf("%s /%s", t, q.endpoint)
}

func tnParams(tn egraph.TemporalNode) url.Values {
	return url.Values{"node": {strconv.Itoa(int(tn.Node))}, "stamp": {strconv.Itoa(int(tn.Stamp))}}
}

// hotSet is the read working set of hot-read and write-churn: 32
// distinct keys. Point queries (/bfs, /reach, /neighbors, /criteria)
// go over HTTP; the cached analytics keys (the refresh set) over both
// transports. Every cached key is cheap to recompute (maintained weak
// components and Katz, single-root closeness, strong components), so
// write-churn can invalidate them every epoch without building a
// backlog; the all-pairs analytics belong to cold-analytics.
type hotSet struct {
	point   []query // HTTP point queries
	refresh []query // cached analytics, transport unset
}

func pickHotSet(g *egraph.IntEvolvingGraph, seed int64) hotSet {
	rng := rand.New(rand.NewSource(subSeed(seed, streamHot)))
	active := g.ActiveTemporalNodes()
	sort.Slice(active, func(i, j int) bool {
		if active[i].Stamp != active[j].Stamp {
			return active[i].Stamp < active[j].Stamp
		}
		return active[i].Node < active[j].Node
	})
	var early []egraph.TemporalNode // stamp 0: roots whose searches sweep the whole time axis
	for _, tn := range active {
		if tn.Stamp == 0 {
			early = append(early, tn)
		}
	}
	pickFrom := func(pool []egraph.TemporalNode) egraph.TemporalNode { return pool[rng.Intn(len(pool))] }
	// Search roots reach at least half the temporal nodes: a random root
	// either reaches the giant out-component or almost nothing, so wide
	// roots give every seed a similar cost per query.
	pickWide := func() egraph.TemporalNode {
		for {
			tn := pickFrom(early)
			if res, err := core.BFS(g, tn, core.Options{}); err == nil && 2*res.NumReached() >= len(active) {
				return tn
			}
		}
	}
	var nodes []int32 // nodes active at some stamp
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if len(g.ActiveStamps(v)) > 0 {
			nodes = append(nodes, v)
		}
	}
	var h hotSet
	add := func(list *[]query, endpoint string, p url.Values) {
		*list = append(*list, query{endpoint: endpoint, params: p})
	}
	for _, tn := range pickSized(g, active, rng, 2) {
		add(&h.point, "bfs", tnParams(tn))
	}
	for i := 0; i < 4; i++ {
		add(&h.point, "reach", tnParams(pickWide()))
	}
	for i := 0; i < 4; i++ {
		add(&h.point, "neighbors", tnParams(pickFrom(active)))
	}
	for i := 0; i < 4; i++ {
		src, dst := pickWide().Node, nodes[rng.Intn(len(nodes))]
		for dst == src {
			dst = nodes[rng.Intn(len(nodes))]
		}
		add(&h.point, "criteria", url.Values{"src": {strconv.Itoa(int(src))}, "dst": {strconv.Itoa(int(dst))}})
	}
	for _, l := range []int{5, 10, 20, 50} {
		add(&h.refresh, "components/weak", url.Values{"limit": {strconv.Itoa(l)}})
	}
	for _, k := range []int{5, 10, 20} {
		add(&h.refresh, "katz", url.Values{"top": {strconv.Itoa(k)}})
	}
	for i := 0; i < 10; i++ {
		add(&h.refresh, "closeness", tnParams(pickWide()))
	}
	add(&h.refresh, "components/strong", url.Values{"minSize": {"2"}, "limit": {"10"}})
	for i := range h.point {
		h.point[i].key = i
	}
	for i := range h.refresh {
		h.refresh[i].key = len(h.point) + i
	}
	return h
}

// bfsReachShare is the share of the active temporal nodes a /bfs root
// reaches. A /bfs answer's cost is proportional to its size, and the
// giant out-component a wide root reaches varies by a sixth between
// seeds; roots picked by reach give every seed /bfs answers of the same
// size (~300KB), so the read tail, which /bfs sets, compares across
// seeds.
const bfsReachShare = 0.85

// pickSized returns n distinct roots, from a seeded sample of active
// temporal nodes, whose reach is closest to bfsReachShare of them.
func pickSized(g *egraph.IntEvolvingGraph, active []egraph.TemporalNode, rng *rand.Rand, n int) []egraph.TemporalNode {
	target := bfsReachShare * float64(len(active))
	type cand struct {
		tn   egraph.TemporalNode
		miss float64
	}
	var cs []cand
	for _, i := range rng.Perm(len(active))[:256] {
		res, err := core.BFS(g, active[i], core.Options{})
		if err != nil {
			continue
		}
		cs = append(cs, cand{active[i], math.Abs(float64(res.NumReached()) - target)})
	}
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].miss < cs[j].miss })
	out := make([]egraph.TemporalNode, n)
	for i := range out {
		out[i] = cs[i].tn
	}
	return out
}

// onWire returns the refresh set bound to one transport.
func onWire(qs []query, wire bool) []query {
	out := append([]query(nil), qs...)
	for i := range out {
		out[i].wire = wire
	}
	return out
}

// mix is the hot-read request mix: half point queries over HTTP, half
// cached-analytics hits split evenly across HTTP and EGWP. /bfs, whose
// ~331KB answers hold the HTTP connection for tens of milliseconds,
// takes 2%: enough that the p99 of a run's reads is a /bfs latency on
// every seed, few enough that two rarely queue behind each other.
type mixEntry struct {
	q      query
	weight float64
}

func (h hotSet) mix() []mixEntry {
	var m []mixEntry
	share := map[string]float64{"bfs": 0.02, "reach": 0.14, "neighbors": 0.16, "criteria": 0.18}
	count := map[string]int{}
	for _, q := range h.point {
		count[q.endpoint]++
	}
	for _, q := range h.point {
		m = append(m, mixEntry{q, share[q.endpoint] / float64(count[q.endpoint])})
	}
	per := 0.25 / float64(len(h.refresh))
	for _, q := range onWire(h.refresh, false) {
		m = append(m, mixEntry{q, per})
	}
	for _, q := range onWire(h.refresh, true) {
		m = append(m, mixEntry{q, per})
	}
	return m
}

// sequence lays out n requests in the mix's exact proportions, in a
// seeded random order: every run of a workload sends the same number of
// each query, so only their order depends on the seed.
func sequence(m []mixEntry, n int, seed int64) []query {
	total := 0.0
	for _, e := range m {
		total += e.weight
	}
	out := make([]query, 0, n)
	acc := 0.0
	for _, e := range m {
		acc += e.weight / total * float64(n)
		for float64(len(out)) < acc-0.5 {
			out = append(out, e.q)
		}
	}
	for len(out) < n {
		out = append(out, m[len(m)-1].q)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// coldSet is cold-analytics' per-round analytics set: every all-pairs
// endpoint misses the cache after the round's write (sizes, efficiency,
// influence, strong components, Katz at an alpha the maintainer does
// not keep), plus single-root closeness on four fixed roots and the
// maintained weak components.
func coldSet(h hotSet) []query {
	qs := []query{
		{endpoint: "components/sizes", params: url.Values{}, miss: true},
		{endpoint: "efficiency", params: url.Values{}, miss: true},
		{endpoint: "influence/greedy", params: url.Values{"k": {"5"}}, miss: true},
		{endpoint: "components/strong", params: url.Values{"minSize": {"2"}, "limit": {"10"}}, miss: true},
		{endpoint: "katz", params: url.Values{"alpha": {"0.05"}, "top": {"10"}}, miss: true},
	}
	n := 0
	for _, q := range h.refresh {
		if q.endpoint == "closeness" && n < 4 {
			qs = append(qs, query{endpoint: "closeness", params: q.params})
			n++
		}
	}
	qs = append(qs, query{endpoint: "components/weak", params: url.Values{"limit": {"100"}}})
	for i := range qs {
		qs[i].wire = true
		qs[i].key = i
	}
	return qs
}

// arcKey is one directed arc at a time label.
type arcKey struct {
	u, v int32
	t    int64
}

// batch is one write batch. Its first event, the marker, adds an arc no
// later batch removes, so the marker's presence in a published graph
// proves the batch is folded in (batches fold in sequence order).
type batch struct {
	events []ingest.Event
	marker arcKey
}

// batchGen draws deterministic write batches against a model of the
// graph's arc set: adds pick arcs not present, removes take back arcs
// an earlier batch added at least lag batches before. Base arcs are
// never removed, so every temporal node active in the base graph stays
// active and the hot set stays valid under any number of batches.
type batchGen struct {
	rng     *rand.Rand
	present map[arcKey]bool
	labels  []int64
	pool    []pooled // removable adds, oldest first
	lag     int
	n       int
}

type pooled struct {
	a     arcKey
	batch int
}

func newBatchGen(g *egraph.IntEvolvingGraph, seed int64, lag int) *batchGen {
	b := &batchGen{
		rng:     rand.New(rand.NewSource(seed)),
		present: make(map[arcKey]bool),
		labels:  g.TimeLabels(),
		lag:     lag,
	}
	for t := 0; t < g.NumStamps(); t++ {
		label := g.TimeLabel(t)
		g.VisitEdges(int32(t), func(u, v int32, _ float64) bool {
			b.present[arcKey{u, v, label}] = true
			return true
		})
	}
	return b
}

func (b *batchGen) freshArc() arcKey {
	for {
		u := int32(b.rng.Intn(graphNodes))
		v := int32(b.rng.Intn(graphNodes))
		a := arcKey{u, v, b.labels[b.rng.Intn(len(b.labels))]}
		if u != v && !b.present[a] {
			b.present[a] = true
			return a
		}
	}
}

// next draws one batch of size events: the marker, up to half the rest
// removals of old adds, and fresh adds for the remainder.
func (b *batchGen) next(size int) batch {
	mk := b.freshArc()
	bt := batch{marker: mk, events: []ingest.Event{{Op: ingest.AddArc, U: mk.u, V: mk.v, T: mk.t}}}
	for len(bt.events) < 1+(size-1)/2 && len(b.pool) > 0 && b.pool[0].batch <= b.n-b.lag {
		a := b.pool[0].a
		b.pool = b.pool[1:]
		delete(b.present, a)
		bt.events = append(bt.events, ingest.Event{Op: ingest.RemoveArc, U: a.u, V: a.v, T: a.t})
	}
	for len(bt.events) < size {
		a := b.freshArc()
		b.pool = append(b.pool, pooled{a, b.n})
		bt.events = append(bt.events, ingest.Event{Op: ingest.AddArc, U: a.u, V: a.v, T: a.t})
	}
	b.n++
	return bt
}

func (b *batchGen) take(n, size int) []batch {
	out := make([]batch, n)
	for i := range out {
		out[i] = b.next(size)
	}
	return out
}

// eventsOf concatenates the events of batches.
func eventsOf(bs []batch) []ingest.Event {
	var out []ingest.Event
	for _, b := range bs {
		out = append(out, b.events...)
	}
	return out
}
