package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/egclient"
	"repro/internal/egraph"
	"repro/internal/inc"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/server"
)

// The service under test, self-served in process and configured the way
// cmd/egserve configures it: one obs registry, the server with default
// cache and gate sizing, the ingest log with inc maintenance, HTTP and
// EGWP listeners on loopback. The benchmark drives it only through
// egclient. Its own measurement hooks sit outside the program: a
// wrapped http.Handler, wrapped listeners whose conns count bytes and
// time EGWP requests, and a wrapped ingest.Publisher.

// connBudget splits at most nproc connections between the transports:
// half EGWP (queries and the change-feed multiplex on one socket), the
// rest HTTP; at least one each.
func connBudget() (nHTTP, nWire int) {
	n := runtime.NumCPU()
	nWire = n / 2
	if nWire < 1 {
		nWire = 1
	}
	nHTTP = n - nWire
	if nHTTP < 1 {
		nHTTP = 1
	}
	return nHTTP, nWire
}

type stackConfig struct {
	// graph is served directly (in-memory ingest) unless recovered is
	// set, in which case recovered.Graph is served over its WAL.
	graph     *egraph.IntEvolvingGraph
	recovered *ingest.RecoverResult
	ckptPath  string
	vis       *visibility
}

type stack struct {
	srv   *server.Server
	lg    *ingest.Log
	pub   *publisher
	start *egraph.IntEvolvingGraph // graph served at boot

	httpSrv *http.Server
	httpLn  net.Listener
	wireLn  net.Listener
	serveWG sync.WaitGroup

	hc  *egclient.Client   // HTTP, nHTTP pooled connections
	wc  []*egclient.Client // one EGWP connection each
	rt  *benchTransport
	tr  *tracer
	vis *visibility
}

// discardLogf drops the ingest log's one-line-per-epoch chatter.
func discardLogf(string, ...interface{}) {}

func boot(cfg stackConfig) (*stack, error) {
	reg := obs.NewRegistry()
	g := cfg.graph
	if cfg.recovered != nil {
		g = cfg.recovered.Graph
	}
	st := &stack{start: g, tr: newTracer(), vis: cfg.vis}
	st.srv = server.New(g, server.Config{CacheCapacity: 1024, Registry: reg})
	st.pub = &publisher{Server: st.srv, vis: cfg.vis}
	lcfg := ingest.Config{
		CompactEvery:    compactEvery,
		CompactInterval: compactInterval,
		MaxPending:      1 << 16,
		Analytics:       inc.New(inc.Config{}),
		Registry:        reg,
		Logf:            discardLogf,
	}
	if r := cfg.recovered; r != nil {
		lcfg.WAL = r.WAL
		lcfg.ExtraLabels = r.ExtraLabels
		lcfg.CheckpointPath = cfg.ckptPath
		lcfg.CheckpointEvery = 8
		lcfg.CheckpointInterval = 60 * time.Second
		lcfg.LastCheckpointSeq = r.CheckpointSeq
		lcfg.RecoverPath = r.Path
		lcfg.TailRecordsReplayed = r.TailEvents
	}
	lg, err := ingest.New(st.pub, lcfg)
	if err != nil {
		return nil, err
	}
	st.lg = lg
	st.srv.AttachIngest(lg)

	if st.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		st.close()
		return nil, err
	}
	if st.wireLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		st.close()
		return nil, err
	}
	st.httpSrv = &http.Server{
		Handler:           &tracedHandler{h: st.srv, tr: st.tr},
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	httpLn := &countingListener{Listener: st.httpLn, tr: st.tr}
	wireLn := &countingListener{Listener: st.wireLn, tr: st.tr, wire: true}
	st.serveWG.Add(2)
	go func() {
		defer st.serveWG.Done()
		st.httpSrv.Serve(httpLn)
	}()
	go func() {
		defer st.serveWG.Done()
		st.srv.ServeWire(wireLn)
	}()

	nHTTP, nWire := connBudget()
	st.rt = &benchTransport{base: &http.Transport{
		MaxConnsPerHost:     nHTTP,
		MaxIdleConnsPerHost: nHTTP,
		DisableCompression:  true,
		IdleConnTimeout:     2 * time.Minute,
	}}
	st.hc = egclient.NewHTTP("http://"+st.httpLn.Addr().String(), egclient.HTTPOptions{
		Client: &http.Client{Transport: st.rt},
	})
	for i := 0; i < nWire; i++ {
		// Dialled one at a time: DialWire completes the hello exchange,
		// so the server accepts conns in dial order and conn i of the
		// listener is client i.
		c, err := egclient.DialWire(context.Background(), st.wireLn.Addr().String())
		if err != nil {
			st.close()
			return nil, fmt.Errorf("dial wire: %w", err)
		}
		st.wc = append(st.wc, c)
	}
	return st, nil
}

// client returns the client for q's transport; wire queries spread over
// the EGWP connections by k.
func (st *stack) client(q query, k int) *egclient.Client {
	if q.wire {
		return st.wc[k%len(st.wc)]
	}
	return st.hc
}

// ask issues one query and decodes its answer.
func (st *stack) ask(ctx context.Context, q query, k int) (interface{}, egclient.Meta, error) {
	resp := newResp(q.endpoint)
	meta, err := st.client(q, k).Query(ctx, q.endpoint, q.params, resp)
	return resp, meta, err
}

// close stops listeners, clients, the feed hub and the ingest log, and
// waits for the serve loops to return.
func (st *stack) close() error {
	for _, c := range st.wc {
		c.Close()
	}
	if st.rt != nil {
		st.rt.base.CloseIdleConnections()
	}
	var err error
	if st.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = st.httpSrv.Shutdown(ctx)
		cancel()
	}
	if st.wireLn != nil {
		st.wireLn.Close() // ServeWire returns once its listener closes
	}
	st.srv.FeedHub().Close()
	if st.lg != nil {
		if cerr := st.lg.Close(); err == nil {
			err = cerr
		}
	}
	st.serveWG.Wait()
	return err
}

// publisher wraps the server as the ingest.Publisher the log publishes
// through: it notes which write batches each published graph carries
// (by their markers) and times the swap itself. The embedded server
// supplies the rest of the seam (Graph, PublishAnalytics,
// NotifyRetired), so the log sees every optional interface it expects.
type publisher struct {
	*server.Server
	vis *visibility
}

func (p *publisher) ReplaceGraph(g *egraph.IntEvolvingGraph) uint64 {
	return p.ReplaceGraphWithAnalytics(g, nil)
}

func (p *publisher) ReplaceGraphWithAnalytics(g *egraph.IntEvolvingGraph, res *inc.Results) uint64 {
	fresh := p.vis.scan(g)
	start := time.Now()
	var rev uint64
	if res == nil {
		rev = p.Server.ReplaceGraph(g)
	} else {
		rev = p.Server.ReplaceGraphWithAnalytics(g, res)
	}
	p.vis.published(rev, fresh, start, time.Since(start))
	return rev
}

// tracer switches the measurement hooks. Off, every hook costs one
// atomic load; on, the hooks record server-side serve times and count
// the bytes server conns move.
type tracer struct {
	on        atomic.Bool
	httpBytes atomic.Int64
	wireBytes atomic.Int64

	mu sync.Mutex
	// httpServe maps a tagged HTTP request id to its handler time.
	httpServe map[int64]time.Duration
	// wireServe holds, per accepted EGWP conn, the serve time of each
	// request in order (one request in flight per conn while tracing).
	wireServe map[int][]time.Duration
	wireConns int
}

func newTracer() *tracer {
	return &tracer{httpServe: map[int64]time.Duration{}, wireServe: map[int][]time.Duration{}}
}

// reset clears what the hooks recorded.
func (t *tracer) reset() {
	t.mu.Lock()
	t.httpServe = map[int64]time.Duration{}
	t.wireServe = map[int][]time.Duration{}
	t.mu.Unlock()
	t.httpBytes.Store(0)
	t.wireBytes.Store(0)
}

// reqIDHeader tags a traced HTTP request so the handler wrapper can
// attribute its serve time.
const reqIDHeader = "X-Bench-Req"

type reqIDKey struct{}

// benchTransport tags requests whose context carries a request id.
type benchTransport struct {
	base *http.Transport
}

func (b *benchTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	}
	return b.base.RoundTrip(r)
}

// tracedHandler times the server's ServeHTTP for tagged requests.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (th *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tag := r.Header.Get(reqIDHeader)
	if tag == "" {
		th.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	th.h.ServeHTTP(w, r)
	d := time.Since(start)
	id, _ := strconv.ParseInt(tag, 10, 64)
	th.tr.mu.Lock()
	th.tr.httpServe[id] = d
	th.tr.mu.Unlock()
}

// countingListener wraps accepted conns in countingConn.
type countingListener struct {
	net.Listener
	tr   *tracer
	wire bool
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c, tr: l.tr, wire: l.wire}
	if l.wire {
		l.tr.mu.Lock()
		cc.idx = l.tr.wireConns
		l.tr.wireConns++
		l.tr.mu.Unlock()
	}
	return cc, nil
}

// countingConn counts the bytes a server conn moves while tracing is on
// and, on EGWP conns, times each request from the read that delivered
// it to the write that answered it.
type countingConn struct {
	net.Conn
	tr     *tracer
	wire   bool
	idx    int
	reqAt  time.Time
	inReq  bool
	rwLock sync.Mutex
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.tr.on.Load() {
		now := time.Now()
		c.rwLock.Lock()
		if !c.inReq {
			c.reqAt, c.inReq = now, true
		}
		c.rwLock.Unlock()
		c.count(n)
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 && c.tr.on.Load() {
		now := time.Now()
		c.rwLock.Lock()
		started, at := c.inReq, c.reqAt
		c.inReq = false
		c.rwLock.Unlock()
		c.count(n)
		if c.wire && started {
			c.tr.mu.Lock()
			c.tr.wireServe[c.idx] = append(c.tr.wireServe[c.idx], now.Sub(at))
			c.tr.mu.Unlock()
		}
	}
	return n, err
}

func (c *countingConn) count(n int) {
	if c.wire {
		c.tr.wireBytes.Add(int64(n))
	} else {
		c.tr.httpBytes.Add(int64(n))
	}
}

// visibility matches writes to the revisions that carry them. The
// publisher reports which write batches each published graph newly
// carries (by their markers, which no later batch removes); the feed
// subscriber reports when each revision's event arrived. A batch is
// visible at the first feed event of a revision at or after the one
// that first carried it.
type visibility struct {
	mu       sync.Mutex
	changed  chan struct{}
	markers  []arcKey // markers of the batches this run writes, by index
	firstRev map[int]uint64
	low      int // every batch below low has been seen in a graph
	pubs     []publication
	recv     []feedRecv
}

type publication struct {
	rev     uint64
	batches []int // batch indices this revision carries first
	start   time.Time
	dur     time.Duration
}

type feedRecv struct {
	rev uint64
	at  time.Time
}

func newVisibility() *visibility {
	return &visibility{changed: make(chan struct{}), firstRev: map[int]uint64{}}
}

func (v *visibility) notifyLocked() {
	close(v.changed)
	v.changed = make(chan struct{})
}

// sending registers batch b as about to be written and returns its
// index.
func (v *visibility) sending(b batch) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.markers = append(v.markers, b.marker)
	return len(v.markers) - 1
}

// scan lists the sent batches g carries that no earlier graph did.
func (v *visibility) scan(g *egraph.IntEvolvingGraph) []int {
	v.mu.Lock()
	defer v.mu.Unlock()
	var fresh []int
	for i := v.low; i < len(v.markers); i++ {
		if _, seen := v.firstRev[i]; seen {
			continue
		}
		m := v.markers[i]
		if s := g.StampOf(m.t); s >= 0 && g.HasEdge(m.u, m.v, int32(s)) {
			fresh = append(fresh, i)
		}
	}
	return fresh
}

func (v *visibility) published(rev uint64, fresh []int, start time.Time, dur time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, i := range fresh {
		v.firstRev[i] = rev
	}
	for {
		if _, ok := v.firstRev[v.low]; !ok {
			break
		}
		v.low++
	}
	v.pubs = append(v.pubs, publication{rev: rev, batches: fresh, start: start, dur: dur})
	v.notifyLocked()
}

func (v *visibility) received(rev uint64, at time.Time) {
	v.mu.Lock()
	v.recv = append(v.recv, feedRecv{rev, at})
	v.notifyLocked()
	v.mu.Unlock()
}

// events is the number of feed events received so far.
func (v *visibility) events() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.recv)
}

// visibleLocked finds the first feed event carrying batch i.
func (v *visibility) visibleLocked(i int) (feedRecv, bool) {
	fr, ok := v.firstRev[i]
	if !ok {
		return feedRecv{}, false
	}
	for _, r := range v.recv {
		if r.rev >= fr {
			return r, true
		}
	}
	return feedRecv{}, false
}

// wait blocks until a feed event carrying batch i has arrived.
func (v *visibility) wait(ctx context.Context, i int) (feedRecv, error) {
	for {
		v.mu.Lock()
		r, ok := v.visibleLocked(i)
		ch := v.changed
		v.mu.Unlock()
		if ok {
			return r, nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return feedRecv{}, fmt.Errorf("batch %d never became visible: %w", i, ctx.Err())
		}
	}
}

// visibleAt is wait without blocking.
func (v *visibility) visibleAt(i int) (feedRecv, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.visibleLocked(i)
}

func (v *visibility) snapshot() ([]publication, []feedRecv) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]publication(nil), v.pubs...), append([]feedRecv(nil), v.recv...)
}

// subscribe streams revision events from the change-feed on the first
// EGWP connection into the stack's visibility log until the returned
// stop is called.
func (st *stack) subscribe() (stop func(), err error) {
	vis := st.vis
	ctx, cancel := context.WithCancel(context.Background())
	sub, err := st.wc[0].Subscribe(ctx, egclient.FeedSpec{Kind: egclient.KindRevision, Cursor: egclient.CursorLive})
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			ev, err := sub.Next(ctx)
			if err != nil {
				return
			}
			vis.received(ev.Revision, time.Now())
		}
	}()
	return func() {
		cancel()
		sub.Close()
		<-done
	}, nil
}

// latest blocks until a feed event newer than index after has arrived
// and returns the newest one with its index.
func (v *visibility) latest(ctx context.Context, after int) (int, feedRecv, error) {
	for {
		v.mu.Lock()
		if n := len(v.recv); n-1 > after {
			r := v.recv[n-1]
			v.mu.Unlock()
			return n - 1, r, nil
		}
		ch := v.changed
		v.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return after, feedRecv{}, ctx.Err()
		}
	}
}
