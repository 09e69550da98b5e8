// Cross-transport equivalence suite (DESIGN.md §15): every cached
// analytics query must decode to a deep-equal result over HTTP JSON
// and the EGWP binary protocol, AND share one qcache entry — the
// second transport to ask must observe a cache hit, whichever order
// the transports ask in. The suite lives in package server_test
// because it drives the server through egclient, which itself imports
// this package.
package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"

	"repro/egclient"
	"repro/internal/egraph"
	"repro/internal/inc"
	"repro/internal/ingest"
	"repro/internal/server"
)

// attachFastIngest wires a WAL-less ingest log that folds after every
// batch, so an accepted event becomes a published revision promptly.
func attachFastIngest(t *testing.T, srv *server.Server) {
	t.Helper()
	lg, err := ingest.New(srv, ingest.Config{
		CompactEvery:    1,
		CompactInterval: time.Hour,
		Logf:            func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	srv.AttachIngest(lg)
}

// dualServer is one Server exposed over both transports.
type dualServer struct {
	s    *server.Server
	http *egclient.Client
	wire *egclient.Client
}

// newDualServer starts srv on an httptest listener and a wire
// listener, returning a client per transport. Cleanup tears both down.
func newDualServer(t *testing.T, srv *server.Server) *dualServer {
	t.Helper()
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("wire listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.ServeWire(l)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	wc, err := egclient.DialWire(ctx, l.Addr().String())
	if err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	t.Cleanup(func() { wc.Close() })
	return &dualServer{s: srv, http: egclient.NewHTTP(hs.URL, egclient.HTTPOptions{}), wire: wc}
}

// denseGraph builds a graph rich enough that every cached endpoint has
// non-trivial output: 6 nodes, 2 stamps, cross-stamp structure, one
// strongly connected pair.
func denseGraph() *egraph.IntEvolvingGraph {
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 10)
	b.AddEdge(1, 2, 10)
	b.AddEdge(2, 0, 10) // SCC {0,1,2} at stamp 0
	b.AddEdge(3, 4, 10)
	b.AddEdge(0, 1, 20)
	b.AddEdge(1, 3, 20)
	b.AddEdge(4, 5, 20)
	return b.Build()
}

// equivalenceQueries is every cached endpoint with representative
// parameter sets, including pairs that only canonicalisation makes
// equal (explicit default vs omitted).
var equivalenceQueries = []struct {
	name     string
	endpoint string
	params   url.Values
}{
	{"weak-default", "components/weak", nil},
	{"weak-consecutive", "components/weak", url.Values{"mode": {"consecutive"}}},
	{"strong-default", "components/strong", nil},
	{"strong-min1", "components/strong", url.Values{"minSize": {"1"}, "limit": {"4"}}},
	{"sizes", "components/sizes", url.Values{"limit": {"3"}}},
	{"influence", "influence/greedy", url.Values{"k": {"2"}}},
	{"closeness", "closeness", url.Values{"node": {"0"}, "stamp": {"0"}}},
	{"efficiency", "efficiency", nil},
	{"katz", "katz", url.Values{"alpha": {"0.1"}, "top": {"4"}}},
}

// queryJSON issues one query through a client and decodes the body
// generically, so deep-equality compares the exact JSON structure the
// transport delivered rather than a typed projection of it.
func queryJSON(t *testing.T, c *egclient.Client, endpoint string, params url.Values) (map[string]interface{}, egclient.Meta) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var body map[string]interface{}
	meta, err := c.Query(ctx, endpoint, params, &body)
	if err != nil {
		t.Fatalf("query %s %v: %v", endpoint, params, err)
	}
	return body, meta
}

// TestCrossTransportEquivalence drives every cached endpoint through
// both transports in both orders: deep-equal bodies, and the second
// transport must hit the entry the first one computed — proof the two
// wire forms funnel into one canonical cache key.
func TestCrossTransportEquivalence(t *testing.T) {
	for _, order := range []struct {
		name          string
		first, second func(d *dualServer) *egclient.Client
	}{
		{"http-then-wire", func(d *dualServer) *egclient.Client { return d.http }, func(d *dualServer) *egclient.Client { return d.wire }},
		{"wire-then-http", func(d *dualServer) *egclient.Client { return d.wire }, func(d *dualServer) *egclient.Client { return d.http }},
	} {
		t.Run(order.name, func(t *testing.T) {
			d := newDualServer(t, server.New(denseGraph(), server.Config{}))
			for _, q := range equivalenceQueries {
				t.Run(q.name, func(t *testing.T) {
					b1, m1 := queryJSON(t, order.first(d), q.endpoint, q.params)
					b2, m2 := queryJSON(t, order.second(d), q.endpoint, q.params)
					if !reflect.DeepEqual(b1, b2) {
						t.Fatalf("transports disagree on %s %v:\n first: %#v\nsecond: %#v", q.endpoint, q.params, b1, b2)
					}
					if m1.Cache != "miss" {
						t.Fatalf("first transport: X-Cache = %q, want miss", m1.Cache)
					}
					if m2.Cache != "hit" {
						t.Fatalf("second transport: X-Cache = %q, want hit (shared qcache entry)", m2.Cache)
					}
					if m1.Revision != m2.Revision {
						t.Fatalf("revisions diverge: %d vs %d", m1.Revision, m2.Revision)
					}
				})
			}
		})
	}
}

// TestCanonicalKeyAcrossTransports asserts that parameter spellings
// that canonicalise identically share an entry across transports:
// HTTP asking with the explicit default and wire asking with no
// parameters must collide on one cache key.
func TestCanonicalKeyAcrossTransports(t *testing.T) {
	d := newDualServer(t, server.New(denseGraph(), server.Config{}))
	_, m1 := queryJSON(t, d.http, "components/weak", url.Values{"mode": {"allpairs"}})
	if m1.Cache != "miss" {
		t.Fatalf("priming query: X-Cache = %q, want miss", m1.Cache)
	}
	_, m2 := queryJSON(t, d.wire, "components/weak", nil)
	if m2.Cache != "hit" {
		t.Fatalf("wire query with omitted default: X-Cache = %q, want hit", m2.Cache)
	}
}

// TestErrorCodeParity issues the same failing requests over both
// transports and asserts both produce a *RemoteError with the same
// transport-neutral code and a non-empty message — the 1:1 mapping the
// envelope satellite promises.
func TestErrorCodeParity(t *testing.T) {
	d := newDualServer(t, server.New(denseGraph(), server.Config{}))
	cases := []struct {
		name     string
		endpoint string
		params   url.Values
		want     egclient.Code
	}{
		{"missing-k", "influence/greedy", nil, egclient.CodeBadRequest},
		{"bad-mode", "components/weak", url.Values{"mode": {"bogus"}}, egclient.CodeBadRequest},
		{"inactive-node", "closeness", url.Values{"node": {"5"}, "stamp": {"0"}}, egclient.CodeNotFound},
		{"unknown-endpoint", "no/such/endpoint", nil, egclient.CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var codes [2]egclient.Code
			var msgs [2]string
			for i, c := range []*egclient.Client{d.http, d.wire} {
				_, err := c.Query(ctx, tc.endpoint, tc.params, nil)
				var re *egclient.RemoteError
				if !errors.As(err, &re) {
					t.Fatalf("client %d: error %v (%T), want *RemoteError", i, err, err)
				}
				codes[i], msgs[i] = re.Code, re.Message
			}
			if codes[0] != codes[1] {
				t.Fatalf("codes diverge across transports: http=%v wire=%v", codes[0], codes[1])
			}
			if codes[0] != tc.want {
				t.Fatalf("code = %v, want %v", codes[0], tc.want)
			}
			if msgs[0] == "" || msgs[1] == "" {
				t.Fatalf("empty error message: http=%q wire=%q", msgs[0], msgs[1])
			}
		})
	}
}

// TestWireQueryAcrossSwap pins that a wire query pins its snapshot era
// like an HTTP request: answers carry the revision they were computed
// on, and a swap invalidates (or carries) entries exactly as the HTTP
// face observes.
func TestWireQueryAcrossSwap(t *testing.T) {
	g := denseGraph()
	m := inc.New(inc.Config{})
	srv := server.New(g, server.Config{})
	srv.PublishAnalytics(m.Prime(g))
	d := newDualServer(t, srv)

	_, m1 := queryJSON(t, d.wire, "components/weak", nil)
	if m1.Revision != 0 {
		t.Fatalf("pre-swap revision = %d, want 0", m1.Revision)
	}
	delta := []egraph.ArcDelta{{U: 5, V: 0, T: 20, W: 1}}
	ng := egraph.Patch(g, delta)
	srv.ReplaceGraphWithAnalytics(ng, m.Apply(g, ng, delta))

	b2, m2 := queryJSON(t, d.wire, "components/weak", nil)
	if m2.Revision != 1 {
		t.Fatalf("post-swap revision = %d, want 1", m2.Revision)
	}
	b3, m3 := queryJSON(t, d.http, "components/weak", nil)
	if !reflect.DeepEqual(b2, b3) {
		t.Fatalf("post-swap transports disagree:\n wire: %#v\n http: %#v", b2, b3)
	}
	if m3.Cache != "carried" {
		t.Fatalf("HTTP read of a carried-over entry: X-Cache = %q, want carried", m3.Cache)
	}
}

// TestFeedResumeAcrossSwap is the change-feed durability contract: a
// subscriber that disconnects mid-stream resubscribes with its cursor
// and receives exactly the revisions it missed, with no gap event,
// across real revision swaps.
func TestFeedResumeAcrossSwap(t *testing.T) {
	g := denseGraph()
	srv := server.New(g, server.Config{})
	d := newDualServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	sub, err := d.wire.Subscribe(ctx, egclient.FeedSpec{Kind: egclient.KindRevision})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	cur := g
	swapOnce := func() {
		delta := []egraph.ArcDelta{{U: 0, V: 5, T: 10, W: 1}}
		ng := egraph.Patch(cur, delta)
		srv.ReplaceGraph(ng)
		cur = ng
	}
	swapOnce()
	swapOnce()
	for want := uint64(1); want <= 2; want++ {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if ev.Kind != egclient.KindRevision || ev.Revision != want {
			t.Fatalf("event = %+v, want revision %d", ev, want)
		}
	}
	cursor := sub.Cursor()
	if cursor != 2 {
		t.Fatalf("cursor = %d, want 2", cursor)
	}
	sub.Close()

	// Two more swaps land while nobody is listening.
	swapOnce()
	swapOnce()

	// Resume — over a brand-new connection, as a reconnecting client
	// would — and receive exactly revisions 3 and 4.
	wc2, err := egclient.DialWire(ctx, wireAddr(t, srv))
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	defer wc2.Close()
	sub2, err := wc2.Subscribe(ctx, egclient.FeedSpec{Kind: egclient.KindRevision, Cursor: cursor})
	if err != nil {
		t.Fatalf("resubscribe: %v", err)
	}
	defer sub2.Close()
	for want := uint64(3); want <= 4; want++ {
		ev, err := sub2.Next(ctx)
		if err != nil {
			t.Fatalf("resumed next: %v", err)
		}
		if ev.Kind == egclient.KindGap {
			t.Fatalf("gap event on resume within ring retention: %+v", ev)
		}
		if ev.Revision != want {
			t.Fatalf("resumed revision = %d, want %d", ev.Revision, want)
		}
	}
}

// wireAddr spins one extra wire listener for srv and returns its
// address — used by tests that need a second, independent connection.
func wireAddr(t *testing.T, srv *server.Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("wire listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.ServeWire(l)
	return l.Addr().String()
}

// TestWireIngestToFeedVisibility exercises the full push loop the PR
// exists for: a batch ingested over the binary transport becomes a
// pushed revision event, with no polling anywhere.
func TestWireIngestToFeedVisibility(t *testing.T) {
	g := denseGraph()
	srv := server.New(g, server.Config{})
	d := newDualServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	attachFastIngest(t, srv)

	sub, err := d.wire.Subscribe(ctx, egclient.FeedSpec{Kind: egclient.KindRevision, Cursor: egclient.CursorLive})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Close()

	acc, err := d.wire.IngestArcs(ctx, []egclient.Event{{Op: egclient.AddArc, U: 0, V: 5, T: 10}})
	if err != nil {
		t.Fatalf("wire ingest: %v", err)
	}
	if acc.Accepted != 1 {
		t.Fatalf("accepted = %d, want 1", acc.Accepted)
	}
	ev, err := sub.Next(ctx)
	if err != nil {
		t.Fatalf("next: %v", err)
	}
	if ev.Kind != egclient.KindRevision || ev.Revision == 0 {
		t.Fatalf("event = %+v, want a revision event", ev)
	}
}

// TestIngestErrorParity asserts the ingest error surface matches
// across transports: an oversized batch and an unattached write path
// map to the same codes.
func TestIngestErrorParity(t *testing.T) {
	d := newDualServer(t, server.New(denseGraph(), server.Config{}))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// No ingest log attached: both transports must answer unavailable.
	for i, c := range []*egclient.Client{d.http, d.wire} {
		_, err := c.IngestArcs(ctx, []egclient.Event{{Op: egclient.AddArc, U: 0, V: 1, T: 10}})
		var re *egclient.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("client %d: error %v (%T), want *RemoteError", i, err, err)
		}
		if re.Code != egclient.CodeUnavailable {
			t.Fatalf("client %d: code = %v, want unavailable", i, re.Code)
		}
	}
	// Empty batch: bad request on both, once a write path exists.
	attachFastIngest(t, d.s)
	for i, c := range []*egclient.Client{d.http, d.wire} {
		_, err := c.IngestArcs(ctx, nil)
		var re *egclient.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("client %d: empty batch error %v (%T), want *RemoteError", i, err, err)
		}
		if re.Code != egclient.CodeBadRequest {
			t.Fatalf("client %d: empty batch code = %v, want bad_request", i, re.Code)
		}
	}
}

// TestHTTPPollingEmulation: HTTP carries no change-feed (there is no
// polling emulation), so Subscribe refuses every kind with bad_request.
func TestHTTPPollingEmulation(t *testing.T) {
	hs := httptest.NewServer(server.New(denseGraph(), server.Config{}))
	defer hs.Close()
	c := egclient.NewHTTP(hs.URL, egclient.HTTPOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, kind := range []egclient.FeedKind{egclient.KindRevision, egclient.KindComponents, egclient.KindKatz} {
		_, err := c.Subscribe(ctx, egclient.FeedSpec{Kind: kind, Cursor: egclient.CursorLive})
		var re *egclient.RemoteError
		if !errors.As(err, &re) || re.Code != egclient.CodeBadRequest {
			t.Fatalf("HTTP Subscribe(%v) = %v, want %s", kind, err, egclient.CodeBadRequest)
		}
	}
}

// TestMetricsCountWireTraffic spot-checks the /metrics wire section so
// the counters egload reads are known-live.
func TestMetricsCountWireTraffic(t *testing.T) {
	d := newDualServer(t, server.New(denseGraph(), server.Config{}))
	queryJSON(t, d.wire, "efficiency", nil)
	var mr struct {
		Wire struct {
			Connections int64 `json:"connections"`
			Queries     int64 `json:"queries"`
		} `json:"wire"`
	}
	body, _ := queryJSONRaw(t, d.http, "metrics")
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	if mr.Wire.Connections < 1 {
		t.Fatalf("wire connections = %d, want >= 1", mr.Wire.Connections)
	}
	if mr.Wire.Queries < 1 {
		t.Fatalf("wire queries = %d, want >= 1", mr.Wire.Queries)
	}
}

// queryJSONRaw fetches one endpoint returning the raw JSON bytes.
func queryJSONRaw(t *testing.T, c *egclient.Client, endpoint string) ([]byte, egclient.Meta) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var raw json.RawMessage
	meta, err := c.Query(ctx, endpoint, nil, &raw)
	if err != nil {
		t.Fatalf("query %s: %v", endpoint, err)
	}
	return raw, meta
}
