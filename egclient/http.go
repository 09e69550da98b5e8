package egclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/wire"
)

// HTTPOptions tunes the HTTP transport. The zero value is usable.
type HTTPOptions struct {
	// Client is the http.Client to use (default http.DefaultClient).
	Client *http.Client
}

// NewHTTP returns a Client speaking JSON-over-HTTP to baseURL (e.g.
// "http://127.0.0.1:8080").
func NewHTTP(baseURL string, opts HTTPOptions) *Client {
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	return &Client{t: &httpTransport{
		base: strings.TrimRight(baseURL, "/"),
		hc:   opts.Client,
	}}
}

type httpTransport struct {
	base string
	hc   *http.Client
}

func (t *httpTransport) close() error { return nil }

func (t *httpTransport) query(ctx context.Context, endpoint string, params url.Values, into interface{}) (Meta, error) {
	u := t.base + "/" + endpoint
	if enc := params.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return Meta{}, err
	}
	if ms := budgetMillis(ctx); ms > 0 {
		// Propagate the caller's deadline so the server's admission
		// control can reject work it cannot finish in time.
		req.Header.Set("X-Budget-Ms", strconv.FormatInt(ms, 10))
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return Meta{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return Meta{}, err
	}
	rev, _ := strconv.ParseUint(resp.Header.Get("X-Graph-Revision"), 10, 64)
	meta := Meta{Revision: rev, Cache: resp.Header.Get("X-Cache")}
	if resp.StatusCode != http.StatusOK {
		return meta, remoteError(resp.StatusCode, resp.Header, body)
	}
	if into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			return meta, fmt.Errorf("egclient: decoding %s response: %w", endpoint, err)
		}
	}
	return meta, nil
}

func (t *httpTransport) ingest(ctx context.Context, events []Event) (*IngestAcceptedResponse, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range events {
		line := map[string]interface{}{"t": e.T}
		switch e.Op {
		case AddArc:
			line["op"] = "add"
		case RemoveArc:
			line["op"] = "remove"
		case AddStamp:
			line["op"] = "stamp"
		default:
			return nil, fmt.Errorf("egclient: unknown event op %d", e.Op)
		}
		if e.Op != AddStamp {
			line["u"], line["v"] = e.U, e.V
		}
		if err := enc.Encode(line); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+"/ingest/arcs", &buf)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, remoteError(resp.StatusCode, resp.Header, body)
	}
	var acc IngestAcceptedResponse
	if err := json.Unmarshal(body, &acc); err != nil {
		return nil, fmt.Errorf("egclient: decoding ingest response: %w", err)
	}
	return &acc, nil
}

// subscribe refuses: the change-feed is pushed over the wire transport
// only, so every feed kind is a bad_request over HTTP.
func (t *httpTransport) subscribe(ctx context.Context, spec FeedSpec) (*Subscription, error) {
	return nil, &RemoteError{
		Code:    wire.CodeBadRequest,
		Message: fmt.Sprintf("HTTP transport cannot stream %s events; use the wire transport", spec.Kind),
	}
}

// remoteError turns an HTTP error body (the versioned envelope) into
// the same *RemoteError the wire transport produces, capturing the
// Retry-After hint retriable failures (429/503) carry.
func remoteError(status int, header http.Header, body []byte) error {
	re := &RemoteError{Code: wire.CodeFromStatus(status)}
	if secs, err := strconv.Atoi(header.Get("Retry-After")); err == nil && secs > 0 {
		re.RetryAfter = time.Duration(secs) * time.Second
	}
	var env ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil || env.Error == "" {
		re.Message = strings.TrimSpace(string(body))
		return re
	}
	re.Message = env.Error
	re.Detail = env.Detail
	re.Revision = env.Revision
	return re
}
