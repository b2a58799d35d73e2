// Package client is the typed Go client for the LITE /v1 HTTP API
// (documented in API.md). It speaks the wire types of pkg/api — the same
// definitions internal/serve handles — so a request that compiles here is
// a request the server parses.
//
// Failures are typed: any non-2xx response carrying the unified error
// envelope becomes an *APIError with the server's stable code, message and
// retry hint; transport failures (connection refused, client-side
// timeout) come back as the underlying error. Callers can therefore tell
// "the server said no" from "the server is gone" without string matching.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"lite/pkg/api"
)

// Client talks to one LITE server (a liteserve instance or a litefleet
// router). Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). Default: 60s timeout.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithTimeout sets the underlying client's per-request timeout.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.hc.Timeout = d }
}

// New builds a client for baseURL (e.g. "http://127.0.0.1:8372"). Any
// trailing slash or /v1 suffix is normalized away; the client always
// speaks the /v1 surface.
func New(baseURL string, opts ...Option) *Client {
	base := strings.TrimRight(baseURL, "/")
	base = strings.TrimSuffix(base, api.Version)
	c := &Client{base: base, hc: &http.Client{Timeout: 60 * time.Second}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL returns the normalized server base (no /v1 suffix).
func (c *Client) BaseURL() string { return c.base }

// APIError is a non-2xx response that carried the /v1 error envelope (or,
// with an empty Code, a non-envelope error body from a pre-/v1 server —
// see Message for the raw snippet).
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine-matchable code (api.Code*); empty when
	// the body was not the unified envelope.
	Code string
	// Message is the server's human-readable description.
	Message string
	// RetryAfterMS is the server's backoff hint (0 = none).
	RetryAfterMS int64
	// Shard is the X-Lite-Shard header when a fleet router answered.
	Shard string
}

// Error implements the error interface.
func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("server error %d (%s): %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("server error %d: %s", e.Status, e.Message)
}

// RetryAfter converts the hint into a duration (0 = none).
func (e *APIError) RetryAfter() time.Duration {
	return time.Duration(e.RetryAfterMS) * time.Millisecond
}

// ErrorCode extracts an *APIError's stable code from err; "" when err is
// nil, not an APIError, or the body was not the envelope.
func ErrorCode(err error) string {
	var ae *APIError
	if !errors.As(err, &ae) {
		return ""
	}
	return ae.Code
}

// Meta reports transport-level details of a call for benchmarking tools.
type Meta struct {
	// Shard is the X-Lite-Shard response header (set by a fleet router;
	// empty against a bare liteserve).
	Shard string
	// Status is the HTTP status code (0 when the request never got a
	// response).
	Status int
}

// doJSON runs one call: marshal in (nil = empty body), decode a 2xx into
// out (nil = discard), turn a non-2xx into *APIError.
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any, meta *Meta) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding %s request: %w", path, err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("client: building %s request: %w", path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.do(req, path, meta, func(body io.Reader) error {
		if out == nil {
			io.Copy(io.Discard, io.LimitReader(body, 1<<20))
			return nil
		}
		return json.NewDecoder(body).Decode(out)
	})
}

// bodyPool holds the buffers recommend responses are read into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody caps what goes back into bodyPool.
const maxPooledBody = 64 << 10

// jsonContentType is the Content-Type header value of every recommend
// request; header values are only read once set.
var jsonContentType = []string{"application/json"}

// recommend is doJSON for POST /v1/recommend, without reflection either
// way: the request is written by api.AppendRecommendRequest into a buffer
// sized for it, and the answer is read whole and decoded by
// api.DecodeRecommendResponse, which reads the server's own bodies
// without reflection and any other JSON as json.Unmarshal would.
//
// The request buffer is not pooled: the transport may still read a body
// after Do returns, so a pooled one would need a body type whose Close
// returns it, and the transport flushes the headers of a body type it
// does not know as in-memory in a write of their own — two writes per
// request, and a server read that may find only the headers.
func (c *Client) recommend(ctx context.Context, in api.RecommendRequest, resp *api.RecommendResponse, meta *Meta) error {
	path := api.Version + "/recommend"
	data, err := api.AppendRecommendRequest(make([]byte, 0, requestSize(&in)), &in)
	if err != nil {
		return fmt.Errorf("client: encoding %s request: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("client: building %s request: %w", path, err)
	}
	req.Header["Content-Type"] = jsonContentType
	return c.do(req, path, meta, func(body io.Reader) error {
		buf := bodyPool.Get().(*bytes.Buffer)
		defer func() {
			if buf.Cap() <= maxPooledBody {
				buf.Reset()
				bodyPool.Put(buf)
			}
		}()
		if _, err := buf.ReadFrom(body); err != nil {
			return err
		}
		return api.DecodeRecommendResponse(buf.Bytes(), resp)
	})
}

// requestSize is a size for the buffer r is encoded into: its strings as
// they are plus room for the keys, so only a body with many escapes grows
// it.
func requestSize(r *api.RecommendRequest) int {
	n := 96 + len(r.App) + len(r.Cluster)
	if f := r.Features; f != nil {
		n += len(f.Code) + len(f.Code)/32
		for _, op := range f.Ops {
			n += len(op) + 3
		}
	}
	return n
}

// do runs one built request: hand a 2xx body to decode, turn a non-2xx
// into *APIError.
func (c *Client) do(req *http.Request, path string, meta *Meta, decode func(io.Reader) error) error {
	res, err := c.hc.Do(req)
	if err != nil {
		return err // transport failure: surface the raw error for classification
	}
	defer res.Body.Close()
	if meta != nil {
		meta.Shard = res.Header.Get("X-Lite-Shard")
		meta.Status = res.StatusCode
	}
	if res.StatusCode >= 200 && res.StatusCode < 300 {
		if err := decode(res.Body); err != nil {
			return fmt.Errorf("client: decoding %s response: %w", path, err)
		}
		return nil
	}
	raw, _ := io.ReadAll(io.LimitReader(res.Body, 1<<16))
	apiErr := &APIError{Status: res.StatusCode, Shard: res.Header.Get("X-Lite-Shard")}
	var envelope api.ErrorResponse
	if jsonErr := json.Unmarshal(raw, &envelope); jsonErr == nil && envelope.Error.Code != "" {
		apiErr.Code = envelope.Error.Code
		apiErr.Message = envelope.Error.Message
		apiErr.RetryAfterMS = envelope.Error.RetryAfterMS
	} else {
		apiErr.Message = strings.TrimSpace(string(raw))
	}
	return apiErr
}

// Recommend asks for a configuration (POST /v1/recommend).
func (c *Client) Recommend(ctx context.Context, req api.RecommendRequest) (api.RecommendResponse, error) {
	var resp api.RecommendResponse
	err := c.recommend(ctx, req, &resp, nil)
	return resp, err
}

// RecommendMeta is Recommend plus transport metadata (answering shard,
// status) for load tools.
func (c *Client) RecommendMeta(ctx context.Context, req api.RecommendRequest) (api.RecommendResponse, Meta, error) {
	var resp api.RecommendResponse
	var meta Meta
	err := c.recommend(ctx, req, &resp, &meta)
	return resp, meta, err
}

// Feedback reports an executed configuration (POST /v1/feedback).
func (c *Client) Feedback(ctx context.Context, req api.FeedbackRequest) (api.FeedbackResponse, error) {
	var resp api.FeedbackResponse
	err := c.doJSON(ctx, http.MethodPost, api.Version+"/feedback", req, &resp, nil)
	return resp, err
}

// Health reads GET /v1/healthz.
func (c *Client) Health(ctx context.Context) (api.HealthResponse, error) {
	var resp api.HealthResponse
	err := c.doJSON(ctx, http.MethodGet, api.Version+"/healthz", nil, &resp, nil)
	return resp, err
}

// Flip asks the server to hot-swap to a published snapshot
// (POST /v1/admin/flip; requires the server's admin surface).
func (c *Client) Flip(ctx context.Context, req api.FlipRequest) (api.FlipResponse, error) {
	var resp api.FlipResponse
	err := c.doJSON(ctx, http.MethodPost, api.Version+"/admin/flip", req, &resp, nil)
	return resp, err
}

// Metrics fetches the Prometheus text exposition (GET /metrics,
// unversioned by scrape convention).
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		return "", err
	}
	if res.StatusCode != http.StatusOK {
		return "", &APIError{Status: res.StatusCode, Message: strings.TrimSpace(string(raw))}
	}
	return string(raw), nil
}

// sessionPath builds /v1/tuning/sessions sub-paths with the ID escaped.
func sessionPath(parts ...string) string {
	p := api.Version + "/tuning/sessions"
	for _, part := range parts {
		p += "/" + url.PathEscape(part)
	}
	return p
}

// CreateSession opens a tuning session (POST /v1/tuning/sessions).
func (c *Client) CreateSession(ctx context.Context, req api.CreateSessionRequest) (api.Session, error) {
	var resp api.Session
	err := c.doJSON(ctx, http.MethodPost, sessionPath(), req, &resp, nil)
	return resp, err
}

// GetSession reads one session, trial history included
// (GET /v1/tuning/sessions/{id}).
func (c *Client) GetSession(ctx context.Context, id string) (api.Session, error) {
	var resp api.Session
	err := c.doJSON(ctx, http.MethodGet, sessionPath(id), nil, &resp, nil)
	return resp, err
}

// ListSessions lists every session on the answering instance
// (GET /v1/tuning/sessions).
func (c *Client) ListSessions(ctx context.Context) ([]api.Session, error) {
	var resp api.SessionListResponse
	err := c.doJSON(ctx, http.MethodGet, sessionPath(), nil, &resp, nil)
	return resp.Sessions, err
}

// NextProposal asks for the session's next trial configuration
// (POST /v1/tuning/sessions/{id}/proposal). Idempotent until the returned
// trial is reported.
func (c *Client) NextProposal(ctx context.Context, id string) (api.ProposalResponse, error) {
	var resp api.ProposalResponse
	err := c.doJSON(ctx, http.MethodPost, sessionPath(id, "proposal"), nil, &resp, nil)
	return resp, err
}

// ReportResult reports a trial's measured outcome
// (POST /v1/tuning/sessions/{id}/result).
func (c *Client) ReportResult(ctx context.Context, id string, req api.ReportResultRequest) (api.ReportResultResponse, error) {
	var resp api.ReportResultResponse
	err := c.doJSON(ctx, http.MethodPost, sessionPath(id, "result"), req, &resp, nil)
	return resp, err
}

// CloseSession closes a session (DELETE /v1/tuning/sessions/{id});
// idempotent, and the closed resource stays readable.
func (c *Client) CloseSession(ctx context.Context, id string) (api.Session, error) {
	var resp api.Session
	err := c.doJSON(ctx, http.MethodDelete, sessionPath(id), nil, &resp, nil)
	return resp, err
}
