package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"lite/internal/metrics"
	"lite/internal/session"
	"lite/pkg/api"
)

// Handler returns the server's HTTP API, version 1 (documented in API.md):
//
//	POST   /v1/recommend
//	POST   /v1/feedback
//	GET    /v1/healthz
//	POST   /v1/tuning/sessions
//	GET    /v1/tuning/sessions
//	GET    /v1/tuning/sessions/{id}
//	DELETE /v1/tuning/sessions/{id}
//	POST   /v1/tuning/sessions/{id}/proposal
//	POST   /v1/tuning/sessions/{id}/result
//	POST   /v1/admin/flip            (when Options.EnableAdmin)
//	GET    /metrics                  (unversioned: Prometheus scrape path)
//
// Every /v1 endpoint is instrumented with request counters (by status
// code) and latency histograms, and every failure — including 404s for
// unknown /v1 paths and 405s for wrong methods — returns the unified
// error envelope {"error": {"code", "message", "retry_after_ms?"}}. Paths
// outside /v1 other than /metrics are not routed: the mux answers 404.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/recommend", s.instrument("recommend", http.HandlerFunc(s.handleRecommend)))
	mux.Handle("/v1/feedback", s.instrument("feedback", http.HandlerFunc(s.handleFeedback)))
	mux.Handle("/v1/healthz", s.instrument("healthz", http.HandlerFunc(s.handleHealthz)))
	mux.Handle("/v1/tuning/sessions", s.instrument("sessions", http.HandlerFunc(s.handleSessions)))
	mux.Handle("/v1/tuning/sessions/{id}", s.instrument("session", http.HandlerFunc(s.handleSessionByID)))
	mux.Handle("/v1/tuning/sessions/{id}/proposal", s.instrument("session_proposal", http.HandlerFunc(s.handleSessionProposal)))
	mux.Handle("/v1/tuning/sessions/{id}/result", s.instrument("session_result", http.HandlerFunc(s.handleSessionResult)))
	if s.opts.EnableAdmin {
		mux.Handle("/v1/admin/flip", s.instrument("admin_flip", http.HandlerFunc(s.handleFlip)))
	}
	// Unknown /v1 paths answer with the envelope, not the mux's plain-text
	// 404 — /v1 clients should never have to parse two error shapes.
	mux.Handle("/v1/", s.instrument("v1_unknown", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.writeAPIError(w, http.StatusNotFound, api.CodeNotFound, "no such endpoint: "+r.URL.Path, 0)
	})))
	mux.HandleFunc("/metrics", s.handleMetrics)

	return mux
}

// StatusClientClosedRequest is the (nginx-convention) status recorded when
// the client cancelled its request before the answer was ready; no client
// sees it, but it keeps abandoned requests distinguishable in the
// per-status metrics.
const StatusClientClosedRequest = 499

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer so http.ResponseController (and
// anything else that probes for optional interfaces through rw unwrapping,
// e.g. Flush and SetWriteDeadline) keeps working on instrumented
// endpoints.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (s *Server) instrument(endpoint string, next http.Handler) http.Handler {
	hist := s.reg.Histogram(fmt.Sprintf("lite_http_request_seconds{endpoint=%q}", endpoint), nil)
	codes := &codeCounters{reg: s.reg, endpoint: endpoint}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		hist.Observe(time.Since(start).Seconds())
		codes.counter(rec.code).Inc()
	})
}

// codeCounters resolves one endpoint's lite_http_requests_total series by
// status code. A series is created on the code's first response, so
// /metrics lists only codes that occurred, and from then on is found
// without formatting its name.
type codeCounters struct {
	reg      *metrics.Registry
	endpoint string
	byCode   sync.Map // int → *metrics.Counter
}

func (c *codeCounters) counter(code int) *metrics.Counter {
	if ctr, ok := c.byCode.Load(code); ok {
		return ctr.(*metrics.Counter)
	}
	ctr, _ := c.byCode.LoadOrStore(code,
		c.reg.Counter(fmt.Sprintf("lite_http_requests_total{endpoint=%q,code=\"%d\"}", c.endpoint, code)))
	return ctr.(*metrics.Counter)
}

// encodeErrLogOnce gates the stderr warning for response-encode failures:
// the counter tracks every occurrence, the log line fires once per process
// so a flapping client cannot flood the logs.
var encodeErrLogOnce sync.Once

// writeJSON writes v with the given status. The status is already
// committed when Encode runs, so an encode error cannot be reported to the
// client — but it must not vanish either: a truncated 200 body is counted
// in lite_http_encode_errors_total and logged once.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.encodeFailed(err)
	}
}

// bodyPool holds the buffers request bodies are read into and recommend
// responses are encoded into.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody caps what goes back into bodyPool, so one response with
// an enormous app name does not pin its buffer.
const maxPooledBody = 64 << 10

// jsonContentType is the Content-Type header value shared by every
// recommend answer; header values are only read once set.
var jsonContentType = []string{"application/json"}

// writeRecommend writes a 200 recommend answer with the bytes, headers
// and encode-error accounting of writeJSON, encoded by
// api.AppendRecommendResponse into a pooled buffer: every cache hit ends
// here, and reflection was a third of a hit's CPU.
func (s *Server) writeRecommend(w http.ResponseWriter, resp *api.RecommendResponse) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	buf := bodyPool.Get().(*[]byte)
	body, err := api.AppendRecommendResponse((*buf)[:0], resp)
	if err != nil {
		s.encodeFailed(err)
	} else {
		body = append(body, '\n')
		if _, err := w.Write(body); err != nil {
			s.encodeFailed(err)
		}
	}
	if cap(body) <= maxPooledBody {
		*buf = body[:0]
		bodyPool.Put(buf)
	}
}

// encodeFailed counts a response body that could not be encoded after its
// status was committed, and logs the first one.
func (s *Server) encodeFailed(err error) {
	s.reg.Counter("lite_http_encode_errors_total").Inc()
	encodeErrLogOnce.Do(func() {
		fmt.Fprintf(os.Stderr, "serve: encoding response body: %v (counting further occurrences in lite_http_encode_errors_total)\n", err)
	})
}

// writeAPIError writes the unified /v1 error envelope. A non-zero retryMS
// also sets the Retry-After header (whole seconds, rounded up), so plain
// HTTP clients and envelope-aware ones read the same hint.
func (s *Server) writeAPIError(w http.ResponseWriter, status int, code, message string, retryMS int64) {
	if retryMS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((retryMS+999)/1000, 10))
	}
	s.writeJSON(w, status, api.ErrorResponse{Error: api.Error{Code: code, Message: message, RetryAfterMS: retryMS}})
}

// writeError maps pipeline errors to (status, api code): client errors
// (unknown app/cluster/knob, bad session arguments) are 400
// invalid_argument, session lookups 404 not_found, session-state conflicts
// 409 with a disambiguating code, a full feedback queue 429 queue_full, a
// shed request 503 overloaded with a retry hint, a blown deadline 504, a
// client that went away 499, everything else 500 internal.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var reqErr *RequestError
	switch {
	case errors.As(err, &reqErr), session.IsInvalid(err):
		s.writeAPIError(w, http.StatusBadRequest, api.CodeInvalidArgument, err.Error(), 0)
	case errors.Is(err, session.ErrNotFound):
		s.writeAPIError(w, http.StatusNotFound, api.CodeNotFound, err.Error(), 0)
	case errors.Is(err, session.ErrClosed):
		s.writeAPIError(w, http.StatusConflict, api.CodeSessionClosed, err.Error(), 0)
	case errors.Is(err, session.ErrBudgetExhausted):
		s.writeAPIError(w, http.StatusConflict, api.CodeBudgetExhausted, err.Error(), 0)
	case errors.Is(err, session.ErrTrialAlreadyReported):
		s.writeAPIError(w, http.StatusConflict, api.CodeTrialAlreadyReported, err.Error(), 0)
	case errors.Is(err, session.ErrUnknownTrial):
		s.writeAPIError(w, http.StatusBadRequest, api.CodeUnknownTrial, err.Error(), 0)
	case errors.Is(err, ErrQueueFull):
		s.writeAPIError(w, http.StatusTooManyRequests, api.CodeQueueFull, err.Error(), 1000)
	case errors.Is(err, ErrOverloaded):
		s.writeAPIError(w, http.StatusServiceUnavailable, api.CodeOverloaded, err.Error(), 1000)
	case errors.Is(err, context.DeadlineExceeded):
		s.writeAPIError(w, http.StatusGatewayTimeout, api.CodeDeadlineExceeded, err.Error(), 0)
	case errors.Is(err, context.Canceled):
		// The client is gone; nobody reads this body, but the recorded
		// status keeps cancellations visible in the endpoint metrics.
		s.writeAPIError(w, StatusClientClosedRequest, api.CodeClientClosedRequest, err.Error(), 0)
	default:
		s.writeAPIError(w, http.StatusInternalServerError, api.CodeInternal, err.Error(), 0)
	}
}

// requireMethod enforces the route's method with an envelope 405 (the
// ServeMux's built-in 405 writes plain text, which /v1 clients must never
// see).
func (s *Server) requireMethod(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			return true
		}
	}
	allow := ""
	for i, m := range methods {
		if i > 0 {
			allow += ", "
		}
		allow += m
	}
	w.Header().Set("Allow", allow)
	s.writeAPIError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
		fmt.Sprintf("method %s not allowed (use %s)", r.Method, allow), 0)
	return false
}

// maxBody bounds every request body.
const maxBody = 1 << 20

// decodeBody enforces POST, reads the body once — at most maxBody bytes —
// into a pooled buffer, and decodes it into v strictly (api.DecodeStrict):
// one JSON value with no unknown fields, followed by nothing but
// whitespace. A recommend request is read by api.DecodeRecommendRequest,
// which accepts and rejects the same bodies with the same errors without
// reflection. Decoded strings are copies, so the buffer is reused.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if !s.requireMethod(w, r, http.MethodPost) {
		return false
	}
	buf := bodyPool.Get().(*[]byte)
	data, err := readBody(http.MaxBytesReader(w, r.Body, maxBody), r.ContentLength, (*buf)[:0])
	if err == nil {
		if req, ok := v.(*api.RecommendRequest); ok {
			err = api.DecodeRecommendRequest(data, req)
		} else {
			err = api.DecodeStrict(data, v)
		}
	}
	if cap(data) <= maxPooledBody {
		*buf = data[:0]
		bodyPool.Put(buf)
	}
	if err != nil {
		s.writeAPIError(w, http.StatusBadRequest, api.CodeInvalidArgument, "bad request body: "+err.Error(), 0)
		return false
	}
	return true
}

// readBody appends everything body yields to b, sized up front from the
// declared length when there is one.
func readBody(body io.Reader, length int64, b []byte) ([]byte, error) {
	if length > 0 && length <= maxBody {
		// One byte more, so the read that meets the end finds room.
		b = slices.Grow(b, int(length)+1)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// requestContext derives the pipeline context for one HTTP request: the
// client's context (cancelled when the connection drops) bounded by the
// configured per-request timeout.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	}
	return r.Context(), func() {}
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req api.RecommendRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	resp, err := s.RecommendCtx(ctx, req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeRecommend(w, &resp)
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req api.FeedbackRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	resp, err := s.FeedbackCtx(ctx, req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet, http.MethodHead) {
		return
	}
	snap := s.snap.Load()
	resp := api.HealthResponse{
		Status:             "ok",
		Generation:         snap.Gen,
		Feedbacks:          snap.Feedbacks,
		SnapshotAt:         snap.CreatedAt.Format(time.RFC3339Nano),
		SnapshotAgeSeconds: -1,
		Inflight:           len(s.inflight),
		Follower:           s.opts.Follower,
	}
	if last := s.lastPersistNanos.Load(); last != 0 {
		resp.SnapshotAgeSeconds = time.Duration(s.opts.Now().UnixNano() - last).Seconds()
	}
	if s.wal != nil {
		if st := s.wal.Stats(); st.LastSeq > st.Folded {
			resp.WALUnfolded = st.LastSeq - st.Folded
		}
	}
	if st := s.sessionStore(); st != nil {
		resp.Sessions = st.Active()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFlip(w http.ResponseWriter, r *http.Request) {
	var req api.FlipRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.SnapshotPath == "" || req.Generation == 0 {
		s.writeAPIError(w, http.StatusBadRequest, api.CodeInvalidArgument, "snapshot_path and generation are required", 0)
		return
	}
	gen, err := s.FlipTo(req.SnapshotPath, req.Generation)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, api.FlipResponse{Generation: gen})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WriteText(w)
}
