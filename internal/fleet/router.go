package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lite/internal/metrics"
	"lite/internal/serve"
	"lite/pkg/api"
)

// Options configures the fleet router. The zero value is usable: defaults
// below, no trainer (feedback is hashed onto the ring like a recommend
// request, and no flip coordination runs).
type Options struct {
	// ProbeInterval is how often every shard's /healthz is probed (default
	// 250ms); ProbeTimeout bounds one probe (default 1s) — a shard slower
	// than this is as bad as a dead one and counts a failure.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// FailAfter consecutive failed probes (or proxy transport errors) eject
	// a shard from the ring (default 2). RecoverAfter consecutive good
	// probes re-admit it (default 2), but never before its readmit backoff
	// has elapsed: each ejection doubles the wait from 500ms up to 30s, so
	// a flapping shard cannot churn the ring.
	FailAfter    int
	RecoverAfter int

	// TrainerID designates the shard that runs the adaptive-update loop.
	// Every /v1/feedback and every session promotion goes to it alone, and
	// the flip coordinator watches its generation every ProbeInterval,
	// fanning each new one out to every other shard via POST /admin/flip
	// with TrainerSnapshot.
	TrainerID       string
	TrainerSnapshot string

	// Client overrides the proxy/probe HTTP client (tests).
	Client *http.Client
	// Now overrides the clock (tests).
	Now func() time.Time
	// Logf overrides the event log sink (default stderr).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 2
	}
	if o.RecoverAfter <= 0 {
		o.RecoverAfter = 2
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Logf == nil {
		o.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "fleet: "+format+"\n", args...)
		}
	}
	return o
}

const (
	// readmitBackoffMax caps a flapping shard's readmit backoff.
	readmitBackoffMax = 30 * time.Second
	// maxAttempts bounds how many ring successors one request walks before
	// giving up with 503: the owner plus two successors.
	maxAttempts = 3
	// flipTimeout bounds one POST /v1/admin/flip, and promotionTimeout
	// the post of one session promotion to the trainer.
	flipTimeout      = 10 * time.Second
	promotionTimeout = 5 * time.Second
)

// shard is the router's view of one serving instance. All fields are
// guarded by Router.mu except id, which never changes.
type shard struct {
	id  string
	url string
	up  bool

	consecFail int
	consecOK   int
	ejections  int
	// readmitAfter gates re-admission: good probes before it count for
	// nothing (flap damping).
	readmitAfter time.Time
	// health is the shard's last successfully parsed /healthz body;
	// healthKnown is false until the first good probe.
	health      api.HealthResponse
	healthKnown bool
	lastErr     string
}

// Router is the fleet's front door: it consistent-hashes /recommend bodies
// onto live shards, retries ring successors when the owner is unreachable,
// sends feedback to the trainer, health-checks the fleet in the
// background, and coordinates fleet-wide model flips. Safe for concurrent
// use.
type Router struct {
	opts   Options
	reg    *metrics.Registry
	ring   *Ring
	client *http.Client
	// readmitBackoffMin is a shard's readmit wait after its first ejection;
	// each further ejection doubles it.
	readmitBackoffMin time.Duration
	flipTimeout       time.Duration

	mu       sync.Mutex
	shards   map[string]*shard
	fleetGen uint64 // highest generation the coordinator has fanned out

	// stopCtx is cancelled by Stop: the background loops return and an
	// in-flight flip POST is abandoned.
	stopCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	started atomic.Bool
}

// NewRouter builds a router; add shards with AddShard, then Start it.
func NewRouter(opts Options) *Router {
	opts = opts.withDefaults()
	stopCtx, stop := context.WithCancel(context.Background())
	rt := &Router{
		opts:              opts,
		reg:               metrics.NewRegistry(),
		ring:              NewRing(DefaultVnodes),
		client:            opts.Client,
		readmitBackoffMin: 500 * time.Millisecond,
		flipTimeout:       flipTimeout,
		shards:            map[string]*shard{},
		stopCtx:           stopCtx,
		stop:              stop,
	}
	rt.reg.GaugeFunc("lite_fleet_shards", func() float64 {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		return float64(len(rt.shards))
	})
	rt.reg.GaugeFunc("lite_fleet_generation", func() float64 {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		return float64(rt.fleetGen)
	})
	return rt
}

// Metrics returns the router's metrics registry.
func (rt *Router) Metrics() *metrics.Registry { return rt.reg }

// AddShard registers (or re-registers, after a supervisor restart moved it
// to a new ephemeral port) a shard and admits it to the ring immediately:
// callers add a shard only once it is listening, and the health checker
// ejects it within FailAfter probes if that turns out to be wrong.
func (rt *Router) AddShard(id, url string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sh := rt.shards[id]
	if sh == nil {
		sh = &shard{id: id}
		rt.shards[id] = sh
	}
	sh.url = url
	sh.consecFail, sh.consecOK = 0, 0
	sh.readmitAfter = time.Time{}
	sh.lastErr = ""
	if !sh.up {
		sh.up = true
		if rt.ring.Add(id) {
			rt.reg.Counter("lite_fleet_ring_moves_total").Inc()
		}
	}
	rt.shardUpGauge(id).Set(1)
	rt.opts.Logf("shard %s admitted at %s (%d in ring)", id, url, rt.ring.Len())
}

// MarkDown ejects a shard immediately — the supervisor calls it the moment
// a shard process exits, so the ring reacts faster than the probe cycle.
func (rt *Router) MarkDown(id, reason string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if sh := rt.shards[id]; sh != nil {
		rt.ejectLocked(sh, reason)
	}
}

// ejectLocked removes a shard from the ring and arms its readmit backoff.
// Caller holds rt.mu. Idempotent for already-down shards (the backoff is
// not re-armed by repeat failure reports).
func (rt *Router) ejectLocked(sh *shard, reason string) {
	sh.lastErr = reason
	if !sh.up {
		return
	}
	sh.up = false
	sh.consecOK = 0
	sh.ejections++
	backoff := rt.readmitBackoffMin << (sh.ejections - 1)
	if backoff > readmitBackoffMax || backoff <= 0 {
		backoff = readmitBackoffMax
	}
	sh.readmitAfter = rt.opts.Now().Add(backoff)
	if rt.ring.Remove(sh.id) {
		rt.reg.Counter("lite_fleet_ring_moves_total").Inc()
	}
	rt.reg.Counter("lite_fleet_ejections_total").Inc()
	rt.shardUpGauge(sh.id).Set(0)
	rt.opts.Logf("shard %s ejected (%s); arc re-routed to successors, readmit backoff %v (%d in ring)",
		sh.id, reason, backoff, rt.ring.Len())
}

func (rt *Router) shardUpGauge(id string) *metrics.Gauge {
	return rt.reg.Gauge(fmt.Sprintf("lite_fleet_shard_up{shard=%q}", id))
}

// reportTransportError records a proxy-level connection failure against a
// shard; enough consecutive ones eject it without waiting for the prober.
func (rt *Router) reportTransportError(id string, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sh := rt.shards[id]
	if sh == nil {
		return
	}
	sh.consecFail++
	sh.consecOK = 0
	if sh.up && sh.consecFail >= rt.opts.FailAfter {
		rt.ejectLocked(sh, fmt.Sprintf("proxy: %v", err))
	}
}

// Start launches the health checker and, when a trainer is designated,
// the flip coordinator.
func (rt *Router) Start() {
	if rt.started.Swap(true) {
		return
	}
	rt.wg.Add(1)
	go rt.healthLoop()
	if rt.opts.TrainerID != "" {
		rt.wg.Add(1)
		go rt.flipLoop()
	}
}

// Stop halts the background loops and waits for them.
func (rt *Router) Stop() {
	rt.stop()
	rt.wg.Wait()
}

// Handler returns the router's HTTP surface, mirroring the shard API
// (API.md):
//
//	POST   /v1/recommend                    — consistent-hash proxy
//	POST   /v1/feedback                     — to the trainer (hashed
//	                                          when there is none)
//	GET    /v1/healthz                      — fleet + per-shard health JSON
//	POST   /v1/tuning/sessions              — placed by the body's key
//	GET    /v1/tuning/sessions              — fan-out list, merged
//	*      /v1/tuning/sessions/{id}[/...]   — placed by the key embedded
//	                                          in the session ID
//	GET    /metrics                         — router metrics (lite_fleet_*)
//
// Paths outside /v1 other than /metrics answer 404. A session result
// answered by a non-trainer shard has its Promotion posted to the
// trainer: the trainer owns promotion fleet-wide.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/recommend", func(w http.ResponseWriter, r *http.Request) {
		rt.proxyBody(w, r, "/v1/recommend")
	})
	mux.HandleFunc("/v1/feedback", func(w http.ResponseWriter, r *http.Request) {
		rt.proxyBody(w, r, "/v1/feedback")
	})
	mux.HandleFunc("/v1/healthz", rt.handleHealthz)
	mux.HandleFunc("/v1/tuning/sessions", rt.handleSessions)
	mux.HandleFunc("/v1/tuning/sessions/{id}", rt.handleSessionItem)
	mux.HandleFunc("/v1/tuning/sessions/{id}/proposal", rt.handleSessionProposal)
	mux.HandleFunc("/v1/tuning/sessions/{id}/result", rt.handleSessionResult)
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		writeAPIError(w, http.StatusNotFound, api.CodeNotFound, "no such endpoint: "+r.URL.Path, 0)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		rt.reg.WriteText(w)
	})
	return mux
}

// routingBody is the subset of a /v1/recommend or /v1/feedback body the
// router needs to place the request; unknown fields are the shard's
// business.
type routingBody struct {
	App     string  `json:"app"`
	SizeMB  float64 `json:"size_mb"`
	Cluster string  `json:"cluster"`
}

// routingKey derives the sharding key from a request body. A body the
// serving layer would reject still hashes deterministically (on its raw
// fields) so the 400 comes from a consistently chosen shard.
func routingKey(body []byte) string {
	var b routingBody
	if err := json.Unmarshal(body, &b); err != nil {
		return string(body)
	}
	key, err := serve.RoutingKey(b.App, b.SizeMB, b.Cluster)
	if err != nil {
		return fmt.Sprintf("%s|%g|%s", b.App, b.SizeMB, b.Cluster)
	}
	return key
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeAPIError emits the unified /v1 error envelope (API.md) for
// router-origin failures; shard-origin errors are relayed verbatim and
// already carry it.
func writeAPIError(w http.ResponseWriter, status int, code, msg string, retryMS int64) {
	if retryMS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((retryMS+999)/1000, 10))
	}
	writeJSON(w, status, api.ErrorResponse{Error: api.Error{Code: code, Message: msg, RetryAfterMS: retryMS}})
}

// methodNotAllowed writes the envelope 405 with the route's Allow header.
func methodNotAllowed(w http.ResponseWriter, allow, msg string) {
	w.Header().Set("Allow", allow)
	writeAPIError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, msg, 0)
}

// readBody requires POST and reads the (bounded) request body with
// envelope-shaped failures.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost, "use POST with a JSON body")
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, api.CodeInvalidArgument,
			"reading request body: "+err.Error(), 0)
		return nil, false
	}
	return body, true
}

// proxyBody routes a POST whose JSON body carries the sharding fields. A
// feedback run goes to the trainer alone, the one shard that learns from
// it, even while the trainer is unreachable (the client gets 503 and
// retries); without a trainer it is placed by its key like a recommend.
func (rt *Router) proxyBody(w http.ResponseWriter, r *http.Request, endpoint string) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	order := []string{rt.opts.TrainerID}
	if endpoint != "/v1/feedback" || rt.opts.TrainerID == "" {
		order = rt.ring.Successors(routingKey(body), maxAttempts)
	}
	rt.route(w, r, endpoint, endpoint, order, body)
}

// handleSessions is the collection route: POST creates (placed by the
// body's key, same hash as /v1/recommend), GET lists fleet-wide.
func (rt *Router) handleSessions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		body, ok := rt.readBody(w, r)
		if !ok {
			return
		}
		// The session's shard placement is derived from (app, size_mb,
		// cluster); a single server would default a missing size_mb to the
		// app's test size, but the router cannot know that default, and the
		// ID-derived key of every later call would then hash to a different
		// shard than the create did. Require the size explicitly.
		var rb routingBody
		if err := json.Unmarshal(body, &rb); err == nil && rb.SizeMB <= 0 {
			writeAPIError(w, http.StatusBadRequest, api.CodeInvalidArgument,
				"size_mb must be set when creating a session through a fleet router (shard placement is derived from it)", 0)
			return
		}
		rt.route(w, r, "/v1/tuning/sessions", "/v1/tuning/sessions", rt.ring.Successors(routingKey(body), maxAttempts), body)
	case http.MethodGet:
		rt.listSessions(w, r)
	default:
		methodNotAllowed(w, "GET, POST", "method "+r.Method+" not allowed")
	}
}

// sessionOrder places a session sub-resource request: the (app, datasize,
// cluster) triple is embedded in the ID, so the owning shard and its
// successors are computed locally with no lookup.
func (rt *Router) sessionOrder(w http.ResponseWriter, r *http.Request) ([]string, bool) {
	key, err := serve.SessionRoutingKey(r.PathValue("id"))
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, api.CodeInvalidArgument, err.Error(), 0)
		return nil, false
	}
	return rt.ring.Successors(key, maxAttempts), true
}

// handleSessionItem proxies GET (read) and DELETE (close) for one session.
func (rt *Router) handleSessionItem(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodDelete {
		methodNotAllowed(w, "GET, DELETE", "method "+r.Method+" not allowed")
		return
	}
	order, ok := rt.sessionOrder(w, r)
	if !ok {
		return
	}
	rt.route(w, r, r.URL.Path, "/v1/tuning/sessions/{id}", order, nil)
}

// handleSessionProposal proxies the next-proposal action.
func (rt *Router) handleSessionProposal(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost, "use POST")
		return
	}
	order, ok := rt.sessionOrder(w, r)
	if !ok {
		return
	}
	rt.route(w, r, r.URL.Path, "/v1/tuning/sessions/{id}/proposal", order, nil)
}

// handleSessionResult proxies a trial result report. When a follower
// answers with a promotion, the router posts that feedback to the trainer
// before it relays the answer: promotion is fleet-wide, not per-shard.
func (rt *Router) handleSessionResult(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	order, ok := rt.sessionOrder(w, r)
	if !ok {
		return
	}
	resp, id := rt.forwardFirst(w, r, order, r.URL.Path, "/v1/tuning/sessions/{id}/result", body)
	if resp == nil {
		return
	}
	if rt.opts.TrainerID != "" && id != rt.opts.TrainerID && resp.StatusCode == http.StatusOK {
		rt.promote(r, resp)
	}
	rt.relay(w, resp, id)
}

// listSessions fans a GET out to every live shard and merges the results:
// each shard only knows the sessions its arc owns. Answers 200 with the
// merged list when at least one shard responded, 503 otherwise — also when
// no shard is up, since an empty list would claim there are no sessions.
func (rt *Router) listSessions(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	type target struct{ id, url string }
	var targets []target
	for _, sh := range rt.shards {
		if sh.up {
			targets = append(targets, target{sh.id, sh.url})
		}
	}
	rt.mu.Unlock()
	merged := []api.Session{}
	answered := 0
	for _, t := range targets {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, t.url+"/v1/tuning/sessions", nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			rt.reportTransportError(t.id, err)
			continue
		}
		var list api.SessionListResponse
		decErr := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&list)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decErr != nil {
			continue
		}
		answered++
		merged = append(merged, list.Sessions...)
	}
	if answered == 0 {
		writeAPIError(w, http.StatusServiceUnavailable, api.CodeUnavailable,
			"fleet: no shard answered the session list", 1000)
		return
	}
	sort.Slice(merged, func(i, j int) bool {
		// CreatedAt is RFC3339, so lexical order is chronological order.
		if merged[i].CreatedAt != merged[j].CreatedAt {
			return merged[i].CreatedAt < merged[j].CreatedAt
		}
		return merged[i].ID < merged[j].ID
	})
	writeJSON(w, http.StatusOK, api.SessionListResponse{Sessions: merged})
}

// route forwards one request with forwardFirst and relays the answer.
// label is the bounded metric name for the path (session paths would
// otherwise explode cardinality with the ID).
func (rt *Router) route(w http.ResponseWriter, r *http.Request, shardPath, label string, order []string, body []byte) {
	if resp, id := rt.forwardFirst(w, r, order, shardPath, label, body); resp != nil {
		rt.relay(w, resp, id)
	}
}

// forwardFirst tries the shards of order (a key's ring owner and
// successors, or the trainer alone) until one answers, and returns its
// response, 4xx/5xx included, and id. Only transport failures move on, so
// a freshly dead shard's arc is served before the health checker ejects
// it. When no shard answers it writes the 503 (504 when the client's
// budget ran out) itself and returns a nil response.
func (rt *Router) forwardFirst(w http.ResponseWriter, r *http.Request, order []string, shardPath, label string, body []byte) (*http.Response, string) {
	if len(order) == 0 {
		rt.reg.Counter("lite_fleet_no_shard_total").Inc()
		writeAPIError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "fleet: no live shards", 1000)
		return nil, ""
	}
	var lastErr error
	for i, id := range order {
		url := rt.shardURL(id)
		if url == "" {
			continue
		}
		resp, err := rt.forward(r.Context(), r.Method, url, shardPath, label, body)
		if err != nil {
			if r.Context().Err() != nil {
				// The client's budget ran out mid-walk; no shard is at fault.
				writeAPIError(w, http.StatusGatewayTimeout, api.CodeDeadlineExceeded,
					r.Context().Err().Error(), 0)
				return nil, ""
			}
			rt.reportTransportError(id, err)
			rt.reg.Counter(fmt.Sprintf("lite_fleet_proxy_errors_total{shard=%q}", id)).Inc()
			lastErr = err
			continue
		}
		if i > 0 {
			rt.reg.Counter("lite_fleet_rerouted_total").Inc()
		}
		return resp, id
	}
	writeAPIError(w, http.StatusServiceUnavailable, api.CodeUnavailable,
		fmt.Sprintf("fleet: no reachable shard for key (last error: %v)", lastErr), 1000)
	return nil, ""
}

// promote buffers a follower's session-result response (relayed unchanged
// from resp.Body afterwards) and posts any Promotion it carries to the
// trainer, waiting for the answer: the win is in the trainer's queue, or
// counted lost, before the client hears of it. A client that hangs up
// does not cancel the post; promotionTimeout bounds it.
func (rt *Router) promote(r *http.Request, resp *http.Response) {
	buf, readErr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(buf))
	var rr api.ReportResultResponse
	if readErr != nil || json.Unmarshal(buf, &rr) != nil || rr.Promotion == nil {
		return
	}
	pb, _ := json.Marshal(rr.Promotion) // a bad body is a 400 there, counted lost
	ctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), promotionTimeout)
	defer cancel()
	counter := "lite_fleet_session_promotions_lost_total"
	if url := rt.shardURL(rt.opts.TrainerID); url != "" {
		if tr, err := rt.forward(ctx, http.MethodPost, url, "/v1/feedback", "/v1/feedback", pb); err == nil {
			if tr.StatusCode == http.StatusOK {
				counter = "lite_fleet_session_promotions_forwarded_total"
			}
			io.Copy(io.Discard, tr.Body)
			tr.Body.Close()
		}
	}
	rt.reg.Counter(counter).Inc()
}

// shardURL resolves a member id to its base URL ("" if it vanished).
func (rt *Router) shardURL(id string) string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if sh := rt.shards[id]; sh != nil {
		return sh.url
	}
	return ""
}

// forward sends one request (an optional JSON body) to one shard under ctx
// and observes the proxy latency histogram under the bounded label.
func (rt *Router) forward(ctx context.Context, method, url, shardPath, label string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url+shardPath, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := rt.opts.Now()
	resp, err := rt.client.Do(req)
	rt.reg.Histogram(fmt.Sprintf("lite_fleet_proxy_seconds{endpoint=%q}", label), nil).
		Observe(rt.opts.Now().Sub(start).Seconds())
	return resp, err
}

// relay copies a shard's response to the client, tagging which shard
// answered so load tools can report per-shard skew.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, id string) {
	defer resp.Body.Close()
	rt.reg.Counter(fmt.Sprintf("lite_fleet_requests_total{shard=%q,code=\"%d\"}", id, resp.StatusCode)).Inc()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Lite-Shard", id)
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		rt.reg.Counter("lite_fleet_relay_errors_total").Inc()
	}
}

// FleetHealth is the router's GET /healthz body: fleet-wide status plus
// the health checker's last view of every shard.
type FleetHealth struct {
	Status string `json:"status"`
	// Generation is the highest model generation the flip coordinator has
	// fanned out fleet-wide.
	Generation uint64        `json:"generation"`
	Up         int           `json:"up"`
	Shards     []ShardHealth `json:"shards"`
}

// ShardHealth is one shard's entry in FleetHealth.
type ShardHealth struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Up       bool   `json:"up"`
	Trainer  bool   `json:"trainer"`
	Follower bool   `json:"follower"`
	// Generation, WALUnfolded, SnapshotAgeSeconds and Inflight mirror the
	// shard's own JSON /healthz as of the last successful probe.
	Generation         uint64  `json:"generation"`
	WALUnfolded        uint64  `json:"wal_unfolded"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	Inflight           int     `json:"inflight"`
	Ejections          int     `json:"ejections"`
	LastError          string  `json:"last_error,omitempty"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	fh := FleetHealth{Generation: rt.fleetGen}
	ids := make([]string, 0, len(rt.shards))
	for id := range rt.shards {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		sh := rt.shards[id]
		e := ShardHealth{
			ID: sh.id, URL: sh.url, Up: sh.up,
			Trainer:   sh.id == rt.opts.TrainerID,
			Ejections: sh.ejections,
			LastError: sh.lastErr,
		}
		if sh.healthKnown {
			e.Generation = sh.health.Generation
			e.WALUnfolded = sh.health.WALUnfolded
			e.SnapshotAgeSeconds = sh.health.SnapshotAgeSeconds
			e.Inflight = sh.health.Inflight
			e.Follower = sh.health.Follower
		}
		if sh.up {
			fh.Up++
		}
		fh.Shards = append(fh.Shards, e)
	}
	rt.mu.Unlock()
	code := http.StatusOK
	fh.Status = "ok"
	if fh.Up == 0 {
		fh.Status = "down"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, fh)
}
