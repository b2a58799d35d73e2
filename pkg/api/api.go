// Package api defines the wire types of the LITE serving API, version 1.
// Every request and response body of the /v1 HTTP surface — recommend,
// feedback, health, fleet admin, and the tuning-session resource — is
// defined exactly once, here; internal/serve aliases these types for its
// handlers and pkg/client speaks them back, so client and server cannot
// drift apart.
//
// Versioning and deprecation policy are documented in API.md at the
// repository root.
package api

// Version is the current API version prefix.
const Version = "/v1"

// Error is the unified error body every /v1 endpoint returns on failure,
// wrapped in ErrorResponse: {"error": {"code", "message", "retry_after_ms"}}.
type Error struct {
	// Code is a stable, machine-matchable identifier (see the Code*
	// constants). New codes may be added; clients must tolerate unknown
	// ones.
	Code string `json:"code"`
	// Message is a human-readable description. Not stable; do not match on
	// it.
	Message string `json:"message"`
	// RetryAfterMS, when non-zero, is the server's hint for how long to
	// back off before retrying (load shedding, full queues).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ErrorResponse is the envelope around Error.
type ErrorResponse struct {
	Error Error `json:"error"`
}

// Stable error codes. HTTP status alone is ambiguous (three different 409
// conditions exist on the session resource); the code disambiguates.
const (
	// CodeInvalidArgument (400): the request body or parameters are
	// malformed or reference unknown apps/clusters/knobs.
	CodeInvalidArgument = "invalid_argument"
	// CodeNotFound (404): the resource (session, route) does not exist.
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed (405): wrong HTTP method for the route.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeQueueFull (429): the feedback queue cannot absorb another item.
	CodeQueueFull = "queue_full"
	// CodeOverloaded (503): admission control shed the request; retry after
	// RetryAfterMS.
	CodeOverloaded = "overloaded"
	// CodeUnavailable (503): no shard could serve the request (fleet).
	CodeUnavailable = "unavailable"
	// CodeDeadlineExceeded (504): the request's deadline elapsed inside the
	// pipeline.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeClientClosedRequest (499): the client went away first.
	CodeClientClosedRequest = "client_closed_request"
	// CodeSessionClosed (409): the tuning session is closed.
	CodeSessionClosed = "session_closed"
	// CodeBudgetExhausted (409): the session's trial budget is spent; close
	// the session or read its best config.
	CodeBudgetExhausted = "budget_exhausted"
	// CodeTrialAlreadyReported (409): this trial already has a result
	// (results are exactly-once).
	CodeTrialAlreadyReported = "trial_already_reported"
	// CodeUnknownTrial (400): the reported trial number was never proposed.
	CodeUnknownTrial = "unknown_trial"
	// CodeInternal (500): everything else.
	CodeInternal = "internal"
)

// RecommendRequest is one POST /v1/recommend call.
type RecommendRequest struct {
	App    string  `json:"app"`
	SizeMB float64 `json:"size_mb"`
	// Cluster names one of the simulated environments (A, B or C).
	Cluster string `json:"cluster"`
	// Features optionally carries enough of the application to embed it.
	// When App is absent from the server's workload registry but Features
	// is present, the request is served from the retrieval cold-start tier
	// (nearest historical neighbour) instead of being rejected with 400.
	Features *AppFeatures `json:"features,omitempty"`
}

// AppFeatures is the self-describing feature payload for applications the
// server has never trained on: raw stage source code and/or the DAG
// operation labels. At least one of the two must be non-empty for the
// request to be embeddable.
type AppFeatures struct {
	// Code is the application's (concatenated stage) source code; the
	// server tokenizes it with the same tokenizer the NECS vocabulary uses.
	Code string `json:"code,omitempty"`
	// Ops lists the stage-DAG operation labels (map, reduceByKey, …).
	Ops []string `json:"ops,omitempty"`
}

// RecommendResponse is the JSON answer to /v1/recommend.
type RecommendResponse struct {
	App string `json:"app"`
	// SizeMB echoes the caller's requested datasize. Config and
	// PredictedSeconds are bucket-granular: they are computed at the size
	// bucket's canonical size (its power-of-two upper bound), so every
	// request sharing a cache/batch key receives one consistent answer.
	SizeMB  float64 `json:"size_mb"`
	Cluster string  `json:"cluster"`
	// Config maps knob name → recommended value.
	Config map[string]float64 `json:"config"`
	// PredictedSeconds is NECS's estimate; absent on degraded tiers.
	PredictedSeconds *float64 `json:"predicted_seconds,omitempty"`
	// Tier reports which degradation level answered (necs, retrieval,
	// acg-region, safe-default). Unseen-app requests served via Features
	// always report retrieval or safe-default.
	Tier string `json:"tier"`
	// Generation is the model snapshot that produced the answer.
	Generation uint64 `json:"generation"`
	// Cached is true when the answer came from the recommendation cache;
	// Coalesced when this request waited on another request's in-flight
	// computation of the same key instead of computing (singleflight).
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced"`
	// BatchSize is always 1: requests are no longer micro-batched. The
	// field stays so existing clients keep decoding the response.
	BatchSize int `json:"batch_size"`
	// OverheadMS is the server-side decision time in milliseconds.
	OverheadMS float64 `json:"overhead_ms"`
}

// FeedbackRequest reports the outcome of executing a recommendation in
// production (POST /v1/feedback). The configuration is given by knob name;
// unspecified knobs default.
type FeedbackRequest struct {
	App     string             `json:"app"`
	SizeMB  float64            `json:"size_mb"`
	Cluster string             `json:"cluster"`
	Config  map[string]float64 `json:"config,omitempty"`
}

// FeedbackResponse acknowledges queued feedback.
type FeedbackResponse struct {
	Queued bool `json:"queued"`
	// Pending is the queue depth after this item.
	Pending int `json:"pending"`
	// Generation is the model generation that will absorb this feedback
	// (at the earliest).
	Generation uint64 `json:"generation"`
	// Seq is the feedback's write-ahead-log sequence number (0 when the
	// WAL is disabled or the append failed). Once the WAL fsyncs past it,
	// the feedback survives a crash.
	Seq uint64 `json:"seq,omitempty"`
}

// HealthResponse is the JSON body of GET /v1/healthz: always 200 with
// status "ok" while the process serves (probes key on the status code
// alone), plus the signals a fleet health checker and flip coordinator act
// on.
type HealthResponse struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	Feedbacks  int    `json:"feedbacks"`
	SnapshotAt string `json:"snapshot_at"`
	// SnapshotAgeSeconds is the age of the last successfully persisted
	// snapshot; −1 when persistence is off or nothing has persisted yet.
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	// Inflight is the number of requests currently inside the pipeline
	// (0 when admission control is disabled).
	Inflight int `json:"inflight"`
	// WALUnfolded is the depth of accepted-but-not-yet-folded feedback in
	// the write-ahead log (0 when the WAL is off).
	WALUnfolded uint64 `json:"wal_unfolded"`
	// Follower reports fleet-follower mode: no local retraining, model
	// advances via /v1/admin/flip.
	Follower bool `json:"follower"`
	// Sessions is the number of active tuning sessions on this instance.
	Sessions int `json:"sessions"`
}

// FlipRequest asks a shard to hot-swap to an already-published snapshot
// file (POST /v1/admin/flip) as the given generation — the flip half of
// the fleet's publish-then-flip protocol.
type FlipRequest struct {
	SnapshotPath string `json:"snapshot_path"`
	Generation   uint64 `json:"generation"`
}

// FlipResponse reports the shard's live generation after the flip (which
// may exceed the requested one if a newer flip already landed).
type FlipResponse struct {
	Generation uint64 `json:"generation"`
}

// Tuning-session resource (/v1/tuning/sessions). A session is a stateful
// exploration loop for one (app, datasize, cluster): the server proposes
// candidate configurations under a safety bound, the client executes them
// and reports measured results, and winning configurations are promoted
// into the model through the feedback → adaptive-update path.

// CreateSessionRequest opens a session (POST /v1/tuning/sessions).
type CreateSessionRequest struct {
	App     string  `json:"app"`
	SizeMB  float64 `json:"size_mb"`
	Cluster string  `json:"cluster"`
	// Strategy is conservative, moderate (default) or aggressive — it sets
	// the exploration radius, the per-proposal candidate pool and the
	// default trial budget.
	Strategy string `json:"strategy,omitempty"`
	// MaxTrials overrides the strategy's trial budget (0 = strategy
	// default).
	MaxTrials int `json:"max_trials,omitempty"`
	// SafetyBound is the maximum tolerated slowdown of any proposed trial
	// relative to the session baseline, as a ratio (e.g. 1.5 = no proposal
	// may be expected to run more than 50% slower than the baseline).
	// 0 = server default.
	SafetyBound float64 `json:"safety_bound,omitempty"`
}

// Session is the session resource representation.
type Session struct {
	ID       string  `json:"id"`
	App      string  `json:"app"`
	SizeMB   float64 `json:"size_mb"`
	Cluster  string  `json:"cluster"`
	Strategy string  `json:"strategy"`
	// State is "active" or "closed".
	State       string  `json:"state"`
	SafetyBound float64 `json:"safety_bound"`
	MaxTrials   int     `json:"max_trials"`
	// TrialsUsed counts proposals issued; it is monotone and never exceeds
	// MaxTrials.
	TrialsUsed int `json:"trials_used"`
	// Violations counts reported trials whose measured time exceeded
	// SafetyBound × the measured baseline (the screening failed to prevent
	// a regression; exploration re-anchors on the best known config).
	Violations int `json:"violations"`
	// Promotions counts trials whose result was promoted into the model.
	Promotions int `json:"promotions"`

	// BaselineConfig is the static recommendation the session is anchored
	// on (trial 0 measures it). BaselinePredictedSeconds is the model's
	// estimate; BaselineSeconds is the measured time (0 until trial 0 is
	// reported).
	BaselineConfig           map[string]float64 `json:"baseline_config"`
	BaselinePredictedSeconds *float64           `json:"baseline_predicted_seconds,omitempty"`
	BaselineSeconds          float64            `json:"baseline_seconds,omitempty"`

	// Best is the fastest measured configuration so far.
	BestConfig  map[string]float64 `json:"best_config,omitempty"`
	BestSeconds float64            `json:"best_seconds,omitempty"`
	BestTrial   int                `json:"best_trial,omitempty"`

	Trials []SessionTrial `json:"trials,omitempty"`

	CreatedAt string `json:"created_at"`
	ClosedAt  string `json:"closed_at,omitempty"`
}

// SessionTrial is one proposed (and possibly reported) trial of a session.
type SessionTrial struct {
	Trial  int                `json:"trial"`
	Config map[string]float64 `json:"config"`
	// PredictedSeconds is the model's estimate for the proposal; absent
	// when the proposal came from a degraded tier.
	PredictedSeconds *float64 `json:"predicted_seconds,omitempty"`
	// Source says how the proposal was chosen: "baseline" (trial 0),
	// "explore" (a screened perturbation of the best known config) or
	// "best" (safe fallback re-proposal when no candidate passed
	// screening).
	Source   string  `json:"source"`
	Reported bool    `json:"reported"`
	Seconds  float64 `json:"seconds,omitempty"`
	Failed   bool    `json:"failed,omitempty"`
	Improved bool    `json:"improved,omitempty"`
	Promoted bool    `json:"promoted,omitempty"`
}

// SessionListResponse is GET /v1/tuning/sessions.
type SessionListResponse struct {
	Sessions []Session `json:"sessions"`
}

// ProposalResponse is POST /v1/tuning/sessions/{id}/proposal: the next
// configuration the client should execute. Re-requesting a proposal before
// reporting its result returns the same trial (idempotent; budget is spent
// per trial, not per call).
type ProposalResponse struct {
	SessionID        string             `json:"session_id"`
	Trial            int                `json:"trial"`
	Config           map[string]float64 `json:"config"`
	PredictedSeconds *float64           `json:"predicted_seconds,omitempty"`
	// Source: see SessionTrial.Source.
	Source string `json:"source"`
	// BudgetRemaining is MaxTrials − TrialsUsed after this proposal.
	BudgetRemaining int `json:"budget_remaining"`
	// Generation is the model snapshot that scored the proposal.
	Generation uint64 `json:"generation"`
	// AbortAfterSeconds is the trial's runtime guard-rail:
	// safety_bound × the measured baseline. The executing client MUST
	// abort the run once it passes this and report it failed with
	// seconds = AbortAfterSeconds — that is what makes "never regress
	// past the baseline by more than the bound" hold for every trial,
	// including the ones the screening model mispredicts. 0 while the
	// baseline itself is still unmeasured (trial 0).
	AbortAfterSeconds float64 `json:"abort_after_seconds,omitempty"`
}

// ReportResultRequest is POST /v1/tuning/sessions/{id}/result: the
// measured outcome of executing a proposal.
type ReportResultRequest struct {
	Trial   int     `json:"trial"`
	Seconds float64 `json:"seconds"`
	Failed  bool    `json:"failed,omitempty"`
}

// ReportResultResponse acknowledges a result.
type ReportResultResponse struct {
	SessionID string `json:"session_id"`
	Trial     int    `json:"trial"`
	// Improved is true when this trial set a new session best.
	Improved bool `json:"improved"`
	// Promoted is true when the result was promoted into the model via the
	// feedback → adaptive-update path (exactly once per trial).
	Promoted bool `json:"promoted"`
	// Violation is true when the measured time exceeded SafetyBound × the
	// measured baseline.
	Violation       bool    `json:"violation"`
	BestSeconds     float64 `json:"best_seconds,omitempty"`
	BaselineSeconds float64 `json:"baseline_seconds,omitempty"`
	BudgetRemaining int     `json:"budget_remaining"`
	// Promotion carries the promoted feedback body when Promoted is true;
	// a fleet router tees it to the trainer shard (the trainer owns
	// promotion).
	Promotion *FeedbackRequest `json:"promotion,omitempty"`
}
