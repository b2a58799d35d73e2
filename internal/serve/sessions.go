package serve

import (
	"math"
	"net/http"
	"path/filepath"
	"sync/atomic"

	"lite/internal/core"
	"lite/internal/session"
	"lite/internal/sparksim"
	"lite/internal/workload"
	"lite/pkg/api"
)

// Tuning sessions (/v1/tuning/sessions, DESIGN.md §11). The subsystem
// itself lives in internal/session; this file wires it into the server:
// the store is opened in Start (persisting under Options.SessionDir
// through the same WAL/snapshot seam as the model), proposals are scored
// against the live published snapshot, and winning results are promoted
// through the ordinary feedback path — on a trainer or a standalone server
// they enter the adaptive-update queue; a follower only echoes them, and
// the fleet router posts them to the trainer (the trainer owns promotion).

// sessionsPtr is the store handle; atomic because handlers may race Start
// in tests that spin the handler up concurrently.
type sessionsPtr = atomic.Pointer[session.Store]

func (s *Server) sessionStore() *session.Store { return s.sessions.Load() }

// openSessions builds the session store (called from Start). Persistence
// defaults to <WALDir>/sessions when a WAL directory is configured;
// without one, sessions are in-memory and die with the process.
func (s *Server) openSessions() error {
	dir := s.opts.SessionDir
	if dir == "" && s.opts.WALDir != "" {
		dir = filepath.Join(s.opts.WALDir, "sessions")
	}
	st, err := session.Open(session.Options{
		Dir:          dir,
		FS:           s.opts.FS,
		SyncEvery:    s.opts.WALSyncEvery,
		SyncInterval: s.opts.WALSyncInterval,
		Seed:         s.opts.Seed,
		Now:          s.opts.Now,
	})
	if err != nil {
		return err
	}
	s.sessions.Store(st)
	s.reg.GaugeFunc("lite_sessions_active", func() float64 {
		return float64(st.Active())
	})
	if st.RecoveredEvents > 0 || st.RecoveredSessions > 0 {
		s.reg.Counter("lite_session_recovered_events_total").Add(uint64(st.RecoveredEvents))
	}
	return nil
}

// SessionRoutingKey derives the fleet sharding key from a session ID
// alone: the identifying (app, datasize, cluster) fields are embedded in
// the ID precisely so a router can place /v1/tuning/sessions/{id}/...
// requests on the owning shard without a lookup table. The key is the same
// (app, datasize bucket, env fingerprint) string /v1/recommend hashes, so
// a session lives on the shard whose cache is hot for its keyspace slice.
func SessionRoutingKey(id string) (string, error) {
	app, sizeMB, cluster, err := session.ParseID(id)
	if err != nil {
		return "", badRequest("malformed session id %q", id)
	}
	return RoutingKey(app, sizeMB, cluster)
}

// snapshotScorer adapts one published model snapshot to the session
// subsystem's Scorer: candidate screening sees exactly what /v1/recommend
// would predict, at the session's exact datasize.
type snapshotScorer struct {
	*core.AppScorer
	env sparksim.Environment
}

func (sc snapshotScorer) Feasible(cfg sparksim.Config) bool {
	return sparksim.Feasible(cfg, sc.env)
}

// handleSessions is the collection route: POST creates, GET lists.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	st := s.sessionStore()
	if st == nil {
		s.writeAPIError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "session store not started", 1000)
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.writeJSON(w, http.StatusOK, api.SessionListResponse{Sessions: st.List()})
	case http.MethodPost:
		s.handleSessionCreate(w, r, st)
	default:
		s.requireMethod(w, r, http.MethodGet, http.MethodPost)
	}
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request, st *session.Store) {
	var req api.CreateSessionRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	tgt, err := resolveRegistered(req.App, req.SizeMB, req.Cluster)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// The baseline is the static safe recommendation at the session's
	// exact size — the config the session must never regress past by more
	// than the bound, and the anchor trial 0 measures.
	snap := s.snap.Load()
	data := tgt.app.Spec.MakeData(tgt.sizeMB)
	sr, err := snap.Tuner.RecommendSafeCtx(ctx, tgt.app.Spec, data, tgt.env)
	if err != nil {
		s.writeError(w, err)
		return
	}
	baseCfg, basePred := s.warmStartBaseline(snap, tgt.app, data, tgt.env, sr)
	sess, err := st.Create(tgt.name, tgt.sizeMB, tgt.env.Name,
		session.Strategy(req.Strategy), req.MaxTrials, req.SafetyBound,
		baseCfg, basePred)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.reg.Counter("lite_sessions_created_total").Inc()
	s.writeJSON(w, http.StatusCreated, sess)
}

// warmStartBaseline picks the session's starting configuration: the static
// safe recommendation, unless the retrieval store knows a neighbour whose
// adapted best-known config the live model scores strictly better — then
// the session starts exploring from the neighbour instead of re-learning
// it. Only a NECS-tier recommendation is challenged: degraded tiers either
// already are the retrieval answer or carry no estimate to compare.
func (s *Server) warmStartBaseline(snap *Snapshot, app *workload.App, data sparksim.DataSpec, env sparksim.Environment, sr core.SafeRecommendation) (sparksim.Config, float64) {
	if sr.Tier != core.TierNECS || snap.Tuner.Model == nil {
		return sr.Config, sr.PredictedSeconds
	}
	anchor, ok := snap.Tuner.RetrievalAnchor(app.Spec, data, env)
	if !ok {
		return sr.Config, sr.PredictedSeconds
	}
	scorer := snap.Tuner.Model.NewAppScorer(app.Spec, data, env)
	pred, finite := scorer.ScoreChecked(anchor)
	if !finite || math.IsNaN(pred) || math.IsInf(pred, 0) || pred >= sr.PredictedSeconds {
		return sr.Config, sr.PredictedSeconds
	}
	s.reg.Counter("lite_session_retrieval_warmstarts_total").Inc()
	return anchor, pred
}

// handleSessionByID is the item route: GET reads (with trial history),
// DELETE closes (idempotent; the closed resource stays readable).
func (s *Server) handleSessionByID(w http.ResponseWriter, r *http.Request) {
	st := s.sessionStore()
	if st == nil {
		s.writeAPIError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "session store not started", 1000)
		return
	}
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		sess, err := st.Get(id, true)
		if err != nil {
			s.writeError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, sess)
	case http.MethodDelete:
		sess, err := st.CloseSession(id)
		if err != nil {
			s.writeError(w, err)
			return
		}
		s.reg.Counter("lite_sessions_closed_total").Inc()
		s.writeJSON(w, http.StatusOK, sess)
	default:
		s.requireMethod(w, r, http.MethodGet, http.MethodDelete)
	}
}

// handleSessionProposal issues the next trial's configuration. The
// proposal is screened against the live snapshot; re-requesting before
// reporting returns the same trial without spending budget.
func (s *Server) handleSessionProposal(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	st := s.sessionStore()
	if st == nil {
		s.writeAPIError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "session store not started", 1000)
		return
	}
	id := r.PathValue("id")
	meta, err := st.Get(id, false)
	if err != nil {
		s.writeError(w, err)
		return
	}
	tgt, err := resolveRegistered(meta.App, meta.SizeMB, meta.Cluster)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// One snapshot load for the whole proposal: the generation reported
	// back is exactly the model every candidate was screened against.
	snap := s.snap.Load()
	scorer := snap.Tuner.Model.NewAppScorer(tgt.app.Spec, tgt.app.Spec.MakeData(tgt.sizeMB), tgt.env)
	prop, err := st.NextProposal(id, snapshotScorer{AppScorer: scorer, env: tgt.env})
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.reg.Counter("lite_session_proposals_total{source=\"" + prop.Source + "\"}").Inc()
	s.writeJSON(w, http.StatusOK, api.ProposalResponse{
		SessionID:         prop.SessionID,
		Trial:             prop.Trial,
		Config:            session.ConfigMap(prop.Config),
		PredictedSeconds:  prop.Predicted,
		Source:            prop.Source,
		BudgetRemaining:   prop.BudgetRemaining,
		Generation:        snap.Gen,
		AbortAfterSeconds: prop.AbortAfterSeconds,
	})
}

// handleSessionResult records a trial's measured outcome, exactly once per
// trial, and promotes new session bests into the model through the
// feedback path. The promoted body is also echoed in the response
// (Promotion): a follower, which has no update loop, leaves the promotion
// to the fleet router, which posts it to the trainer shard.
func (s *Server) handleSessionResult(w http.ResponseWriter, r *http.Request) {
	st := s.sessionStore()
	if st == nil {
		s.writeAPIError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "session store not started", 1000)
		return
	}
	var req api.ReportResultRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	resp, err := st.Report(r.PathValue("id"), req.Trial, req.Seconds, req.Failed)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if resp.Violation {
		s.reg.Counter("lite_session_violations_total").Inc()
	}
	if fb := resp.Promotion; fb != nil {
		var ferr error
		if !s.opts.Follower {
			// A follower has no update loop: the fleet router posts the
			// echoed promotion to the trainer.
			ctx, cancel := s.requestContext(r)
			_, ferr = s.FeedbackCtx(ctx, *fb)
			cancel()
		}
		if ferr != nil {
			// The result itself is recorded (and durable); a full feedback
			// queue only delays the model learning this win. Count it —
			// the session can re-discover the config.
			s.reg.Counter("lite_session_promotions_dropped_total").Inc()
		} else {
			s.reg.Counter("lite_session_promotions_total").Inc()
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}
