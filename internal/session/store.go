package session

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"lite/internal/sparksim"
	"lite/internal/wal"
	"lite/pkg/api"
)

// Options configures a Store. The zero value of every field gets a sane
// default.
type Options struct {
	// Dir persists sessions (a WAL of mutation events plus an atomic
	// sessions.json snapshot). Empty = in-memory only; sessions die with
	// the process.
	Dir string
	// FS overrides the filesystem for both the WAL and the snapshot
	// (fault-injection tests). Default wal.OSFS.
	FS wal.FS
	// SyncEvery / SyncInterval tune the session WAL's fsync batching
	// (defaults follow wal.Options).
	SyncEvery    int
	SyncInterval time.Duration
	// Seed makes proposal randomness and ID nonces deterministic; 0 uses
	// a time-derived seed.
	Seed int64
	// Now overrides the clock (tests).
	Now func() time.Time
	// Logf, when set, receives replay/persistence diagnostics.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = wal.OSFS{}
	}
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano()
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

const snapshotFile = "sessions.json"

// Store owns every tuning session on one instance. All methods are safe
// for concurrent use; mutations are WAL-appended before they are applied,
// and the table is periodically folded into an atomic snapshot, so a
// crash-restart recovers every acknowledged mutation (the same durability
// contract as the model's feedback WAL, DESIGN.md §9).
type Store struct {
	opts Options

	mu        sync.Mutex
	sessions  map[string]*Session
	rng       *rand.Rand
	w         *wal.WAL
	unsnapped int
	lastSeq   uint64
	// snapshotEvery folds the WAL into sessions.json after this many
	// events.
	snapshotEvery int

	// RecoveredSessions / RecoveredEvents report what Open replayed, for
	// boot logs and tests.
	RecoveredSessions int
	RecoveredEvents   int
}

// event is one WAL record. Replay is idempotent: a create for an existing
// ID, a propose at an already-present trial index, a report of an
// already-reported trial and a close of a closed session are all no-ops,
// so at-least-once replay (WAL folded after the snapshot persists) cannot
// double-apply. Promotions never re-fire on replay — the promoted feedback
// went through the feedback WAL, which made it durable on its own.
type event struct {
	Op      string      `json:"op"` // create | propose | report | close
	ID      string      `json:"id"`
	Session *Session    `json:"session,omitempty"`
	Trial   *Trial      `json:"trial,omitempty"`
	Report  *reportJSON `json:"report,omitempty"`
	At      time.Time   `json:"at,omitempty"`
}

type reportJSON struct {
	Trial   int     `json:"trial"`
	Seconds float64 `json:"seconds"`
	Failed  bool    `json:"failed,omitempty"`
}

type storeSnapshot struct {
	Sessions []*Session `json:"sessions"`
}

// Open loads (or creates) a session store. With a Dir it reads
// sessions.json, replays every unfolded WAL event on top and is then ready
// for traffic; without one it is purely in-memory.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	st := &Store{
		opts:          opts,
		sessions:      make(map[string]*Session),
		rng:           rand.New(rand.NewSource(opts.Seed)),
		snapshotEvery: 64,
	}
	if opts.Dir == "" {
		return st, nil
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("session: mkdir %s: %w", opts.Dir, err)
	}
	if err := st.loadSnapshot(); err != nil {
		return nil, err
	}
	w, recs, stats, err := wal.Open(wal.Options{
		Dir:          opts.Dir,
		SyncEvery:    opts.SyncEvery,
		SyncInterval: opts.SyncInterval,
		FS:           opts.FS,
	})
	if err != nil {
		return nil, fmt.Errorf("session: open wal: %w", err)
	}
	st.w = w
	for _, rec := range recs {
		var ev event
		if err := json.Unmarshal(rec.Data, &ev); err != nil {
			opts.Logf("session: skipping undecodable wal record seq=%d: %v", rec.Seq, err)
			continue
		}
		st.apply(&ev)
		st.lastSeq = rec.Seq
		st.RecoveredEvents++
	}
	st.RecoveredSessions = len(st.sessions)
	if stats.CorruptTails > 0 {
		opts.Logf("session: wal recovery discarded %d corrupt tail(s)", stats.CorruptTails)
	}
	// Fold what we just replayed so restart loops don't grow the log.
	if st.RecoveredEvents > 0 {
		if err := st.snapshotLocked(); err != nil {
			opts.Logf("session: boot snapshot failed (will retry on next fold): %v", err)
		}
	}
	return st, nil
}

func (st *Store) loadSnapshot() error {
	path := filepath.Join(st.opts.Dir, snapshotFile)
	f, err := st.opts.FS.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("session: open snapshot: %w", err)
	}
	defer f.Close()
	var snap storeSnapshot
	if err := json.NewDecoder(f).Decode(&snap); err != nil {
		return fmt.Errorf("session: decode snapshot %s: %w", path, err)
	}
	for _, s := range snap.Sessions {
		if s != nil {
			st.adopt(s)
		}
	}
	return nil
}

// adopt installs a decoded session. Its Params are re-derived from its
// strategy, the only preset Create stores, so a persisted count cannot make
// one proposal score an unbounded number of candidates; a session whose
// strategy is unknown is skipped. One persisted without a trust radius
// gets its starting radius.
func (st *Store) adopt(s *Session) {
	params, ok := ParamsFor(s.Strategy)
	if !ok {
		st.opts.Logf("session: skipping session %q with unknown strategy %q", s.ID, s.Strategy)
		return
	}
	s.Params = params
	if s.Radius <= 0 {
		s.Radius = math.Min(TrustStart, s.Params.Radius)
	}
	st.sessions[s.ID] = s
}

// apply replays one event onto the table, idempotently. Called with st.mu
// held (or before the store is shared, during Open).
func (st *Store) apply(ev *event) {
	switch ev.Op {
	case "create":
		if ev.Session == nil {
			return
		}
		if _, ok := st.sessions[ev.Session.ID]; ok {
			return
		}
		st.adopt(ev.Session)
	case "propose":
		s := st.sessions[ev.ID]
		if s == nil || ev.Trial == nil || ev.Trial.Trial != len(s.Trials) {
			return
		}
		s.Trials = append(s.Trials, *ev.Trial)
	case "report":
		s := st.sessions[ev.ID]
		if s == nil || ev.Report == nil {
			return
		}
		t := ev.Report.Trial
		if t < 0 || t >= len(s.Trials) || s.Trials[t].Reported {
			return
		}
		s.applyReport(t, ev.Report.Seconds, ev.Report.Failed)
	case "close":
		s := st.sessions[ev.ID]
		if s == nil || s.Closed {
			return
		}
		s.Closed = true
		s.ClosedAt = ev.At
	}
}

// append persists one event (WAL append, then periodic fold into the
// snapshot). A WAL failure is returned to the caller *before* the mutation
// is applied — an unacknowledged mutation never survives a crash that an
// acknowledged one would lose.
func (st *Store) append(ev *event) error {
	if st.w == nil {
		return nil
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("session: encode event: %w", err)
	}
	seq, err := st.w.Append(data)
	if err != nil {
		return fmt.Errorf("session: wal append: %w", err)
	}
	st.lastSeq = seq
	st.unsnapped++
	if st.unsnapped >= st.snapshotEvery {
		if err := st.snapshotLocked(); err != nil {
			// The WAL still has everything; fold again later.
			st.opts.Logf("session: snapshot failed (wal retains events): %v", err)
		}
	}
	return nil
}

// snapshotLocked writes sessions.json atomically (wal.WriteFileAtomic) and
// then folds the WAL past everything it captured — only then: the cursor
// never passes a snapshot that is not yet durable. Called with st.mu held.
func (st *Store) snapshotLocked() error {
	if st.opts.Dir == "" {
		return nil
	}
	snap := storeSnapshot{Sessions: make([]*Session, 0, len(st.sessions))}
	ids := make([]string, 0, len(st.sessions))
	for id := range st.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		snap.Sessions = append(snap.Sessions, st.sessions[id])
	}
	data, err := json.MarshalIndent(&snap, "", " ")
	if err != nil {
		return err
	}
	err = wal.WriteFileAtomic(st.opts.FS, filepath.Join(st.opts.Dir, snapshotFile), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return err
	}
	if st.w != nil && st.lastSeq > 0 {
		if err := st.w.MarkFolded(st.lastSeq); err != nil {
			return err
		}
	}
	st.unsnapped = 0
	return nil
}

// Create opens a session. The caller (the serve layer) resolves the static
// recommendation first and passes it in as the baseline; predicted may be
// NaN when the static tier had no estimate. Returns the session view.
func (st *Store) Create(app string, sizeMB float64, cluster string, strategy Strategy, maxTrials int, bound float64, baseline sparksim.Config, predicted float64) (api.Session, error) {
	if strategy == "" {
		strategy = Moderate
	}
	params, ok := ParamsFor(strategy)
	if !ok {
		return api.Session{}, fmt.Errorf("%w: unknown strategy %q (want conservative, moderate or aggressive)", errInvalid, strategy)
	}
	if maxTrials < 0 {
		return api.Session{}, fmt.Errorf("%w: max_trials must be >= 0", errInvalid)
	}
	if maxTrials == 0 {
		maxTrials = params.MaxTrials
	}
	if bound == 0 {
		bound = DefaultSafetyBound
	}
	if bound <= 1 {
		return api.Session{}, fmt.Errorf("%w: safety_bound must be > 1 (got %g)", errInvalid, bound)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	var id string
	for {
		id = FormatID(app, sizeMB, cluster, uint64(st.rng.Int63())&0xffffffff)
		if _, taken := st.sessions[id]; !taken {
			break
		}
	}
	s := &Session{
		ID:                id,
		App:               app,
		SizeMB:            sizeMB,
		Cluster:           cluster,
		Strategy:          strategy,
		Params:            params,
		SafetyBound:       bound,
		MaxTrials:         maxTrials,
		Radius:            math.Min(TrustStart, params.Radius),
		BaselineConfig:    baseline,
		BaselinePredicted: estimate(predicted),
		CreatedAt:         st.opts.Now(),
	}
	if err := st.append(&event{Op: "create", ID: id, Session: s}); err != nil {
		return api.Session{}, err
	}
	st.sessions[id] = s
	return s.View(false), nil
}

// errInvalid marks argument errors; the HTTP layer maps it to
// api.CodeInvalidArgument.
var errInvalid = fmt.Errorf("session: invalid argument")

// IsInvalid reports whether err is an argument-validation failure.
func IsInvalid(err error) bool { return errors.Is(err, errInvalid) }

// Get returns a session view.
func (st *Store) Get(id string, includeTrials bool) (api.Session, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.sessions[id]
	if s == nil {
		return api.Session{}, ErrNotFound
	}
	return s.View(includeTrials), nil
}

// Target returns the app, input size and cluster a session tunes, without
// building its view.
func (st *Store) Target(id string) (app string, sizeMB float64, cluster string, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.sessions[id]
	if s == nil {
		return "", 0, "", ErrNotFound
	}
	return s.App, s.SizeMB, s.Cluster, nil
}

// List returns every session's view (no trials), sorted by creation time
// then ID.
func (st *Store) List() []api.Session {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]api.Session, 0, len(st.sessions))
	ordered := make([]*Session, 0, len(st.sessions))
	for _, s := range st.sessions {
		ordered = append(ordered, s)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if !ordered[i].CreatedAt.Equal(ordered[j].CreatedAt) {
			return ordered[i].CreatedAt.Before(ordered[j].CreatedAt)
		}
		return ordered[i].ID < ordered[j].ID
	})
	for _, s := range ordered {
		out = append(out, s.View(false))
	}
	return out
}

// Active counts open sessions (for /healthz).
func (st *Store) Active() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, s := range st.sessions {
		if !s.Closed {
			n++
		}
	}
	return n
}

// Proposal is NextProposal's answer.
type Proposal struct {
	SessionID       string
	Trial           int
	Config          sparksim.Config
	Predicted       *float64 // nil when the model had no estimate
	Source          string
	BudgetRemaining int
	// AbortAfterSeconds is SafetyBound × the measured baseline — the
	// guard-rail the executing client enforces (0 until the baseline is
	// measured). Screening and the trust region keep aborts rare; the
	// guard-rail is what makes the bound a hard invariant.
	AbortAfterSeconds float64
}

// NextProposal returns the configuration the client should execute next.
// While a proposal is unreported, calling again returns the same trial
// without spending budget; once it is reported, the next call spends one
// trial of budget. sc scores candidates against the live model.
func (st *Store) NextProposal(id string, sc Scorer) (Proposal, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.sessions[id]
	if s == nil {
		return Proposal{}, ErrNotFound
	}
	if s.Closed {
		return Proposal{}, ErrClosed
	}
	if p := s.pending(); p != nil {
		return proposalOf(s, p), nil
	}
	if s.trialsUsed() >= s.MaxTrials {
		return Proposal{}, ErrBudgetExhausted
	}
	t := s.propose(sc, st.rng)
	if err := st.append(&event{Op: "propose", ID: id, Trial: &t}); err != nil {
		return Proposal{}, err
	}
	s.Trials = append(s.Trials, t)
	return proposalOf(s, &s.Trials[len(s.Trials)-1]), nil
}

func proposalOf(s *Session, t *Trial) Proposal {
	p := Proposal{
		SessionID:       s.ID,
		Trial:           t.Trial,
		Config:          t.Config,
		Predicted:       clone(t.Predicted),
		Source:          t.Source,
		BudgetRemaining: s.MaxTrials - s.trialsUsed(),
	}
	if t.Source != SourceBaseline && s.BaselineSeconds > 0 {
		p.AbortAfterSeconds = s.SafetyBound * s.BaselineSeconds
	}
	return p
}

// applyReport folds one measured result into the session. Pure state
// transition — shared verbatim between the live path and WAL replay, so
// replayed state is bit-identical to what the live path produced. The
// trial records whether it improved and was promoted; the return value
// says whether it violated the bound.
func (s *Session) applyReport(trial int, seconds float64, failed bool) (violation bool) {
	t := &s.Trials[trial]
	t.Reported = true
	t.Seconds = seconds
	t.Failed = failed

	if t.Source == SourceBaseline && s.BaselineSeconds == 0 && !failed {
		s.BaselineSeconds = seconds
	}

	// A violation is a reported time strictly past SafetyBound × the
	// measured baseline. A guard-rail abort reports exactly the bound and
	// is therefore not a violation: the trial regressed *to* the bound,
	// never past it. Failures are recorded on the trial (and shrink the
	// trust region below) without being counted here.
	violation = s.BaselineSeconds > 0 && t.Source != SourceBaseline &&
		seconds > s.SafetyBound*s.BaselineSeconds
	if violation {
		s.Violations++
	}

	// Trust-region update, measurements only (part of the pure transition,
	// so replay reproduces the same exploration schedule). A failed or
	// near-bound trial halves the step; a trial at least as fast as the
	// baseline earns a bigger one, capped by the strategy's ceiling.
	if t.Source != SourceBaseline {
		warn := 1 + TrustWarnFrac*(s.SafetyBound-1)
		switch {
		case failed || (s.BaselineSeconds > 0 && seconds > warn*s.BaselineSeconds):
			s.Radius = math.Max(s.Radius*TrustShrink, TrustFloor)
		case !failed && s.BaselineSeconds > 0 && seconds <= s.BaselineSeconds:
			s.Radius = math.Min(s.Radius*TrustGrow, s.Params.Radius)
		}
	}

	improved, promote := false, false
	if !failed {
		if !s.HasBest {
			s.HasBest = true
			s.BestConfig = t.Config
			s.BestSeconds = seconds
			s.BestTrial = trial
		} else if seconds < s.BestSeconds {
			improved = true
			s.BestConfig = t.Config
			s.BestSeconds = seconds
			s.BestTrial = trial
			// Promote only genuine wins over the baseline reference —
			// beating a failed-baseline session's incidental best is not a
			// model-worthy signal until it also beats the safety reference.
			promote = t.Source != SourceBaseline
		}
	}
	t.Improved = improved
	t.Promoted = promote
	if promote {
		s.Promotions++
	}

	return violation
}

// Report records a trial's measured result, exactly once per trial, and
// answers in the wire type. When the trial is promoted, the response's
// Promotion is the feedback body the caller feeds to the model; because
// the event is WAL-appended before the response is returned, a crash after
// promotion replays the report as a no-op promote (the feedback WAL
// already holds the promotion). An unknown session is ErrNotFound before
// any argument is checked.
func (st *Store) Report(id string, trial int, seconds float64, failed bool) (api.ReportResultResponse, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.sessions[id]
	if s == nil {
		return api.ReportResultResponse{}, ErrNotFound
	}
	if seconds < 0 || math.IsNaN(seconds) || math.IsInf(seconds, 0) {
		return api.ReportResultResponse{}, fmt.Errorf("%w: seconds must be a finite value >= 0", errInvalid)
	}
	if s.Closed {
		return api.ReportResultResponse{}, ErrClosed
	}
	if trial < 0 || trial >= len(s.Trials) {
		return api.ReportResultResponse{}, ErrUnknownTrial
	}
	if s.Trials[trial].Reported {
		return api.ReportResultResponse{}, ErrTrialAlreadyReported
	}
	if err := st.append(&event{Op: "report", ID: id, Report: &reportJSON{Trial: trial, Seconds: seconds, Failed: failed}}); err != nil {
		return api.ReportResultResponse{}, err
	}
	violation := s.applyReport(trial, seconds, failed)
	t := &s.Trials[trial]
	resp := api.ReportResultResponse{
		SessionID:       id,
		Trial:           trial,
		Improved:        t.Improved,
		Promoted:        t.Promoted,
		Violation:       violation,
		BestSeconds:     s.BestSeconds,
		BaselineSeconds: s.BaselineSeconds,
		BudgetRemaining: s.MaxTrials - s.trialsUsed(),
	}
	if t.Promoted {
		resp.Promotion = &api.FeedbackRequest{App: s.App, SizeMB: s.SizeMB, Cluster: s.Cluster, Config: ConfigMap(t.Config)}
	}
	return resp, nil
}

// CloseSession closes a session (idempotent: closing a closed session
// returns its view unchanged). Closed sessions stay readable.
func (st *Store) CloseSession(id string) (api.Session, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.sessions[id]
	if s == nil {
		return api.Session{}, ErrNotFound
	}
	if s.Closed {
		return s.View(true), nil
	}
	at := st.opts.Now()
	if err := st.append(&event{Op: "close", ID: id, At: at}); err != nil {
		return api.Session{}, err
	}
	s.Closed = true
	s.ClosedAt = at
	return s.View(true), nil
}

// Snapshot forces a fold (tests and shutdown).
func (st *Store) Snapshot() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.snapshotLocked()
}

// Close folds once more and closes the WAL.
func (st *Store) Close() error {
	st.mu.Lock()
	if err := st.snapshotLocked(); err != nil {
		st.opts.Logf("session: final snapshot failed: %v", err)
	}
	w := st.w
	st.w = nil
	st.mu.Unlock()
	if w != nil {
		return w.Close()
	}
	return nil
}
