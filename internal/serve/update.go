package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"lite/internal/core"
	"lite/internal/instrument"
	"lite/internal/sparksim"
	"lite/internal/wal"
	"lite/internal/workload"
	"lite/pkg/api"
)

// FeedbackRequest reports the outcome of executing a recommendation in
// production (online Step 4). The server executes the run on the simulated
// cluster to recover stage-level instances — the stand-in for the paper's
// instrumented production system. The wire shape lives in pkg/api.
type FeedbackRequest = api.FeedbackRequest

// FeedbackResponse acknowledges queued feedback (see api.FeedbackResponse).
type FeedbackResponse = api.FeedbackResponse

// ErrQueueFull is reported when the feedback queue cannot absorb another
// item; the client should retry later.
var ErrQueueFull = fmt.Errorf("serve: feedback queue full")

// Feedback validates and enqueues one feedback run for the background
// adaptive-update loop. It never blocks on training.
func (s *Server) Feedback(req FeedbackRequest) (FeedbackResponse, error) {
	return s.FeedbackCtx(context.Background(), req)
}

// FeedbackCtx is Feedback under a caller-supplied context. Enqueueing is
// already non-blocking (a full queue fails fast with ErrQueueFull), so the
// context only gates entry: a request whose deadline already passed is not
// admitted.
//
// With a WAL configured (Options.WALDir), accepted feedback is appended to
// the log before it is enqueued, so a crash replays it on the next boot.
// Durability is at-least-once: feedback the WAL accepted but the queue
// rejected (ErrQueueFull) is not lost — it is replayed on restart.
func (s *Server) FeedbackCtx(ctx context.Context, req FeedbackRequest) (FeedbackResponse, error) {
	if err := ctx.Err(); err != nil {
		return FeedbackResponse{}, err
	}
	app, env, err := s.resolve(req.App, req.Cluster)
	if err != nil {
		return FeedbackResponse{}, err
	}
	if req.SizeMB <= 0 {
		req.SizeMB = app.Sizes.Test
	}
	cfg, err := ConfigFromMap(req.Config)
	if err != nil {
		return FeedbackResponse{}, err
	}
	cfg = core.ForceFeasible(cfg, env)
	item := feedbackItem{app: app, req: req, cfg: cfg, env: env}
	if s.wal != nil {
		// Append before enqueue: once the WAL fsyncs, this feedback cannot
		// be lost to a crash. An append failure degrades durability, never
		// availability — the item still flows through the in-memory loop.
		payload, merr := json.Marshal(req)
		if merr == nil {
			seq, werr := s.wal.Append(payload)
			if werr != nil {
				s.reg.Counter("lite_wal_append_errors_total").Inc()
				s.walErrOnce.Do(func() {
					fmt.Fprintf(os.Stderr, "serve: wal append: %v (counting further failures in lite_wal_append_errors_total)\n", werr)
				})
			} else {
				item.seq = seq
				s.reg.Counter("lite_wal_records_total").Inc()
			}
		}
	}
	if s.opts.Follower {
		// Followers never retrain locally: the feedback is durable in the
		// WAL when one is configured, and the fleet router tees every
		// feedback to the trainer shard, whose retrain reaches this shard
		// through the flip protocol (DESIGN.md §10). Acknowledged but not
		// queued — there is no local update loop to consume it.
		s.reg.Counter("lite_feedback_total").Inc()
		return FeedbackResponse{Queued: false, Generation: s.snap.Load().Gen, Seq: item.seq}, nil
	}
	select {
	case s.feedbackCh <- item:
		s.reg.Counter("lite_feedback_total").Inc()
		s.reg.Gauge("lite_feedback_queue_depth").Set(float64(len(s.feedbackCh)))
		return FeedbackResponse{Queued: true, Pending: len(s.feedbackCh), Generation: s.snap.Load().Gen, Seq: item.seq}, nil
	default:
		s.reg.Counter("lite_feedback_dropped_total").Inc()
		return FeedbackResponse{}, ErrQueueFull
	}
}

// pendingRun is one executed feedback awaiting its retrain batch: the
// instrumented run plus the raw request (for quarantine) and its WAL seq
// (for folding).
type pendingRun struct {
	run instrument.AppInstance
	req FeedbackRequest
	seq uint64
}

// superviseUpdateLoop keeps the adaptive-update loop alive: a panicking
// loop is restarted with exponential backoff instead of silently dying and
// letting the feedback queue fill while the model goes stale. Restarts are
// counted in lite_update_loop_restarts_total. The in-memory pending batch
// of a crashed loop is lost to this process but not to the system — its
// fsynced records are still unfolded in the WAL and replay on next boot.
func (s *Server) superviseUpdateLoop() {
	defer s.wg.Done()
	restarts := 0
	for {
		if clean := s.runUpdateLoop(); clean {
			return
		}
		restarts++
		s.reg.Counter("lite_update_loop_restarts_total").Inc()
		d := expBackoff(s.opts.RetrainBackoffMin, s.opts.RetrainBackoffMax, restarts)
		select {
		case <-s.stopCh:
			return
		case <-time.After(d):
		}
	}
}

// runUpdateLoop consumes the feedback queue, executes the reported runs to
// collect stage-level instances, and every UpdateBatch runs retrains a
// clone of the current model and (validation permitting) hot-swaps the
// published snapshot. The hot path never blocks: readers keep serving the
// old snapshot until the atomic store. Returns true on a clean stop, false
// on a recovered panic (the supervisor restarts it).
func (s *Server) runUpdateLoop() (clean bool) {
	clean = true
	defer func() {
		if r := recover(); r != nil {
			clean = false
			fmt.Fprintf(os.Stderr, "serve: update loop panic (restarting with backoff): %v\n", r)
		}
	}()

	var pending []pendingRun
	var backoffTimer *time.Timer
	defer func() {
		if backoffTimer != nil {
			backoffTimer.Stop()
		}
	}()

	// Replay WAL-recovered feedback first: it was accepted before the
	// crash and must reach the model before new traffic's feedback.
	for _, item := range s.takeRecovered() {
		select {
		case <-s.stopCh:
			return true
		default:
		}
		pending = s.absorb(pending, item)
		pending = s.maybeRetrain(pending, &backoffTimer)
	}

	for {
		var timerC <-chan time.Time
		if backoffTimer != nil {
			timerC = backoffTimer.C
		}
		select {
		case item := <-s.feedbackCh:
			pending = s.absorb(pending, item)
			s.reg.Gauge("lite_feedback_queue_depth").Set(float64(len(s.feedbackCh)))
			pending = s.maybeRetrain(pending, &backoffTimer)
		case <-timerC:
			backoffTimer = nil
			pending = s.maybeRetrain(pending, &backoffTimer)
		case <-s.stopCh:
			// Fold what arrived before shutdown into one final update so
			// accepted feedback is not silently discarded — but bound the
			// work so shutdown stays prompt: at most 2×UpdateBatch runs are
			// folded, the rest count as dropped in this process (their WAL
			// records stay unfolded and replay on the next boot).
			limit := 2 * s.opts.UpdateBatch
			dropped := 0
			for {
				select {
				case item := <-s.feedbackCh:
					if len(pending) >= limit {
						dropped++
						continue
					}
					pending = s.absorb(pending, item)
					continue
				default:
				}
				break
			}
			if dropped > 0 {
				s.reg.Counter("lite_feedback_dropped_total").Add(uint64(dropped))
			}
			if len(pending) > 0 {
				s.retrain(pending)
			}
			return true
		}
	}
}

// absorb executes one feedback run and appends it to the pending batch.
// Successful runs also grow the retrieval cold-start store, so live
// feedback sharpens unseen-app answers without waiting for a retrain.
func (s *Server) absorb(pending []pendingRun, item feedbackItem) []pendingRun {
	run := instrument.Run(item.app.Spec, item.app.Spec.MakeData(item.req.SizeMB), item.env, item.cfg)
	if s.retrieval != nil && !run.Result.Failed {
		s.retrieval.AddRun(run)
		s.reg.Counter("lite_retrieval_adds_total").Inc()
	}
	return append(pending, pendingRun{run: run, req: item.req, seq: item.seq})
}

// maybeRetrain retrains when the batch is full and no rejection backoff is
// in force; during backoff it arms a timer for the retry instead.
func (s *Server) maybeRetrain(pending []pendingRun, timer **time.Timer) []pendingRun {
	if len(pending) < s.opts.UpdateBatch {
		return pending
	}
	if wait := s.backoffUntil.Sub(s.opts.Now()); wait > 0 {
		if *timer == nil {
			*timer = time.NewTimer(wait)
		}
		return pending // keep accumulating; retry fires on the timer
	}
	s.retrain(pending)
	return nil
}

// retrain clones the published tuner, folds the feedback runs into the
// clone with Adaptive Model Update (adversarial fine-tuning, paper §IV-B),
// scores the clone on the held-out validation set, and either publishes it
// as the next generation or rejects it: on rejection the live generation
// keeps serving, the feedback batch is quarantined, and further retrain
// attempts back off exponentially. Readers are never blocked; the cache is
// flushed on publish so no stale recommendation outlives the swap.
func (s *Server) retrain(batch []pendingRun) {
	start := s.opts.Now()
	s.retrainAttempts++
	if n := s.opts.ChaosPanicEveryN; n > 0 && s.retrainAttempts%uint64(n) == 0 {
		panic(fmt.Sprintf("chaos: injected retrain panic (attempt %d)", s.retrainAttempts))
	}

	cur := s.snap.Load()
	clone := cur.Tuner.CloneForUpdate(s.opts.Seed + int64(cur.Gen) + 1)

	var target []*core.Encoded
	for i := range batch {
		target = append(target, clone.EncodeRun(batch[i].run)...)
	}
	rng := rand.New(rand.NewSource(s.opts.Seed + 7919*int64(cur.Gen+1)))
	core.AdaptiveModelUpdate(clone.Model, s.opts.SourceSample, target, clone.AMU, rng)

	if n := s.opts.ChaosCorruptEveryN; n > 0 && s.retrainAttempts%uint64(n) == 0 {
		chaosCorrupt(clone)
	}

	maxSeq := uint64(0)
	for _, p := range batch {
		if p.seq > maxSeq {
			maxSeq = p.seq
		}
	}

	// Validation gate: the candidate must not regress ranking quality on
	// the held-out set beyond the configured slack.
	if s.validator != nil {
		if s.liveValGen != cur.Gen || !s.liveValSet {
			s.liveVal = s.validator.score(cur.Tuner)
			s.liveValGen, s.liveValSet = cur.Gen, true
		}
		candScore := s.validator.score(clone)
		if reason := s.validator.judge(candScore, s.liveVal); reason != "" {
			s.rejectSwap(batch, cur.Gen, maxSeq, reason)
			return
		}
		s.liveVal, s.liveValGen = candScore, cur.Gen+1
		s.reg.Gauge("lite_validation_ndcg").Set(candScore.NDCG)
		s.reg.Gauge("lite_validation_regret").Set(candScore.Regret)
	}

	// Persist before publishing: a generation that readers can observe is
	// always durable on disk (restart serves exactly what crashed).
	persisted := s.persistSnapshot(clone)

	// Publication is serialized with FlipTo; the generation is recomputed
	// under the lock so a fleet flip landing mid-retrain is never regressed
	// by a snapshot numbered off a stale read.
	s.publishMu.Lock()
	latest := s.snap.Load()
	next := &Snapshot{
		Tuner:     clone,
		Gen:       latest.Gen + 1,
		CreatedAt: s.opts.Now(),
		Feedbacks: latest.Feedbacks + len(batch),
	}
	s.snap.Store(next)
	s.publishMu.Unlock()
	s.cache.flush(next.Gen)
	s.markFolded(maxSeq, persisted)
	s.retrainFailures = 0
	s.backoffUntil = time.Time{}
	s.reg.Gauge("lite_retrain_backoff_seconds").Set(0)
	s.reg.Counter("lite_hotswap_accepted_total").Inc()
	s.reg.Counter("lite_feedback_folded_total").Add(uint64(len(batch)))
	s.reg.Counter("lite_model_updates_total").Inc()
	s.reg.Gauge("lite_snapshot_generation").Set(float64(next.Gen))
	s.reg.Histogram("lite_update_seconds", nil).Observe(s.opts.Now().Sub(start).Seconds())
}

// rejectSwap handles a candidate the validation gate refused: keep serving
// the live generation, quarantine the feedback batch to the sidecar file,
// advance the WAL cursor past it (quarantined feedback must not replay into
// the model on restart) and arm exponential retrain backoff.
func (s *Server) rejectSwap(batch []pendingRun, liveGen, maxSeq uint64, reason string) {
	s.quarantine(batch, liveGen, reason)
	s.markFolded(maxSeq, true)
	s.retrainFailures++
	backoff := expBackoff(s.opts.RetrainBackoffMin, s.opts.RetrainBackoffMax, s.retrainFailures)
	s.backoffUntil = s.opts.Now().Add(backoff)
	s.reg.Counter("lite_hotswap_rejected_total").Inc()
	s.reg.Counter("lite_feedback_quarantined_total").Add(uint64(len(batch)))
	s.reg.Gauge("lite_retrain_backoff_seconds").Set(backoff.Seconds())
	fmt.Fprintf(os.Stderr, "serve: hot-swap rejected (generation %d keeps serving, %d feedbacks quarantined, next retrain in %v): %s\n",
		liveGen, len(batch), backoff, reason)
}

// markFolded advances the WAL's folded cursor. Feedback only counts as
// folded once the model absorbing it is durable: if the snapshot persist
// failed, the records stay unfolded and replay on next boot (the published
// in-memory generation already contains them; replay rebuilds that state).
func (s *Server) markFolded(maxSeq uint64, persisted bool) {
	if s.wal == nil || maxSeq == 0 || !persisted {
		return
	}
	if err := s.wal.MarkFolded(maxSeq); err != nil {
		s.reg.Counter("lite_wal_fold_errors_total").Inc()
	}
}

// quarantineEntry is one line of the quarantine sidecar file (JSON lines):
// the rejected batch's raw feedback requests with enough context to triage
// and, if judged innocent, re-post.
type quarantineEntry struct {
	Time       string            `json:"time"`
	Generation uint64            `json:"generation"`
	Reason     string            `json:"reason"`
	Seqs       []uint64          `json:"seqs"`
	Records    []FeedbackRequest `json:"records"`
}

func (s *Server) quarantine(batch []pendingRun, liveGen uint64, reason string) {
	path := s.quarantinePath()
	if path == "" {
		return
	}
	e := quarantineEntry{
		Time:       s.opts.Now().UTC().Format(time.RFC3339Nano),
		Generation: liveGen,
		Reason:     reason,
	}
	for _, p := range batch {
		e.Seqs = append(e.Seqs, p.seq)
		e.Records = append(e.Records, p.req)
	}
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	// Durable before rejectSwap folds the batch out of the WAL: the first
	// entry also fsyncs the directory that now holds the new file.
	if err := wal.AppendFile(s.opts.FS, path, append(line, '\n')); err != nil {
		s.reg.Counter("lite_quarantine_write_errors_total").Inc()
	}
}

func (s *Server) quarantinePath() string {
	switch {
	case s.opts.WALDir != "":
		return filepath.Join(s.opts.WALDir, "quarantine.jsonl")
	case s.opts.SnapshotPath != "":
		return s.opts.SnapshotPath + ".quarantine.jsonl"
	}
	return ""
}

// persistRetries is how many times one snapshot persist is retried after
// the first failure; persistRetryBackoff is the first retry's delay,
// doubling per attempt.
const (
	persistRetries      = 3
	persistRetryBackoff = 50 * time.Millisecond
)

// persistSnapshot writes the tuner to Options.SnapshotPath with bounded
// retries and exponential backoff, so one transient disk hiccup does not
// strand the serving state in memory. Returns whether a write succeeded
// (vacuously true when persistence is not configured — there is no durable
// state to fall behind).
func (s *Server) persistSnapshot(t *core.Tuner) bool {
	if s.opts.SnapshotPath == "" {
		return true
	}
	var err error
	for attempt := 0; attempt <= persistRetries; attempt++ {
		if attempt > 0 {
			s.reg.Counter("lite_snapshot_persist_retries_total").Inc()
			time.Sleep(expBackoff(persistRetryBackoff, s.opts.RetrainBackoffMax, attempt))
		}
		if err = wal.WriteFileAtomic(s.opts.FS, s.opts.SnapshotPath, t.Save); err == nil {
			s.lastPersistNanos.Store(s.opts.Now().UnixNano())
			return true
		}
		s.reg.Counter("lite_snapshot_persist_errors_total").Inc()
	}
	fmt.Fprintf(os.Stderr, "serve: persisting snapshot (gave up after %d retries; feedback stays in the WAL for replay): %v\n",
		persistRetries, err)
	return false
}

// takeRecovered hands the WAL-replayed feedback to the loop exactly once:
// a panic-restarted loop must not double-apply records an earlier retrain
// already folded.
func (s *Server) takeRecovered() []feedbackItem {
	items := s.recovered
	s.recovered = nil
	return items
}

// expBackoff is min·2^(n−1) clamped to max (n ≥ 1).
func expBackoff(min, max time.Duration, n int) time.Duration {
	if min <= 0 {
		min = time.Second
	}
	if max < min {
		max = min
	}
	d := min
	for i := 1; i < n; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// chaosCorrupt poisons a candidate's weights with NaNs — the failpoint the
// chaos harness uses to prove the validation gate rejects a model that a
// bad feedback batch (or a training bug) has broken.
func chaosCorrupt(t *core.Tuner) {
	for _, p := range t.Model.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] = math.NaN()
		}
	}
	// Params() was written directly: the model's memoized stage
	// representations no longer match its weights (DESIGN.md §12).
	t.Model.ResetStageReps()
}

// SimulateOnce executes one run with the given configuration on the named
// cluster — the "production execution" clients of the demo server use to
// generate honest feedback (cmd/liteload, examples).
func SimulateOnce(appName string, sizeMB float64, cluster string, cfg sparksim.Config) (sparksim.Result, error) {
	app := workload.ByName(appName)
	if app == nil {
		return sparksim.Result{}, badRequest("unknown application %q", appName)
	}
	env, ok := ClusterByName(cluster)
	if !ok {
		return sparksim.Result{}, badRequest("unknown cluster %q", cluster)
	}
	if sizeMB <= 0 {
		sizeMB = app.Sizes.Test
	}
	return sparksim.Simulate(app.Spec, app.Spec.MakeData(sizeMB), env, cfg), nil
}
