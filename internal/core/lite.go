package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"lite/internal/instrument"
	"lite/internal/retrieval"
	"lite/internal/sparksim"
	"lite/internal/workload"
)

// Tuner is the LITE system (paper Figure 2): an offline-trained NECS
// estimator, the Adaptive Candidate Generation model, and the online
// recommendation loop with Adaptive Model Update on collected feedback.
//
// A tuner's model is a value: the read paths (Recommend, RecommendFrom,
// RecommendSafe, Model.PredictApp via them) may be called from any number
// of goroutines and serialize only on the candidate RNG, and nothing
// writes a published tuner's weights. Adaptive Model Update trains a
// CloneForUpdate, which the caller then publishes in place of the old
// tuner (see internal/serve).
type Tuner struct {
	Model *NECS
	ACG   *CandidateGenerator

	// Retrieval is the optional zero-execution cold-start store
	// (internal/retrieval): when set, RecommendSafeCtx degrades through a
	// "retrieval" tier (nearest historical neighbour's best-known config,
	// adapted) before falling back to the ACG region center, and
	// RecommendColdCtx can serve applications absent from the workload
	// registry. The store is internally synchronized and shared across
	// clones; it is not serialized with the tuner (Save/LoadTuner), so
	// serving layers reattach it after loading a snapshot.
	Retrieval *retrieval.Store

	// NumCandidates is how many knob candidates Step 2 samples from the
	// region of interest.
	NumCandidates int

	// AMU configures the Adaptive Model Update that trains this tuner's
	// successor (a CloneForUpdate) on collected feedback.
	AMU AMUConfig

	rng *rand.Rand
	// rngMu guards rng: math/rand.Rand is not safe for concurrent use,
	// even by otherwise read-only callers.
	rngMu sync.Mutex
}

// sampleFeasible draws candidates from the ACG region: the region and the
// slice are computed first, and the RNG lock covers only the draws and
// their feasibility retries. A hand-assembled or deserialized tuner may
// lack an RNG; serving must not crash over it, so the first draw installs
// a deterministic one.
func (t *Tuner) sampleFeasible(appName string, data sparksim.DataSpec, env sparksim.Environment, n int) []sparksim.Config {
	lo, hi := t.ACG.Region(appName, data)
	out := make([]sparksim.Config, 0, n)
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(1))
	}
	return sampleRegion(out, n, lo, hi, env, t.rng)
}

// TrainOptions bundles everything needed to train LITE offline.
type TrainOptions struct {
	NECS    NECSConfig
	Collect CollectOptions
	Seed    int64
}

// DefaultTrainOptions returns the standard offline-training settings.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{
		NECS:    DefaultNECSConfig(),
		Collect: DefaultCollectOptions(),
		Seed:    1,
	}
}

// Train runs the full offline phase on the given applications: collect
// small-data training runs, build the encoder, train NECS (Equation 4) and
// fit the ACG models. It returns the tuner and the dataset (for reuse by
// experiments).
func Train(apps []*workload.App, opts TrainOptions) (*Tuner, *Dataset) {
	rng := rand.New(rand.NewSource(opts.Seed))
	ds := Collect(apps, opts.Collect, rng)
	return TrainOn(ds, opts), ds
}

// TrainOn trains a tuner from an already-collected dataset.
//
// The ACG forests are fitted on a second goroutine while NECS trains. That
// is exact: Fit's epoch shuffles are its only use of rng, so TrainOn draws
// them first (epochOrders) and the forests then take rng at the very draw
// they took when they were fitted after Fit. A panic in the forests is
// raised again here.
func TrainOn(ds *Dataset, opts TrainOptions) *Tuner {
	rng := rand.New(rand.NewSource(opts.Seed + 7))
	enc := NewEncoder(ds.Instances, opts.NECS)
	model := NewNECS(enc, opts.NECS, rng)
	data := EncodeAll(enc, ds.Instances)
	orders := epochOrders(len(data), opts.NECS.Epochs, rng)
	var acg *CandidateGenerator
	var acgPanic any
	acgDone := make(chan struct{})
	go func() {
		defer close(acgDone)
		defer func() { acgPanic = recover() }()
		acg = NewCandidateGenerator(ds.Runs, rng)
	}()
	model.fit(data, orders)
	<-acgDone
	if acgPanic != nil {
		panic(acgPanic)
	}
	return &Tuner{
		Model:         model,
		ACG:           acg,
		NumCandidates: 64,
		AMU:           DefaultAMUConfig(),
		rng:           rng,
	}
}

// Recommendation is the outcome of one online tuning request.
type Recommendation struct {
	Config sparksim.Config
	// PredictedSeconds is NECS's aggregated estimate for the winner.
	PredictedSeconds float64
	// Ranked lists every candidate best-first with its prediction.
	Ranked []ScoredConfig
	// Overhead is the wall-clock time LITE spent deciding.
	Overhead time.Duration
}

// ScoredConfig pairs a candidate with its predicted execution time.
type ScoredConfig struct {
	Config    sparksim.Config
	Predicted float64
}

// Recommend executes online Steps 1–3 (paper §IV): sample candidates from
// the ACG region of interest, estimate each with NECS by aggregating
// stage-level predictions, and return the configuration with the least
// estimated time (Equation 5).
func (t *Tuner) Recommend(app *sparksim.AppSpec, data sparksim.DataSpec, env sparksim.Environment) Recommendation {
	rec, _ := t.RecommendCtx(context.Background(), app, data, env)
	return rec
}

// RecommendCtx is Recommend with cooperative cancellation: scoring checks
// ctx between candidates (ParallelDoCtx), so an abandoned request stops
// burning pool workers mid-pass. A non-nil error is always ctx.Err().
func (t *Tuner) RecommendCtx(ctx context.Context, app *sparksim.AppSpec, data sparksim.DataSpec, env sparksim.Environment) (Recommendation, error) {
	start := time.Now()
	cands := t.sampleFeasible(app.Name, data, env, t.NumCandidates)
	return t.recommendFrom(ctx, app, data, env, cands, start)
}

// RecommendFrom ranks a caller-supplied candidate set (used by experiments
// that compare sampling strategies).
func (t *Tuner) RecommendFrom(app *sparksim.AppSpec, data sparksim.DataSpec, env sparksim.Environment, cands []sparksim.Config) Recommendation {
	rec, _ := t.RecommendFromCtx(context.Background(), app, data, env, cands)
	return rec
}

// RecommendFromCtx is RecommendFrom with cooperative cancellation; a
// non-nil error is always ctx.Err().
func (t *Tuner) RecommendFromCtx(ctx context.Context, app *sparksim.AppSpec, data sparksim.DataSpec, env sparksim.Environment, cands []sparksim.Config) (Recommendation, error) {
	start := time.Now()
	return t.recommendFrom(ctx, app, data, env, cands, start)
}

// recommendFrom scores a candidate set and ranks it best-first. Scoring
// fans out across the scoring pool (see pool.go): each worker writes its
// result into the candidate's index slot, and the final stable sort
// breaks prediction ties by candidate index — the ranking is therefore
// deterministic for a given model and candidate order, independent of
// goroutine scheduling and of the pool width. Cancelling ctx aborts the
// pass between candidates and returns ctx.Err(); partially scored slots
// are discarded. start is when the caller began the request, so Overhead
// covers sampling plus scoring.
func (t *Tuner) recommendFrom(ctx context.Context, app *sparksim.AppSpec, data sparksim.DataSpec, env sparksim.Environment, cands []sparksim.Config, start time.Time) (Recommendation, error) {
	if len(cands) == 0 {
		// Degenerate candidate set: fall back to the safe default rather
		// than indexing into an empty ranking.
		cfg := ForceFeasible(sparksim.DefaultConfig(), env)
		return Recommendation{
			Config:           cfg,
			PredictedSeconds: t.Model.PredictApp(app, data, env, cfg),
			Overhead:         time.Since(start),
		}, nil
	}
	// One scorer per recommendation: the shared (app, data, env) stage
	// features are encoded AND forward-passed once, not once per candidate.
	// Scoring runs through the batched one-GEMM kernel (batch.go), chunked
	// across the scoring pool.
	scorer := t.Model.NewAppScorer(app, data, env)
	slots := getPredSlots(len(cands))
	defer predPool.Put(slots)
	if err := scorer.ScoreBatchCtx(ctx, cands, slots.preds, nil); err != nil {
		return Recommendation{}, err
	}
	scored := make([]ScoredConfig, len(cands))
	for i, c := range cands {
		scored[i] = ScoredConfig{Config: c, Predicted: slots.preds[i]}
	}
	return rank(scored, start), nil
}

// rank orders a non-empty scored candidate set best-first and recommends
// its head. The sort is stable, so ties keep candidate-index order. It
// sorts candidate indices and then moves each candidate once: the order is
// sort.SliceStable's by Predicted (slices.SortStableFunc runs the same
// algorithm and reads only whether a compares below b), without
// reflection or swapping the candidates themselves.
func rank(scored []ScoredConfig, start time.Time) Recommendation {
	order := make([]int, len(scored))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch pa, pb := scored[a].Predicted, scored[b].Predicted; {
		case pa < pb:
			return -1
		case pb < pa:
			return 1
		}
		return 0
	})
	// Position i takes the candidate at order[i]; follow each cycle of the
	// permutation once, marking a position done by pointing it at itself.
	for i := range order {
		if order[i] == i {
			continue
		}
		first, j := scored[i], i
		for {
			k := order[j]
			order[j] = j
			if k == i {
				scored[j] = first
				break
			}
			scored[j] = scored[k]
			j = k
		}
	}
	return Recommendation{
		Config:           scored[0].Config,
		PredictedSeconds: scored[0].Predicted,
		Ranked:           scored,
		Overhead:         time.Since(start),
	}
}

// Tier identifies which degradation level produced a safe recommendation.
type Tier string

// The graceful-degradation chain, best first.
const (
	// TierNECS is the full pipeline: NECS ranking over ACG candidates.
	TierNECS Tier = "necs"
	// TierRetrieval serves the nearest historical application's best-known
	// configuration, adapted to the caller's datasize and forced feasible
	// for its environment — zero model forwards, zero simulator executions.
	TierRetrieval Tier = "retrieval"
	// TierACGRegion skips the estimator and recommends the center of the
	// ACG region of interest (the RFR point prediction).
	TierACGRegion Tier = "acg-region"
	// TierSafeDefault is Spark's default configuration forced feasible.
	TierSafeDefault Tier = "safe-default"
)

// ErrNoFeasibleConfig is returned when even the default configuration
// cannot be allocated on the environment.
var ErrNoFeasibleConfig = errors.New("core: no feasible configuration for environment")

// SafeRecommendation is a Recommendation annotated with the degradation
// tier that produced it and the reasons higher tiers were skipped.
type SafeRecommendation struct {
	Recommendation
	// Tier is always non-empty on a nil-error return.
	Tier Tier
	// Notes records, in order, why each higher tier was bypassed.
	Notes []string
}

// RecommendSafe is Recommend with a graceful-degradation chain for serving:
//
//	NECS ranking  →  retrieval neighbour  →  ACG region best  →  feasible safe default
//
// It never panics (each tier recovers internally and demotes), screens out
// candidates the static Feasible check or the estimator's predicted-failure
// screening rejects, and reports which tier produced the answer. An error
// is returned only when not even the default configuration fits the
// environment.
func (t *Tuner) RecommendSafe(app *sparksim.AppSpec, data sparksim.DataSpec, env sparksim.Environment) (SafeRecommendation, error) {
	return t.RecommendSafeCtx(context.Background(), app, data, env)
}

// RecommendSafeCtx is RecommendSafe with cooperative cancellation. A
// cancelled context aborts the NECS scoring pass between candidates and
// returns ctx.Err() immediately — cancellation is a caller decision, not a
// model failure, so it never demotes the request down the degradation
// chain. A pass that completes before the cancellation lands still returns
// its recommendation.
func (t *Tuner) RecommendSafeCtx(ctx context.Context, app *sparksim.AppSpec, data sparksim.DataSpec, env sparksim.Environment) (SafeRecommendation, error) {
	start := time.Now()
	sr := SafeRecommendation{}
	if rec, note := t.tryNECSTier(ctx, app, data, env, start); note == "" {
		sr.Recommendation = rec
		sr.Tier = TierNECS
		return sr, nil
	} else {
		// An aborted scoring pass surfaces as a failed tier; distinguish
		// "the model could not answer" (degrade) from "the caller gave up"
		// (abort the whole chain).
		if err := ctx.Err(); err != nil {
			return sr, err
		}
		sr.Notes = append(sr.Notes, "necs: "+note)
	}

	return fallBack(sr, env, start,
		fallbackTier{TierRetrieval, "retrieval", func() (sparksim.Config, string) {
			return t.tryRetrievalTierApp(app, data, env)
		}},
		fallbackTier{TierACGRegion, "acg", func() (sparksim.Config, string) {
			return t.tryACGTier(app, data, env)
		}})
}

// fallbackTier is one estimator-free tier of a degradation chain: try
// answers with a config, or with a note saying why it could not.
type fallbackTier struct {
	tier  Tier
	label string // the tier's prefix in SafeRecommendation.Notes
	try   func() (sparksim.Config, string)
}

// fallBack finishes a degradation chain below NECS, shared by the warm and
// the cold chain: the first tier to answer wins, each one that cannot
// records why in sr.Notes, and the feasible safe default ends every chain.
// None of these tiers has a trusted estimate of this app's run, so
// PredictedSeconds is NaN.
func fallBack(sr SafeRecommendation, env sparksim.Environment, start time.Time, tiers ...fallbackTier) (SafeRecommendation, error) {
	for _, ft := range tiers {
		cfg, note := ft.try()
		if note == "" {
			return settle(sr, cfg, ft.tier, start), nil
		}
		sr.Notes = append(sr.Notes, ft.label+": "+note)
	}
	cfg := ForceFeasible(sparksim.DefaultConfig(), env)
	if !sparksim.Feasible(cfg, env) {
		return sr, ErrNoFeasibleConfig
	}
	return settle(sr, cfg, TierSafeDefault, start), nil
}

// settle stamps sr with an estimator-free tier's answer.
func settle(sr SafeRecommendation, cfg sparksim.Config, tier Tier, start time.Time) SafeRecommendation {
	sr.Config = cfg
	sr.PredictedSeconds = math.NaN()
	sr.Tier = tier
	sr.Overhead = time.Since(start)
	return sr
}

// tryNECSTier runs the full pipeline under a recover guard with
// predicted-failure screening. An empty note means success; on a cancelled
// ctx the pass aborts between candidates and the note reports it (the
// caller checks ctx.Err() to tell cancellation from model failure).
func (t *Tuner) tryNECSTier(ctx context.Context, app *sparksim.AppSpec, data sparksim.DataSpec, env sparksim.Environment, start time.Time) (rec Recommendation, note string) {
	defer func() {
		if r := recover(); r != nil {
			rec, note = Recommendation{}, fmt.Sprintf("panic: %v", r)
		}
	}()
	if t.Model == nil || t.ACG == nil {
		return rec, "model or candidate generator missing"
	}
	cands := t.sampleFeasible(app.Name, data, env, t.NumCandidates)
	scorer := t.Model.NewAppScorer(app, data, env)
	// Batched scoring writes into index slots; a worker panic re-raises
	// on this goroutine and is absorbed by the recover guard above, so
	// the degradation chain behaves exactly as it did serially.
	slots := getPredSlots(len(cands))
	defer predPool.Put(slots)
	preds, oks := slots.preds, slots.oks
	if err := scorer.ScoreBatchCtx(ctx, cands, preds, oks); err != nil {
		return rec, fmt.Sprintf("scoring aborted: %v", err)
	}
	// Filter in candidate-index order so the ranking below tie-breaks on
	// the original index, never on goroutine completion order.
	// Predicted-failure screening: a candidate that is statically
	// infeasible, that the estimator expects to hit the failure cap, or
	// that it cannot score finitely is not served.
	scored := make([]ScoredConfig, 0, len(cands))
	for i, c := range cands {
		p := preds[i]
		if !oks[i] || !sparksim.Feasible(c, env) || math.IsNaN(p) || math.IsInf(p, 0) || p >= sparksim.FailCap {
			continue
		}
		scored = append(scored, ScoredConfig{Config: c, Predicted: p})
	}
	if len(scored) == 0 {
		return rec, "no candidate survived feasibility and predicted-failure screening"
	}
	return rank(scored, start), ""
}

// tryACGTier returns the ACG region center forced feasible, guarded against
// panics from a corrupted generator. An empty note means success.
func (t *Tuner) tryACGTier(app *sparksim.AppSpec, data sparksim.DataSpec, env sparksim.Environment) (cfg sparksim.Config, note string) {
	defer func() {
		if r := recover(); r != nil {
			note = fmt.Sprintf("panic: %v", r)
		}
	}()
	if t.ACG == nil {
		return cfg, "candidate generator missing"
	}
	cfg = ForceFeasible(t.ACG.PointPrediction(app.Name, data), env)
	for _, v := range cfg {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return cfg, "region center is not finite"
		}
	}
	if !sparksim.Feasible(cfg, env) {
		return cfg, "region center infeasible even after forcing"
	}
	return cfg, ""
}

// tryRetrievalTierApp embeds the application specification and delegates to
// tryRetrievalTier. The embedding is only computed when a store is attached
// — the common degraded path on a store-less tuner stays embedding-free.
func (t *Tuner) tryRetrievalTierApp(app *sparksim.AppSpec, data sparksim.DataSpec, env sparksim.Environment) (cfg sparksim.Config, note string) {
	if t.Retrieval == nil {
		return cfg, "no store attached"
	}
	return t.tryRetrievalTier(retrieval.EmbedApp(app), data.SizeMB, env)
}

// tryRetrievalTier answers from the nearest historical neighbour: look up
// the most similar (embedding, size bucket, env) tuple, rescale its
// best-known config to the caller's datasize, and force it feasible for
// the caller's environment. An empty note means success. Guarded against
// panics from a corrupted store like the other tiers.
func (t *Tuner) tryRetrievalTier(emb []float64, sizeMB float64, env sparksim.Environment) (cfg sparksim.Config, note string) {
	defer func() {
		if r := recover(); r != nil {
			note = fmt.Sprintf("panic: %v", r)
		}
	}()
	if t.Retrieval == nil {
		return cfg, "no store attached"
	}
	if t.Retrieval.Len() == 0 {
		return cfg, "store empty"
	}
	res, ok := t.Retrieval.Lookup(retrieval.Query{
		Embedding: emb,
		SizeMB:    sizeMB,
		EnvFP:     retrieval.EnvFingerprint(env),
	})
	if !ok {
		return cfg, "no neighbour above similarity floor"
	}
	cfg = ForceFeasible(retrieval.Adapt(res.Config, res.SizeMB, sizeMB), env)
	for _, v := range cfg {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return cfg, "adapted neighbour config is not finite"
		}
	}
	if !sparksim.Feasible(cfg, env) {
		return cfg, "adapted neighbour config infeasible even after forcing"
	}
	return cfg, ""
}

// RecommendColdCtx serves an application absent from the workload registry
// with zero simulator executions: the caller supplies a pre-computed
// embedding (retrieval.EmbedCode over the request's code tokens and DAG
// ops) and the chain degrades retrieval → safe default — there is no NECS
// tier because the estimator has no stage features to encode for an app it
// has never instrumented.
func (t *Tuner) RecommendColdCtx(ctx context.Context, emb []float64, sizeMB float64, env sparksim.Environment) (SafeRecommendation, error) {
	start := time.Now()
	sr := SafeRecommendation{}
	if err := ctx.Err(); err != nil {
		return sr, err
	}
	return fallBack(sr, env, start, fallbackTier{TierRetrieval, "retrieval", func() (sparksim.Config, string) {
		return t.tryRetrievalTier(emb, sizeMB, env)
	}})
}

// RetrievalAnchor returns the nearest historical neighbour's configuration
// adapted and forced feasible for (app, data, env) — a warm-start anchor
// for online tuning sessions — and whether one was found. It never panics
// and never degrades; a miss simply reports false.
func (t *Tuner) RetrievalAnchor(app *sparksim.AppSpec, data sparksim.DataSpec, env sparksim.Environment) (sparksim.Config, bool) {
	cfg, note := t.tryRetrievalTierApp(app, data, env)
	return cfg, note == ""
}

// EncodeRun encodes the stage instances of one executed run with the
// tuner's encoder, as Adaptive Model Update's target-domain feedback.
func (t *Tuner) EncodeRun(run instrument.AppInstance) []*Encoded {
	out := make([]*Encoded, 0, len(run.Stages))
	for i := range run.Stages {
		out = append(out, t.Model.Encoder.Encode(&run.Stages[i]))
	}
	return out
}

// CloneForUpdate returns a tuner that shares the read-only ACG and encoder
// with the receiver but owns a deep copy of the NECS weights (NECS.Clone):
// the only tuner Adaptive Model Update may train. The caller publishes it
// in place of the receiver once trained.
func (t *Tuner) CloneForUpdate(seed int64) *Tuner {
	return &Tuner{
		Model:         t.Model.Clone(),
		ACG:           t.ACG,
		Retrieval:     t.Retrieval,
		NumCandidates: t.NumCandidates,
		AMU:           t.AMU,
		rng:           rand.New(rand.NewSource(seed)),
	}
}

// ColdStartInstrument implements online Step 1 for a never-seen
// application: run it once on the smallest dataset to recover stage-level
// codes and DAGs (paper §IV Step 1 / §V-I). It returns the instrumented run
// and the instrumentation overhead in simulated seconds.
func ColdStartInstrument(app *workload.App, env sparksim.Environment) (instrument.AppInstance, float64) {
	data := app.Spec.MakeData(app.Sizes.Train[0])
	run := instrument.Run(app.Spec, data, env, sparksim.DefaultConfig())
	return run, run.Result.Seconds
}
