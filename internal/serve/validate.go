package serve

// Validation-gated hot-swap (DESIGN.md §9): before a retrained candidate
// snapshot is published, it is scored on a held-out validation set of
// (app, datasize, env) tuples with simulator ground truth. A candidate
// whose ranking quality regresses past the configured slack — or that
// cannot even score the set finitely — is rejected: the live generation
// keeps serving, the offending feedback batch is quarantined, and retrain
// attempts back off exponentially. The online-tuning invariant is "never
// regress past the safe baseline"; this gate is its serving-side enforcer.

import (
	"fmt"
	"math"
	"math/rand"

	"lite/internal/core"
	"lite/internal/metrics"
	"lite/internal/sparksim"
	"lite/internal/workload"
)

// ValidationOptions configures the hot-swap gate. The zero value disables
// it (library users and pre-existing tests keep the ungated behaviour);
// cmd/liteserve enables it by default.
type ValidationOptions struct {
	// Enable turns the gate on.
	Enable bool
	// Cases is how many (app, datasize, env) validation tuples to hold out
	// (default 6). Each holds valCandidates configs, ranked by NDCG@valTopK;
	// the set is sampled from the server's Seed+101.
	Cases int
	// NDCGSlack is how much mean NDCG@K the candidate may lose versus the
	// live model before the swap is rejected (default 0.05).
	NDCGSlack float64
	// RegretSlack is how much mean top-1 regret the candidate may add
	// versus the live model before the swap is rejected (default 0.25).
	RegretSlack float64
}

func (o ValidationOptions) withDefaults() ValidationOptions {
	if o.Cases <= 0 {
		o.Cases = 6
	}
	if o.NDCGSlack <= 0 {
		o.NDCGSlack = 0.05
	}
	if o.RegretSlack <= 0 {
		o.RegretSlack = 0.25
	}
	return o
}

// valCandidates is the fixed candidate-set size per validation case and
// valTopK the NDCG@K cutoff.
const (
	valCandidates = 8
	valTopK       = 3
)

// regretCap bounds one case's top-1 regret so a single catastrophic pick
// (picking a FailCap config where the best finishes in seconds) saturates
// instead of drowning the mean.
const regretCap = 10.0

// valCase is one held-out validation tuple: a fixed candidate set with
// simulator ground-truth execution times and the implied gold ranking.
type valCase struct {
	app   *workload.App
	data  sparksim.DataSpec
	env   sparksim.Environment
	cands []sparksim.Config
	truth []float64
	gold  []int
}

// valScore is one model's quality on the validation set.
type valScore struct {
	// NDCG is mean NDCG@K of the model's ranking against the gold ranking.
	NDCG float64
	// Regret is the mean capped top-1 regret:
	// (truth(model's pick) − truth(best)) / truth(best).
	Regret float64
	// NonFinite counts candidate predictions that were NaN/Inf — a model
	// that cannot score the held-out set finitely is never published.
	NonFinite int
}

type validator struct {
	cases []valCase
	opts  ValidationOptions
}

// newValidator builds the held-out set: round-robin over applications and
// clusters, candidates drawn once from the tuner's ACG region (falling back
// to feasible random configs), ground truth from one simulator execution
// per candidate. The set is frozen for the server's lifetime so scores are
// comparable across generations.
func newValidator(t *core.Tuner, opts ValidationOptions, seed int64) *validator {
	rng := rand.New(rand.NewSource(seed))
	apps := workload.All()
	v := &validator{opts: opts}
	for i := 0; len(v.cases) < opts.Cases; i++ {
		app := apps[i%len(apps)]
		env := sparksim.AllClusters[i%len(sparksim.AllClusters)]
		sizeMB := app.Sizes.Test
		if i%2 == 1 && len(app.Sizes.Train) > 0 {
			sizeMB = app.Sizes.Train[len(app.Sizes.Train)-1]
		}
		data := app.Spec.MakeData(sizeMB)
		cands := sampleValidationCands(t, app, data, env, valCandidates, rng)
		truth := make([]float64, len(cands))
		for j, c := range cands {
			truth[j] = sparksim.Simulate(app.Spec, data, env, c).Seconds
		}
		v.cases = append(v.cases, valCase{
			app: app, data: data, env: env,
			cands: cands, truth: truth, gold: metrics.RankByScore(truth),
		})
	}
	return v
}

// sampleValidationCands draws a candidate set anchored on the safe default:
// ACG-region samples when the generator covers the app, feasible random
// configs otherwise.
func sampleValidationCands(t *core.Tuner, app *workload.App, data sparksim.DataSpec, env sparksim.Environment, n int, rng *rand.Rand) []sparksim.Config {
	cands := []sparksim.Config{core.ForceFeasible(sparksim.DefaultConfig(), env)}
	cands = append(cands, acgSample(t, app.Spec.Name, data, env, n/2, rng)...)
	for len(cands) < n {
		cands = append(cands, core.ForceFeasible(sparksim.RandomConfig(rng), env))
	}
	return cands[:n]
}

// acgSample is SampleFeasible behind a recover guard: an app the generator
// has never seen must degrade to random candidates, not kill the server.
func acgSample(t *core.Tuner, appName string, data sparksim.DataSpec, env sparksim.Environment, n int, rng *rand.Rand) (out []sparksim.Config) {
	defer func() { recover() }()
	if t.ACG == nil || n <= 0 {
		return nil
	}
	return t.ACG.SampleFeasible(appName, data, env, n, rng)
}

// score evaluates one tuner (live or candidate) on the frozen set. It never
// panics: a model broken enough to blow up mid-score reports the worst
// possible score instead.
func (v *validator) score(t *core.Tuner) (s valScore) {
	defer func() {
		if r := recover(); r != nil {
			s = valScore{NDCG: 0, Regret: regretCap, NonFinite: 1}
		}
	}()
	if len(v.cases) == 0 {
		return s
	}
	for _, c := range v.cases {
		// One batched pass per case, bitwise equal to scoring each
		// candidate with ScoreChecked. The finiteness flags matter: the
		// clamp makes a NaN-poisoned model look like a finite (and
		// constant) one, which would slip past both the finiteness check
		// and the ranking comparison.
		preds, oks := make([]float64, len(c.cands)), make([]bool, len(c.cands))
		t.Model.NewAppScorer(c.app.Spec, c.data, c.env).ScoreBatch(c.cands, preds, oks)
		for i, pred := range preds {
			if !oks[i] || math.IsNaN(pred) || math.IsInf(pred, 0) {
				s.NonFinite++
			}
		}
		rank := metrics.RankByScore(preds)
		s.NDCG += metrics.NDCGAtK(rank, c.gold, valTopK)
		best := c.truth[c.gold[0]]
		picked := c.truth[rank[0]]
		if best > 0 {
			s.Regret += math.Min((picked-best)/best, regretCap)
		} else if picked > best {
			s.Regret += regretCap
		}
	}
	n := float64(len(v.cases))
	s.NDCG /= n
	s.Regret /= n
	return s
}

// judge decides whether the candidate may replace the live model. An empty
// reason means accept.
func (v *validator) judge(cand, live valScore) (reason string) {
	switch {
	case cand.NonFinite > 0:
		return fmt.Sprintf("candidate scored %d validation predictions non-finite", cand.NonFinite)
	case cand.NDCG < live.NDCG-v.opts.NDCGSlack:
		return fmt.Sprintf("NDCG@%d regressed %.3f -> %.3f (slack %.3f)", valTopK, live.NDCG, cand.NDCG, v.opts.NDCGSlack)
	case cand.Regret > live.Regret+v.opts.RegretSlack:
		return fmt.Sprintf("top-1 regret regressed %.3f -> %.3f (slack %.3f)", live.Regret, cand.Regret, v.opts.RegretSlack)
	}
	return ""
}
