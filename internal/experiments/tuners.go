package experiments

import (
	"math"
	"math/rand"
	"sort"

	"lite/internal/core"
	"lite/internal/feature"
	"lite/internal/gp"
	"lite/internal/instrument"
	"lite/internal/rl"
	"lite/internal/sparksim"
	"lite/internal/workload"
)

// TracePoint is one step of a tuning session: cumulative tuning overhead
// (simulated seconds spent executing trials) and the best execution time
// observed so far. Figure 8 plots these curves.
type TracePoint struct {
	OverheadSeconds float64
	BestSeconds     float64
}

// TuningResult summarizes one tuning session on one application.
type TuningResult struct {
	Method string
	// BestSeconds is the least actual execution time observed during the
	// tuning period (the paper's t for iterative competitors), or the
	// actual time of the single recommendation (model-based methods).
	BestSeconds float64
	// BestConfig achieved BestSeconds.
	BestConfig sparksim.Config
	// Trials is the number of executions performed.
	Trials int
	// Trace is the best-so-far curve.
	Trace []TracePoint
}

// TunerMethod is a Table VI competitor.
type TunerMethod interface {
	Name() string
	// Tune optimizes the application on the given data/environment within
	// a simulated execution-time budget (seconds).
	Tune(app *workload.App, data sparksim.DataSpec, env sparksim.Environment, budget float64, rng *rand.Rand) TuningResult
}

// evalTrial executes one configuration and updates the session state.
func evalTrial(res *TuningResult, app *workload.App, data sparksim.DataSpec, env sparksim.Environment, cfg sparksim.Config, spent *float64) float64 {
	r := sparksim.Simulate(app.Spec, data, env, cfg)
	*spent += r.Seconds
	res.Trials++
	if res.BestSeconds == 0 || r.Seconds < res.BestSeconds {
		res.BestSeconds = r.Seconds
		res.BestConfig = cfg
	}
	res.Trace = append(res.Trace, TracePoint{OverheadSeconds: *spent, BestSeconds: res.BestSeconds})
	return r.Seconds
}

// ---------------------------------------------------------------------------
// Default
// ---------------------------------------------------------------------------

// DefaultTuner runs the stock Spark configuration once.
type DefaultTuner struct{}

// Name implements TunerMethod.
func (DefaultTuner) Name() string { return "Default" }

// Tune implements TunerMethod.
func (DefaultTuner) Tune(app *workload.App, data sparksim.DataSpec, env sparksim.Environment, budget float64, rng *rand.Rand) TuningResult {
	res := TuningResult{Method: "Default"}
	var spent float64
	evalTrial(&res, app, data, env, sparksim.DefaultConfig(), &spent)
	return res
}

// ---------------------------------------------------------------------------
// Manual (expert rules)
// ---------------------------------------------------------------------------

// ManualTuner encodes the expert tuning-guide heuristics (cloudera/
// databricks style): size executors to the node, 2–5 cores each, 2–3×
// parallelism, compression on slow networks, then a handful of hand trials
// around that point — the paper's "Manual" competitor (up to 12 hours of
// expert time).
type ManualTuner struct {
	// HandTrials is how many variations the expert tries (paper: repeated
	// trials within 12 hours).
	HandTrials int
}

// Name implements TunerMethod.
func (ManualTuner) Name() string { return "Manual" }

// expertBase derives the rule-of-thumb configuration from online tuning
// guides. As the paper notes, such guides "separately give hints on single
// aspects of knobs, and cannot consider more complex multiple aspects": the
// rules below are the standard per-knob advice, applied independently,
// with no per-application or per-datasize joint optimization — which is
// exactly why hand tuning lands mid-field.
func expertBase(app *workload.App, data sparksim.DataSpec, env sparksim.Environment) sparksim.Config {
	c := sparksim.DefaultConfig()
	// Guide rule: "5 cores per executor for good HDFS throughput".
	cores := 5.0
	if float64(env.Cores) < cores {
		cores = float64(env.Cores)
	}
	c[sparksim.KnobExecutorCores] = cores
	// Guide rule: a fixed, safe executor size — guides quote 4–8 GB and
	// warn against large heaps; the expert picks 4 GB regardless of the
	// job's actual working set.
	c[sparksim.KnobExecutorMemory] = 4
	if env.MemGB <= 16 {
		c[sparksim.KnobExecutorMemory] = 2
	}
	// Guide rule: 2 executors per node.
	c[sparksim.KnobExecutorInstances] = 2 * float64(env.Nodes)
	// Guide rule: "2–3 tasks per core", computed from the cluster, not the
	// data size (the guides' formula ignores input volume).
	c[sparksim.KnobDefaultParallelism] = 2 * float64(env.TotalCores())
	c[sparksim.KnobExecutorMemoryOverhead] = 1024
	c[sparksim.KnobDriverCores] = 2
	c[sparksim.KnobDriverMemory] = 4
	c[sparksim.KnobDriverMaxResultSize] = 2048
	// Guide rule: leave compression and memory management at defaults
	// ("the defaults are usually fine").
	return core.ForceFeasible(c.Clamp(), env)
}

// Tune implements TunerMethod.
func (m ManualTuner) Tune(app *workload.App, data sparksim.DataSpec, env sparksim.Environment, budget float64, rng *rand.Rand) TuningResult {
	trials := m.HandTrials
	if trials <= 0 {
		trials = 4
	}
	res := TuningResult{Method: "Manual"}
	var spent float64
	base := expertBase(app, data, env)
	evalTrial(&res, app, data, env, base, &spent)
	// The expert perturbs one knob at a time around the rule-of-thumb.
	tweaks := []func(sparksim.Config) sparksim.Config{
		func(c sparksim.Config) sparksim.Config { c[sparksim.KnobDefaultParallelism] *= 2; return c },
		func(c sparksim.Config) sparksim.Config { c[sparksim.KnobDefaultParallelism] /= 2; return c },
		func(c sparksim.Config) sparksim.Config { c[sparksim.KnobExecutorCores] = 2; return c },
		func(c sparksim.Config) sparksim.Config { c[sparksim.KnobMemoryStorageFraction] += 0.2; return c },
		func(c sparksim.Config) sparksim.Config { c[sparksim.KnobMemoryFraction] += 0.2; return c },
		func(c sparksim.Config) sparksim.Config { c[sparksim.KnobExecutorMemory] /= 2; return c },
	}
	for i := 0; i < trials-1 && i < len(tweaks) && spent < budget; i++ {
		cfg := core.ForceFeasible(tweaks[i](base).Clamp(), env)
		evalTrial(&res, app, data, env, cfg, &spent)
	}
	return res
}

// ---------------------------------------------------------------------------
// MLP (no code features)
// ---------------------------------------------------------------------------

// MLPTuner is the Table VI "MLP" competitor: the same prediction module as
// LITE (an MLP) fed with application name, data, environment and knob
// features — but no code features — trained on the same offline dataset.
// It scores random candidates and executes its single best guess.
type MLPTuner struct {
	ranker     *FlatRanker
	Candidates int
}

// NewMLPTuner trains the baseline on the suite's dataset.
func NewMLPTuner(s *Suite) *MLPTuner {
	r := NewFlatRanker("MLP", ModeW, NewMLPModel(), s.Apps)
	r.Fit(s.Dataset(), s.rng(101))
	return &MLPTuner{ranker: r, Candidates: 64}
}

// Name implements TunerMethod.
func (*MLPTuner) Name() string { return "MLP" }

// Tune implements TunerMethod.
func (t *MLPTuner) Tune(app *workload.App, data sparksim.DataSpec, env sparksim.Environment, budget float64, rng *rand.Rand) TuningResult {
	best := sparksim.DefaultConfig()
	bestScore := 0.0
	for i := 0; i < t.Candidates; i++ {
		cfg := sparksim.RandomConfig(rng)
		if !sparksim.Feasible(cfg, env) {
			cfg = core.ForceFeasible(cfg, env)
		}
		run := instrumentFree(app, data, env, cfg)
		score := t.ranker.Model.Predict(t.ranker.feat.AppRow(&run, app.Spec.MainCode))
		if i == 0 || score < bestScore {
			best, bestScore = cfg, score
		}
	}
	res := TuningResult{Method: "MLP"}
	var spent float64
	evalTrial(&res, app, data, env, best, &spent)
	return res
}

// instrumentFree builds a pseudo-run for featurization without executing
// (the W featurizer only needs config/data/env and the app name).
func instrumentFree(app *workload.App, data sparksim.DataSpec, env sparksim.Environment, cfg sparksim.Config) instrument.AppInstance {
	return instrument.AppInstance{AppName: app.Spec.Name, Config: cfg, Data: data, Env: env}
}

// ---------------------------------------------------------------------------
// BO (OtterTune-style Gaussian-process Bayesian optimization)
// ---------------------------------------------------------------------------

// BOTuner is the Table VI "BO(2h)" competitor: GP surrogate + Expected
// Improvement, warm-started from the most similar training instances (the
// best configurations this application achieved on the small training
// data), spending the execution-time budget on sequential trials.
type BOTuner struct {
	suite      *Suite
	WarmStarts int
	PoolSize   int
}

// NewBOTuner builds the competitor against the suite's training data.
func NewBOTuner(s *Suite) *BOTuner {
	return &BOTuner{suite: s, WarmStarts: 5, PoolSize: 128}
}

// Name implements TunerMethod.
func (*BOTuner) Name() string { return "BO" }

// warmConfigs returns the application's best training configurations.
func (t *BOTuner) warmConfigs(app *workload.App) []sparksim.Config {
	type pair struct {
		cfg sparksim.Config
		sec float64
	}
	var ps []pair
	for i := range t.suite.Dataset().Runs {
		run := &t.suite.Dataset().Runs[i]
		if run.AppName == app.Spec.Name {
			ps = append(ps, pair{run.Config, run.Result.Seconds})
		}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].sec < ps[b].sec })
	var out []sparksim.Config
	for i := 0; i < len(ps) && i < t.WarmStarts; i++ {
		out = append(out, ps[i].cfg)
	}
	return out
}

// Tune implements TunerMethod.
func (t *BOTuner) Tune(app *workload.App, data sparksim.DataSpec, env sparksim.Environment, budget float64, rng *rand.Rand) TuningResult {
	res := TuningResult{Method: "BO"}
	var spent float64
	var xs [][]float64
	var ys []float64
	observe := func(cfg sparksim.Config) {
		sec := evalTrial(&res, app, data, env, cfg, &spent)
		xs = append(xs, cfg.Normalized())
		ys = append(ys, core.LabelOf(sec))
	}
	for _, cfg := range t.warmConfigs(app) {
		if spent >= budget {
			break
		}
		observe(core.ForceFeasible(cfg, env))
	}
	if len(xs) == 0 {
		observe(core.ForceFeasible(sparksim.DefaultConfig(), env))
	}
	model := gp.New(0.6, 1.5, 0.05)
	for spent < budget {
		if err := model.Fit(xs, ys); err != nil {
			break
		}
		bestY := ys[0]
		for _, y := range ys {
			if y < bestY {
				bestY = y
			}
		}
		var bestCfg sparksim.Config
		bestEI := -1.0
		for i := 0; i < t.PoolSize; i++ {
			cfg := sparksim.RandomConfig(rng)
			if !sparksim.Feasible(cfg, env) {
				cfg = core.ForceFeasible(cfg, env)
			}
			if ei := model.ExpectedImprovement(cfg.Normalized(), bestY, 0.01); ei > bestEI {
				bestEI, bestCfg = ei, cfg
			}
		}
		observe(bestCfg)
	}
	return res
}

// ---------------------------------------------------------------------------
// DDPG / DDPG-C (reinforcement-learning competitors)
// ---------------------------------------------------------------------------

// DDPGTuner is the Table VI "DDPG(2h)" competitor (CDBTune-style): actions
// are knob vectors, states are Spark's inner status summary, the reward is
// the relative improvement over the default time. WithCode enables the
// QTune-style "DDPG-C" variant whose state also encodes code features.
type DDPGTuner struct {
	WithCode bool
	suite    *Suite
}

// NewDDPGTuner builds the RL competitor.
func NewDDPGTuner(s *Suite, withCode bool) *DDPGTuner {
	return &DDPGTuner{suite: s, WithCode: withCode}
}

// Name implements TunerMethod.
func (t *DDPGTuner) Name() string {
	if t.WithCode {
		return "DDPG-C"
	}
	return "DDPG"
}

// codeVector hashes the main code's bag of tokens into a fixed-width
// embedding for DDPG-C's state.
func codeVector(app *workload.App, width int) []float64 {
	v := make([]float64, width)
	for _, tok := range feature.Tokenize(app.Spec.MainCode) {
		h := 0
		for _, r := range tok {
			h = h*131 + int(r)
		}
		if h < 0 {
			h = -h
		}
		v[h%width]++
	}
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range v {
			v[i] /= norm
		}
	}
	return v
}

// Tune implements TunerMethod.
func (t *DDPGTuner) Tune(app *workload.App, data sparksim.DataSpec, env sparksim.Environment, budget float64, rng *rand.Rand) TuningResult {
	name := t.Name()
	res := TuningResult{Method: name}
	var spent float64

	const codeWidth = 16
	stateDim := 4 + 6 + sparksim.MetricsLen
	var code []float64
	if t.WithCode {
		stateDim += codeWidth
		code = codeVector(app, codeWidth)
	}
	agent := rl.NewAgent(rl.DefaultParams(stateDim, sparksim.NumKnobs), rng)

	mkState := func(metrics []float64) []float64 {
		s := append([]float64(nil), data.Features()...)
		s = append(s, env.Features()...)
		s = append(s, metrics...)
		if t.WithCode {
			s = append(s, code...)
		}
		return s
	}

	// Episode 0: default configuration establishes the reference time.
	defRun := sparksim.Simulate(app.Spec, data, env, sparksim.DefaultConfig())
	spent += defRun.Seconds
	res.Trials++
	res.BestSeconds = defRun.Seconds
	res.BestConfig = sparksim.DefaultConfig()
	res.Trace = append(res.Trace, TracePoint{OverheadSeconds: spent, BestSeconds: res.BestSeconds})
	refTime := defRun.Seconds
	state := mkState(defRun.Metrics())
	prevSec := defRun.Seconds

	for spent < budget {
		action := agent.Act(state)
		cfg := sparksim.FromNormalized(action)
		if !sparksim.Feasible(cfg, env) {
			cfg = core.ForceFeasible(cfg, env)
		}
		run := sparksim.Simulate(app.Spec, data, env, cfg)
		spent += run.Seconds
		res.Trials++
		if run.Seconds < res.BestSeconds {
			res.BestSeconds = run.Seconds
			res.BestConfig = cfg
		}
		res.Trace = append(res.Trace, TracePoint{OverheadSeconds: spent, BestSeconds: res.BestSeconds})
		// CDBTune-style reward: improvement over both the reference and
		// the previous trial.
		reward := (refTime-run.Seconds)/refTime + 0.5*(prevSec-run.Seconds)/refTime
		next := mkState(run.Metrics())
		agent.Observe(rl.Transition{State: state, Action: action, Reward: reward, Next: next})
		agent.Train()
		state = next
		prevSec = run.Seconds
	}
	return res
}
