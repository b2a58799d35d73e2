package experiments

import (
	"math"
	"math/rand"

	"lite/internal/core"
	"lite/internal/gbm"
	"lite/internal/sparksim"
	"lite/internal/stats"
	"lite/internal/workload"
)

// This file implements the cost-based and experimental tuning approaches
// the paper surveys in §VI as additional competitors, used by the
// "extra" (beyond-paper) comparison: Ernest-style analytical cost models,
// AutoTune-style Latin-Hypercube search, and a DAC-style learned model
// with randomized search.

// ---------------------------------------------------------------------------
// Ernest: analytical scaling model fit by least squares
// ---------------------------------------------------------------------------

// ErnestTuner fits the Ernest cost model (Venkataraman et al., NSDI'16)
// per application from the small-data training runs:
//
//	t ≈ θ₀ + θ₁·(size/slots) + θ₂·log(slots) + θ₃·slots
//
// and recommends the candidate with the lowest predicted time. As the
// paper notes, Ernest "only models the interaction between the data scale
// and the inverse of the number of machines and cannot easily support
// other factors" — the other 13 knobs are invisible to it.
type ErnestTuner struct {
	suite      *Suite
	Candidates int
}

// NewErnestTuner builds the tuner against the suite's training data.
func NewErnestTuner(s *Suite) *ErnestTuner {
	return &ErnestTuner{suite: s, Candidates: 64}
}

// Name implements TunerMethod.
func (*ErnestTuner) Name() string { return "Ernest" }

func ernestFeatures(cfg sparksim.Config, data sparksim.DataSpec, env sparksim.Environment) []float64 {
	d := featureSlots(cfg, env)
	slots := math.Max(d, 1)
	return []float64{1, data.SizeMB / slots, math.Log(slots + 1), slots}
}

// featureSlots computes allocatable task slots for a configuration.
func featureSlots(cfg sparksim.Config, env sparksim.Environment) float64 {
	cfg = cfg.Clamp()
	executors, _ := sparksim.Placement(cfg, env)
	return executors * cfg[sparksim.KnobExecutorCores]
}

// Tune implements TunerMethod.
func (t *ErnestTuner) Tune(app *workload.App, data sparksim.DataSpec, env sparksim.Environment, budget float64, rng *rand.Rand) TuningResult {
	// Fit θ on this application's training runs (all sizes, all clusters).
	var x [][]float64
	var y []float64
	for i := range t.suite.Dataset().Runs {
		run := &t.suite.Dataset().Runs[i]
		if run.AppName != app.Spec.Name || run.Result.Failed {
			continue
		}
		x = append(x, ernestFeatures(run.Config, run.Data, run.Env))
		y = append(y, run.Result.Seconds)
	}
	theta := leastSquares(x, y, 4)

	best := core.ForceFeasible(sparksim.DefaultConfig(), env)
	bestPred := math.Inf(1)
	for i := 0; i < t.Candidates; i++ {
		cfg := core.ForceFeasible(sparksim.RandomConfig(rng), env)
		f := ernestFeatures(cfg, data, env)
		pred := 0.0
		for j := range theta {
			pred += theta[j] * f[j]
		}
		if pred < bestPred {
			bestPred, best = pred, cfg
		}
	}
	res := TuningResult{Method: "Ernest"}
	var spent float64
	evalTrial(&res, app, data, env, best, &spent)
	return res
}

// leastSquares solves min ‖Xθ−y‖² via the normal equations with Gaussian
// elimination (ridge-stabilized). dim is the feature width.
func leastSquares(x [][]float64, y []float64, dim int) []float64 {
	a := make([][]float64, dim)
	for i := range a {
		a[i] = make([]float64, dim+1)
	}
	for r := range x {
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				a[i][j] += x[r][i] * x[r][j]
			}
			a[i][dim] += x[r][i] * y[r]
		}
	}
	for i := 0; i < dim; i++ {
		a[i][i] += 1e-6 // ridge
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < dim; col++ {
		piv := col
		for r := col + 1; r < dim; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		if a[col][col] == 0 {
			continue
		}
		for r := 0; r < dim; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= dim; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	theta := make([]float64, dim)
	for i := 0; i < dim; i++ {
		if a[i][i] != 0 {
			theta[i] = a[i][dim] / a[i][i]
		}
	}
	return theta
}

// ---------------------------------------------------------------------------
// AutoTune: Latin-Hypercube search within the execution budget
// ---------------------------------------------------------------------------

// AutoTuneTuner is the experimental-approach competitor (§VI): it executes
// a Latin Hypercube Sample of the configuration space, then iteratively
// re-samples a shrunken box around the best configuration so far, spending
// the whole execution budget on trials (AutoTune, Middleware'18 style).
type AutoTuneTuner struct {
	// RoundSize configurations are executed per LHS round.
	RoundSize int
	// Shrink contracts the box around the incumbent each round.
	Shrink float64
}

// NewAutoTuneTuner returns the competitor with standard settings.
func NewAutoTuneTuner() *AutoTuneTuner { return &AutoTuneTuner{RoundSize: 8, Shrink: 0.6} }

// Name implements TunerMethod.
func (*AutoTuneTuner) Name() string { return "AutoTune" }

// Tune implements TunerMethod.
func (t *AutoTuneTuner) Tune(app *workload.App, data sparksim.DataSpec, env sparksim.Environment, budget float64, rng *rand.Rand) TuningResult {
	res := TuningResult{Method: "AutoTune"}
	var spent float64

	lo := make([]float64, sparksim.NumKnobs)
	hi := make([]float64, sparksim.NumKnobs)
	for i := range hi {
		hi[i] = 1
	}
	var bestU []float64
	for spent < budget {
		pts := stats.LatinHypercube(t.RoundSize, sparksim.NumKnobs, rng)
		for _, u := range pts {
			if spent >= budget {
				break
			}
			scaled := make([]float64, sparksim.NumKnobs)
			for d := range u {
				scaled[d] = lo[d] + u[d]*(hi[d]-lo[d])
			}
			cfg := core.ForceFeasible(sparksim.FromNormalized(scaled), env)
			sec := evalTrial(&res, app, data, env, cfg, &spent)
			if sec == res.BestSeconds {
				bestU = scaled
			}
		}
		if bestU == nil {
			continue
		}
		// Shrink the box around the incumbent.
		for d := range lo {
			half := (hi[d] - lo[d]) * t.Shrink / 2
			c := bestU[d]
			lo[d] = math.Max(0, c-half)
			hi[d] = math.Min(1, c+half)
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// DAC: learned per-app model + randomized search
// ---------------------------------------------------------------------------

// DACTuner approximates DAC (TPDS'19): a boosted-tree model per
// application over (configuration, datasize) trained on the small-data
// runs, searched with random candidates plus hill-climbing mutations of
// the incumbents (standing in for DAC's genetic search).
type DACTuner struct {
	suite      *Suite
	Candidates int
	Mutations  int
}

// NewDACTuner builds the competitor.
func NewDACTuner(s *Suite) *DACTuner {
	return &DACTuner{suite: s, Candidates: 48, Mutations: 24}
}

// Name implements TunerMethod.
func (*DACTuner) Name() string { return "DAC" }

// Tune implements TunerMethod.
func (t *DACTuner) Tune(app *workload.App, data sparksim.DataSpec, env sparksim.Environment, budget float64, rng *rand.Rand) TuningResult {
	var x [][]float64
	var y []float64
	for i := range t.suite.Dataset().Runs {
		run := &t.suite.Dataset().Runs[i]
		if run.AppName != app.Spec.Name {
			continue
		}
		row := append(run.Config.Normalized(), math.Log1p(run.Data.SizeMB)/15)
		x = append(x, row)
		y = append(y, core.LabelOf(run.Result.Seconds))
	}
	params := gbm.DefaultParams()
	params.NumRounds = 60
	model := gbm.Fit(x, y, params, rng)
	score := func(cfg sparksim.Config) float64 {
		row := append(cfg.Normalized(), math.Log1p(data.SizeMB)/15)
		return model.Predict(row)
	}

	best := core.ForceFeasible(sparksim.DefaultConfig(), env)
	bestScore := score(best)
	consider := func(cfg sparksim.Config) {
		if s := score(cfg); s < bestScore {
			bestScore, best = s, cfg
		}
	}
	for i := 0; i < t.Candidates; i++ {
		consider(core.ForceFeasible(sparksim.RandomConfig(rng), env))
	}
	for i := 0; i < t.Mutations; i++ {
		mut := best
		for d := 0; d < sparksim.NumKnobs; d++ {
			if rng.Float64() < 0.25 {
				k := sparksim.Knobs[d]
				mut[d] += rng.NormFloat64() * (k.Max - k.Min) * 0.1
			}
		}
		consider(core.ForceFeasible(mut.Clamp(), env))
	}

	res := TuningResult{Method: "DAC"}
	var spent float64
	evalTrial(&res, app, data, env, best, &spent)
	return res
}
