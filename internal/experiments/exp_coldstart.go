package experiments

import (
	"fmt"
	"math"
	"sort"

	"lite/internal/core"
	"lite/internal/instrument"
	"lite/internal/metrics"
	"lite/internal/retrieval"
	"lite/internal/sparksim"
)

// coldTuner trains a LITE tuner with every instance of the excluded
// applications removed (leave-n-out, §V-G).
func coldTuner(s *Suite, excluded map[string]bool, seed int64, cfg core.NECSConfig) *core.Tuner {
	full := s.Dataset()
	sub := &core.Dataset{Apps: full.Apps}
	for _, run := range full.Runs {
		if excluded[run.AppName] {
			continue
		}
		sub.Runs = append(sub.Runs, run)
		sub.Instances = append(sub.Instances, run.Stages...)
	}
	opts := core.DefaultTrainOptions()
	opts.NECS = cfg
	opts.Seed = seed
	t := core.TrainOn(sub, opts)
	t.NumCandidates = s.Opts.RecommendCandidates
	return t
}

// bestKnownPool approximates the best-known execution time for an
// application instance with a fixed random pool plus the expert base.
func bestKnownPool(s *Suite, app int, sizeMB float64, env sparksim.Environment, n int, seed int64) float64 {
	a := s.Apps[app]
	data := a.Spec.MakeData(sizeMB)
	rng := s.rng(seed)
	best := sparksim.Simulate(a.Spec, data, env, expertBase(a, data, env)).Seconds
	for i := 0; i < n; i++ {
		cfg := core.ForceFeasible(sparksim.RandomConfig(rng), env)
		if t := sparksim.Simulate(a.Spec, data, env, cfg).Seconds; t < best {
			best = t
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Table X: cold-start tuning ETR per never-seen application
// ---------------------------------------------------------------------------

// Table10Result reports ETR per never-seen application under the cold-start
// protocol: all training instances of the application are excluded; LITE
// instruments it once on the smallest dataset, then recommends for the
// large testing data in cluster C.
type Table10Result struct {
	Apps    []string
	ETR     map[string]float64
	Seconds map[string]float64
	MeanETR float64
}

// Table10 runs the leave-one-out sweep.
func Table10(s *Suite) *Table10Result {
	res := &Table10Result{ETR: map[string]float64{}, Seconds: map[string]float64{}}
	cfg := s.Opts.NECS
	env := sparksim.ClusterC
	var sum float64
	for ai, app := range s.Apps {
		name := app.Spec.Name
		res.Apps = append(res.Apps, name)
		tuner := coldTuner(s, map[string]bool{name: true}, int64(600+ai), cfg)

		// Cold-start Step 1: instrument once on the smallest dataset so
		// stage codes/DAGs are available (they are part of the app spec
		// here, but the run also verifies the app executes).
		_, _ = core.ColdStartInstrument(app, env)

		data := app.Spec.MakeData(app.Sizes.Test)
		rec := tuner.Recommend(app.Spec, data, env)
		actual := sparksim.Simulate(app.Spec, data, env, rec.Config).Seconds
		def := sparksim.Simulate(app.Spec, data, env, sparksim.DefaultConfig()).Seconds
		tMin := bestKnownPool(s, ai, app.Sizes.Test, env, 200, int64(650+ai))
		if actual < tMin {
			tMin = actual
		}
		etr := metrics.ETR(def, capSeconds(actual), tMin)
		res.ETR[name] = etr
		res.Seconds[name] = actual
		sum += etr
	}
	res.MeanETR = sum / float64(len(res.Apps))
	return res
}

// Format renders Table X.
func (r *Table10Result) Format() string {
	t := NewTable("Table X: cold-start ETR per never-seen application (large data, cluster C)",
		"application", "t(s)", "ETR")
	for _, app := range r.Apps {
		t.AddRow(app, fmtSeconds(r.Seconds[app]), fmt.Sprintf("%.2f", r.ETR[app]))
	}
	t.AddRow("MEAN", "", fmt.Sprintf("%.2f", r.MeanETR))
	return t.String()
}

// ---------------------------------------------------------------------------
// Cold-start retrieval: zero-execution serving of held-out applications
// ---------------------------------------------------------------------------

// ColdStartRetrievalResult compares, per held-out application, the
// zero-execution retrieval tier (nearest historical neighbour's best-known
// config, adapted) against the safe default — the answer an unseen app
// would otherwise get from the degradation chain's last tier.
type ColdStartRetrievalResult struct {
	Apps []string
	// RetrSec / DefSec are simulated execution times of the retrieval and
	// safe-default configs on the test datasize in cluster C.
	RetrSec map[string]float64
	DefSec  map[string]float64
	// Neighbour and Similarity describe the retrieved entry ("" / 0 on a
	// miss, where retrieval falls back to the safe default).
	Neighbour  map[string]string
	Similarity map[string]float64
	Hits       int
	// MeanSpeedup is the geometric-mean ratio default/retrieval (>1 means
	// retrieval beats the safe default on held-out apps).
	MeanSpeedup float64
}

// ColdStartRetrieval runs the leave-one-out sweep: for each application,
// the retrieval store is built from every other application's measured
// runs, the held-out app is embedded from its spec (exactly what the serve
// layer does for wire features), and the adapted neighbour config races
// the safe default on the large test datasize. No model training and no
// simulator executions are spent on the decision itself — only on scoring
// the outcome.
func ColdStartRetrieval(s *Suite) *ColdStartRetrievalResult {
	res := &ColdStartRetrievalResult{
		RetrSec:    map[string]float64{},
		DefSec:     map[string]float64{},
		Neighbour:  map[string]string{},
		Similarity: map[string]float64{},
	}
	env := sparksim.ClusterC
	full := s.Dataset()
	logSum, n := 0.0, 0
	for _, app := range s.Apps {
		name := app.Spec.Name
		res.Apps = append(res.Apps, name)

		var held []instrument.AppInstance
		for _, run := range full.Runs {
			if run.AppName != name {
				held = append(held, run)
			}
		}
		store := retrieval.BuildFromRuns(held)

		data := app.Spec.MakeData(app.Sizes.Test)
		def := core.ForceFeasible(sparksim.DefaultConfig(), env)
		cfg := def
		r, ok := store.Lookup(retrieval.Query{
			Embedding: retrieval.EmbedApp(app.Spec),
			SizeMB:    data.SizeMB,
			EnvFP:     retrieval.EnvFingerprint(env),
		})
		if ok {
			res.Hits++
			res.Neighbour[name] = r.App
			res.Similarity[name] = r.Similarity
			adapted := core.ForceFeasible(retrieval.Adapt(r.Config, r.SizeMB, data.SizeMB), env)
			if sparksim.Feasible(adapted, env) {
				cfg = adapted
			}
		}
		retrSec := capSeconds(sparksim.Simulate(app.Spec, data, env, cfg).Seconds)
		defSec := capSeconds(sparksim.Simulate(app.Spec, data, env, def).Seconds)
		res.RetrSec[name] = retrSec
		res.DefSec[name] = defSec
		logSum += math.Log(defSec / retrSec)
		n++
	}
	res.MeanSpeedup = math.Exp(logSum / float64(n))
	return res
}

// Format renders the cold-start retrieval comparison.
func (r *ColdStartRetrievalResult) Format() string {
	t := NewTable("Cold start: zero-execution retrieval vs safe default (held-out apps, test data, cluster C)",
		"application", "neighbour", "sim", "retrieval t(s)", "default t(s)", "speedup")
	for _, app := range r.Apps {
		nb := r.Neighbour[app]
		sim := "-"
		if nb != "" {
			sim = fmt.Sprintf("%.2f", r.Similarity[app])
		} else {
			nb = "(miss)"
		}
		t.AddRow(app, nb, sim,
			fmtSeconds(r.RetrSec[app]), fmtSeconds(r.DefSec[app]),
			fmt.Sprintf("%.2fx", r.DefSec[app]/r.RetrSec[app]))
	}
	t.AddRow("GEO-MEAN", fmt.Sprintf("%d/%d hits", r.Hits, len(r.Apps)), "", "", "",
		fmt.Sprintf("%.2fx", r.MeanSpeedup))
	return t.String()
}

// ---------------------------------------------------------------------------
// Table XI: warm vs cold ranking, NECS vs SCG+LightGBM, Cold-UNK ablation
// ---------------------------------------------------------------------------

// Table11Result compares ranking quality under warm-start and cold-start
// settings for NECS and the best non-neural competitor, plus the Cold-UNK
// ablation (NECS without the out-of-vocabulary token).
type Table11Result struct {
	// Scores keyed by method → setting ("warm"/"cold"/"cold-UNK").
	Scores map[string]map[string]RankingScore
	Folds  int
}

// Table11 evaluates on validation data in cluster C. Cold scores average
// over leave-one-out folds (a subset of applications for CI speed).
func Table11(s *Suite) *Table11Result {
	res := &Table11Result{Scores: map[string]map[string]RankingScore{
		"NECS":         {},
		"SCG+LightGBM": {},
	}, Folds: 5}
	env := sparksim.ClusterC
	cases := s.ValidationCases(env, 700)

	// Warm: standard models evaluated on all applications.
	warmNECS := NewNeuralRanker(VariantNECS, s.Opts.NECS)
	warmNECS.Fit(s.Dataset(), s.rng(701))
	res.Scores["NECS"]["warm"] = evalRanker(warmNECS, cases, 5)

	warmGBM := NewFlatRanker("LightGBM", ModeSCG, NewGBMModel(), s.Apps)
	warmGBM.Fit(s.Dataset(), s.rng(702))
	res.Scores["SCG+LightGBM"]["warm"] = evalRanker(warmGBM, cases, 5)

	// Cold and Cold-UNK: leave-one-out over the first Folds applications
	// (deterministic subset; the full sweep is Table X's job).
	var coldNECS, coldUNK, coldGBM []RankingScore
	unkCfg := s.Opts.NECS
	unkCfg.DisableOOV = true
	for fi := 0; fi < res.Folds && fi < len(s.Apps); fi++ {
		app := s.Apps[fi]
		excl := map[string]bool{app.Spec.Name: true}
		sub := &core.Dataset{Apps: s.Dataset().Apps}
		for _, run := range s.Dataset().Runs {
			if !excl[run.AppName] {
				sub.Runs = append(sub.Runs, run)
				sub.Instances = append(sub.Instances, run.Stages...)
			}
		}
		gc := cases[fi]

		nr := NewNeuralRanker(VariantNECS, s.Opts.NECS)
		nr.Fit(sub, s.rng(int64(710+fi)))
		coldNECS = append(coldNECS, evalScores(nr.Scores(gc), gc.Actual, 5))

		nu := NewNeuralRanker(VariantNECS, unkCfg)
		nu.Fit(sub, s.rng(int64(720+fi)))
		coldUNK = append(coldUNK, evalScores(nu.Scores(gc), gc.Actual, 5))

		gb := NewFlatRanker("LightGBM", ModeSCG, NewGBMModel(), s.Apps)
		gb.Fit(sub, s.rng(int64(730+fi)))
		coldGBM = append(coldGBM, evalScores(gb.Scores(gc), gc.Actual, 5))
	}
	res.Scores["NECS"]["cold"] = meanScore(coldNECS)
	res.Scores["NECS"]["cold-UNK"] = meanScore(coldUNK)
	res.Scores["SCG+LightGBM"]["cold"] = meanScore(coldGBM)
	return res
}

func meanScore(xs []RankingScore) RankingScore {
	var s RankingScore
	for _, x := range xs {
		s.HR += x.HR
		s.NDCG += x.NDCG
	}
	n := float64(len(xs))
	if n == 0 {
		return s
	}
	s.HR /= n
	s.NDCG /= n
	return s
}

// Format renders Table XI.
func (r *Table11Result) Format() string {
	t := NewTable(fmt.Sprintf("Table XI: warm vs cold ranking (cluster C validation, %d cold folds)", r.Folds),
		"method", "setting", "HR@5", "NDCG@5")
	order := []struct{ m, s string }{
		{"NECS", "warm"}, {"NECS", "cold"}, {"NECS", "cold-UNK"},
		{"SCG+LightGBM", "warm"}, {"SCG+LightGBM", "cold"},
	}
	for _, o := range order {
		sc, ok := r.Scores[o.m][o.s]
		if !ok {
			continue
		}
		t.AddRow(o.m, o.s, fmt.Sprintf("%.4f", sc.HR), fmt.Sprintf("%.4f", sc.NDCG))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Figure 10: stability as the fraction of never-seen applications grows
// ---------------------------------------------------------------------------

// Figure10Result tracks HR@5/NDCG@5 as n of 15 applications are excluded
// from training and evaluated as never-seen (§V-H).
type Figure10Result struct {
	// X is n/15 per sweep point.
	X    []float64
	HR   []float64
	NDCG []float64
	Runs int
}

// Figure10 sweeps the never-seen fraction. ns lists the n values; runs the
// repetitions per point.
func Figure10(s *Suite, ns []int, runs int) *Figure10Result {
	if len(ns) == 0 {
		ns = []int{1, 3, 5, 7, 9, 11}
	}
	if runs <= 0 {
		runs = 2
	}
	res := &Figure10Result{Runs: runs}
	env := sparksim.ClusterC
	cases := s.ValidationCases(env, 800)

	cfg := s.Opts.NECS
	for pi, n := range ns {
		var hr, ndcg float64
		var count float64
		for run := 0; run < runs; run++ {
			rng := s.rng(int64(810 + pi*10 + run))
			perm := rng.Perm(len(s.Apps))
			excl := map[string]bool{}
			for _, i := range perm[:n] {
				excl[s.Apps[i].Spec.Name] = true
			}
			sub := &core.Dataset{Apps: s.Dataset().Apps}
			for _, r := range s.Dataset().Runs {
				if !excl[r.AppName] {
					sub.Runs = append(sub.Runs, r)
					sub.Instances = append(sub.Instances, r.Stages...)
				}
			}
			nr := NewNeuralRanker(VariantNECS, cfg)
			nr.Fit(sub, rng)
			for ci, gc := range cases {
				if !excl[s.Apps[ci].Spec.Name] {
					continue
				}
				sc := evalScores(nr.Scores(gc), gc.Actual, 5)
				hr += sc.HR
				ndcg += sc.NDCG
				count++
			}
		}
		res.X = append(res.X, float64(n)/float64(len(s.Apps)))
		res.HR = append(res.HR, hr/count)
		res.NDCG = append(res.NDCG, ndcg/count)
	}
	return res
}

// Format renders the sweep.
func (r *Figure10Result) Format() string {
	t := NewTable(fmt.Sprintf("Figure 10: ranking vs fraction of never-seen applications (%d runs/point)", r.Runs),
		"x = n/15", "HR@5", "NDCG@5")
	for i := range r.X {
		t.AddRow(fmt.Sprintf("%.2f", r.X[i]), fmt.Sprintf("%.4f", r.HR[i]), fmt.Sprintf("%.4f", r.NDCG[i]))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// §V-I: cold-start instrumentation overhead
// ---------------------------------------------------------------------------

// OverheadResult reports the one-off instrumentation overhead LITE pays for
// cold-start applications (one run on the smallest dataset) against the
// payoff (execution time saved on one large run).
type OverheadResult struct {
	Apps              []string
	InstrumentSeconds map[string]float64
	SavedSeconds      map[string]float64
}

// ColdStartOverhead measures the §V-I trade-off.
func ColdStartOverhead(s *Suite) *OverheadResult {
	tuner := s.Tuner()
	res := &OverheadResult{InstrumentSeconds: map[string]float64{}, SavedSeconds: map[string]float64{}}
	env := sparksim.ClusterC
	for _, app := range s.Apps {
		name := app.Spec.Name
		res.Apps = append(res.Apps, name)
		_, overhead := core.ColdStartInstrument(app, env)
		res.InstrumentSeconds[name] = overhead

		data := app.Spec.MakeData(app.Sizes.Test)
		rec := tuner.Recommend(app.Spec, data, env)
		tuned := sparksim.Simulate(app.Spec, data, env, rec.Config).Seconds
		def := sparksim.Simulate(app.Spec, data, env, sparksim.DefaultConfig()).Seconds
		res.SavedSeconds[name] = def - tuned
	}
	return res
}

// Format renders the overhead table sorted by payoff.
func (r *OverheadResult) Format() string {
	apps := append([]string(nil), r.Apps...)
	sort.Slice(apps, func(a, b int) bool { return r.SavedSeconds[apps[a]] > r.SavedSeconds[apps[b]] })
	t := NewTable("Cold-start instrumentation overhead vs one-run payoff (cluster C)",
		"application", "instrument (s)", "saved on one large run (s)")
	for _, app := range apps {
		t.AddRow(app, fmtSeconds(r.InstrumentSeconds[app]), fmtSeconds(r.SavedSeconds[app]))
	}
	return t.String()
}
