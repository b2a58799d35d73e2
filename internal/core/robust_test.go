package core

import (
	"math"
	"math/rand"
	"testing"

	"lite/internal/sparksim"
	"lite/internal/workload"
)

// poisonModel overwrites every weight with NaN — the worst corruption a
// serialized or diverged model can present. It writes Params() directly,
// so m must not have scored yet: poison a fresh Clone.
func poisonModel(m *NECS) {
	for _, p := range m.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] = math.NaN()
		}
	}
	m.RefreshFingerprint()
}

// Fit must survive a batch whose label is NaN: the poisoned batch is
// skipped, gradients are clipped, and the model rolls back to its best
// epoch if weights ever go non-finite.
func TestFitSurvivesNaNBatch(t *testing.T) {
	apps := []*workload.App{workload.ByName("WordCount")}
	ds := smallDataset(t, apps, 3, 5)
	cfg := fastConfig()
	enc := NewEncoder(ds.Instances, cfg)
	encoded := EncodeAll(enc, ds.Instances)
	if len(encoded) < 3 {
		t.Fatalf("dataset too small: %d encoded", len(encoded))
	}
	// Poison a few labels the way a corrupted measurement would.
	encoded[0].Y = math.NaN()
	encoded[1].Y = math.Inf(1)

	rng := rand.New(rand.NewSource(6))
	m := NewNECS(enc, cfg, rng)
	loss := m.Fit(encoded, rng)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("final loss not finite: %v", loss)
	}
	if !m.paramsFinite() {
		t.Fatal("weights went non-finite despite rollback")
	}
	p := m.PredictSeconds(encoded[2])
	if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
		t.Fatalf("prediction after poisoned training not sane: %v", p)
	}
}

func TestPredictSecondsClampsCorruptedModel(t *testing.T) {
	apps := []*workload.App{workload.ByName("Terasort")}
	ds := smallDataset(t, apps, 2, 8)
	cfg := fastConfig()
	enc := NewEncoder(ds.Instances, cfg)
	encoded := EncodeAll(enc, ds.Instances)
	m := NewNECS(enc, cfg, rand.New(rand.NewSource(9)))
	poisonModel(m)
	p := m.PredictSeconds(encoded[0])
	if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
		t.Fatalf("corrupted model must still emit a clamped finite prediction, got %v", p)
	}
}

// RecommendSafe must fall through all three tiers as the pipeline degrades,
// never panicking and always returning a feasible configuration.
func TestRecommendSafeTierFallThrough(t *testing.T) {
	apps := []*workload.App{workload.ByName("WordCount"), workload.ByName("PageRank")}
	opts := DefaultTrainOptions()
	opts.NECS = fastConfig()
	opts.Collect.ConfigsPerInstance = 3
	opts.Collect.Sizes = []int{0, 2}
	opts.Collect.Clusters = []sparksim.Environment{sparksim.ClusterA, sparksim.ClusterC}
	tuner, _ := Train(apps, opts)

	app := apps[0].Spec
	data := app.MakeData(apps[0].Sizes.Valid)
	env := sparksim.ClusterC

	// Healthy pipeline → tier 1.
	rec, err := tuner.RecommendSafe(app, data, env)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Tier != TierNECS {
		t.Fatalf("healthy tuner should serve from NECS, got %q (notes: %v)", rec.Tier, rec.Notes)
	}
	if !sparksim.Feasible(rec.Config, env) {
		t.Fatal("tier-1 recommendation infeasible")
	}
	if math.IsNaN(rec.PredictedSeconds) || rec.PredictedSeconds >= sparksim.FailCap {
		t.Fatalf("tier-1 prediction not screened: %v", rec.PredictedSeconds)
	}

	// Corrupted estimator → every prediction screens out → tier 2. The
	// scored model is never written: a poisoned clone takes its place.
	tuner.Model = tuner.Model.Clone()
	poisonModel(tuner.Model)
	rec, err = tuner.RecommendSafe(app, data, env)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Tier != TierACGRegion {
		t.Fatalf("corrupted model should degrade to the ACG region, got %q (notes: %v)", rec.Tier, rec.Notes)
	}
	if !sparksim.Feasible(rec.Config, env) {
		t.Fatal("tier-2 recommendation infeasible")
	}
	if len(rec.Notes) == 0 {
		t.Fatal("degradation must be explained in Notes")
	}

	// No estimator, no candidate generator → safe default, still no error.
	tuner.Model = nil
	tuner.ACG = nil
	rec, err = tuner.RecommendSafe(app, data, env)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Tier != TierSafeDefault {
		t.Fatalf("gutted tuner should serve the safe default, got %q", rec.Tier)
	}
	if !sparksim.Feasible(rec.Config, env) {
		t.Fatal("safe default infeasible")
	}
	if len(rec.Notes) != 3 {
		t.Fatalf("expected one note per skipped tier, got %v", rec.Notes)
	}
}

func TestRecommendSafeSurvivesNilRNG(t *testing.T) {
	apps := []*workload.App{workload.ByName("Terasort")}
	opts := DefaultTrainOptions()
	opts.NECS = fastConfig()
	opts.Collect.ConfigsPerInstance = 2
	opts.Collect.Sizes = []int{0}
	opts.Collect.Clusters = []sparksim.Environment{sparksim.ClusterA}
	trained, _ := Train(apps, opts)

	// A hand-assembled tuner (e.g. loaded from a partial snapshot) has no rng.
	bare := &Tuner{Model: trained.Model, ACG: trained.ACG, NumCandidates: 8}
	app := apps[0].Spec
	rec, err := bare.RecommendSafe(app, app.MakeData(apps[0].Sizes.Valid), sparksim.ClusterA)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Tier == "" {
		t.Fatal("tier must be set on success")
	}
}

// Robust collection on a fault-injecting cluster must be deterministic and
// must account for its extra work in Stats.
func TestRobustCollectDeterministicWithStats(t *testing.T) {
	apps := []*workload.App{workload.ByName("PageRank")}
	faulty := sparksim.ClusterB.WithFaults(sparksim.ScaledFaults(1.0, 3))
	opts := CollectOptions{
		ConfigsPerInstance: 3,
		Clusters:           []sparksim.Environment{faulty},
		IncludeDefault:     true,
		Sizes:              []int{0, 1},
		Repeats:            3,
		FlakyRetries:       2,
	}
	a := Collect(apps, opts, rand.New(rand.NewSource(4)))
	b := Collect(apps, opts, rand.New(rand.NewSource(4)))
	if a.Stats != b.Stats {
		t.Fatalf("collection stats not deterministic: %+v vs %+v", a.Stats, b.Stats)
	}
	for i := range a.Runs {
		if a.Runs[i].Result.Seconds != b.Runs[i].Result.Seconds {
			t.Fatalf("run %d seconds differ between identical collections", i)
		}
	}
	if a.Stats.Runs != len(a.Runs) {
		t.Fatalf("Stats.Runs=%d but %d runs kept", a.Stats.Runs, len(a.Runs))
	}
	if a.Stats.RepeatRuns != a.Stats.Runs*2 {
		t.Fatalf("3 repeats should record 2 extra runs per instance: %+v", a.Stats)
	}
}

// With faults off and Repeats/FlakyRetries unset, collection must take the
// original single-run path: no repeats, no retries, no censoring surprises.
func TestCollectFaultFreePathUnchanged(t *testing.T) {
	apps := []*workload.App{workload.ByName("WordCount")}
	ds := smallDataset(t, apps, 3, 5)
	if ds.Stats.RepeatRuns != 0 || ds.Stats.Retries != 0 || ds.Stats.RetrySeconds != 0 {
		t.Fatalf("fault-free collection did robustness work: %+v", ds.Stats)
	}
}
