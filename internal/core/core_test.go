package core

import (
	"math"
	"math/rand"
	"testing"

	"lite/internal/instrument"
	"lite/internal/nn"
	"lite/internal/sparksim"
	"lite/internal/stats"
	"lite/internal/workload"
)

// smallDataset collects a cheap dataset for unit tests.
func smallDataset(t *testing.T, apps []*workload.App, configsPer int, seed int64) *Dataset {
	t.Helper()
	opts := CollectOptions{
		ConfigsPerInstance: configsPer,
		Clusters:           []sparksim.Environment{sparksim.ClusterA, sparksim.ClusterC},
		IncludeDefault:     true,
		Sizes:              []int{0, 2},
	}
	return Collect(apps, opts, rand.New(rand.NewSource(seed)))
}

func fastConfig() NECSConfig {
	cfg := DefaultNECSConfig()
	cfg.Epochs = 4
	cfg.TokenLen = 64
	return cfg
}

func TestLabelRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 0.5, 60, 7200} {
		if got := SecondsOf(LabelOf(s)); math.Abs(got-s) > 1e-6*(1+s) {
			t.Fatalf("label round trip %v -> %v", s, got)
		}
	}
}

func TestCollectShape(t *testing.T) {
	apps := []*workload.App{workload.ByName("WordCount"), workload.ByName("PageRank")}
	ds := smallDataset(t, apps, 3, 1)
	// 2 apps × 2 sizes × 2 clusters × 3 configs.
	if len(ds.Runs) != 24 {
		t.Fatalf("got %d runs, want 24", len(ds.Runs))
	}
	if len(ds.Instances) <= len(ds.Runs) {
		t.Fatal("stage segmentation should produce more instances than runs")
	}
}

func TestEncodeAllDeduplicatesIteratedStages(t *testing.T) {
	apps := []*workload.App{workload.ByName("PageRank")}
	ds := smallDataset(t, apps, 2, 2)
	enc := NewEncoder(ds.Instances, fastConfig())
	encoded := EncodeAll(enc, ds.Instances)
	if len(encoded) >= len(ds.Instances) {
		t.Fatalf("dedup failed: %d encoded vs %d raw", len(encoded), len(ds.Instances))
	}
	// Weights must sum to the raw instance count.
	var wsum float64
	for _, e := range encoded {
		wsum += e.Weight
		if e.Weight < 1 {
			t.Fatalf("weight %v < 1", e.Weight)
		}
	}
	if int(wsum) != len(ds.Instances) {
		t.Fatalf("weights sum to %v, want %d", wsum, len(ds.Instances))
	}
}

func TestEncoderCachesAndEncodes(t *testing.T) {
	apps := []*workload.App{workload.ByName("Terasort")}
	ds := smallDataset(t, apps, 2, 3)
	enc := NewEncoder(ds.Instances, fastConfig())
	e1 := enc.Encode(&ds.Instances[0])
	e2 := enc.Encode(&ds.Instances[0])
	if &e1.TokenIDs[0] != &e2.TokenIDs[0] {
		t.Fatal("token encoding not cached")
	}
	if len(e1.TokenIDs) != fastConfig().TokenLen {
		t.Fatalf("token length %d", len(e1.TokenIDs))
	}
	if e1.NodeFeats.Rows != len(ds.Instances[0].Ops) {
		t.Fatal("node features row count mismatch")
	}
	if e1.AHat.Rows != e1.NodeFeats.Rows || e1.AHat.Cols != e1.AHat.Rows {
		t.Fatal("adjacency shape mismatch")
	}
}

func TestNECSLearnsToRankConfigs(t *testing.T) {
	apps := []*workload.App{workload.ByName("WordCount"), workload.ByName("Terasort")}
	ds := smallDataset(t, apps, 6, 4)
	cfg := fastConfig()
	cfg.Epochs = 10
	rng := rand.New(rand.NewSource(5))
	enc := NewEncoder(ds.Instances, cfg)
	model := NewNECS(enc, cfg, rng)
	loss := model.Fit(EncodeAll(enc, ds.Instances), rng)
	if math.IsNaN(loss) || loss > 6 {
		t.Fatalf("training loss too high: %v", loss)
	}
	// Spearman between predicted and actual app times on held-out configs
	// must be clearly positive.
	app := workload.ByName("Terasort")
	d := app.Spec.MakeData(app.Sizes.Valid)
	var preds, actuals []float64
	for i := 0; i < 25; i++ {
		c := sparksim.RandomConfig(rng)
		preds = append(preds, model.PredictApp(app.Spec, d, sparksim.ClusterC, c))
		actuals = append(actuals, sparksim.Simulate(app.Spec, d, sparksim.ClusterC, c).Seconds)
	}
	if rho := stats.Spearman(preds, actuals); rho < 0.3 {
		t.Fatalf("NECS ranking correlation too weak: %v", rho)
	}
}

func TestPredictAppAggregatesStages(t *testing.T) {
	apps := []*workload.App{workload.ByName("KMeans")}
	ds := smallDataset(t, apps, 3, 6)
	cfg := fastConfig()
	cfg.Epochs = 1
	rng := rand.New(rand.NewSource(7))
	enc := NewEncoder(ds.Instances, cfg)
	model := NewNECS(enc, cfg, rng)
	app := workload.ByName("KMeans").Spec
	d := app.MakeData(100)
	pred := model.PredictApp(app, d, sparksim.ClusterA, sparksim.DefaultConfig())
	if pred <= 0 || math.IsNaN(pred) {
		t.Fatalf("aggregate prediction %v", pred)
	}
	// The aggregate must equal the sum of clamped per-stage predictions
	// over the expanded stage plan (Equation 5's aggregation).
	plan := app.ExpandedStages(d)
	perStage := map[int]float64{}
	var manual float64
	for _, si := range plan {
		sec, ok := perStage[si]
		if !ok {
			st := &app.Stages[si]
			inst := instrument.StageInstance{
				AppName: app.Name, AppFamily: app.Family, StageIndex: si, StageName: st.Name,
				Code: st.Code, Ops: st.Ops, Edges: st.Edges,
				Config: sparksim.DefaultConfig(), Data: d, Env: sparksim.ClusterA,
			}
			sec = model.PredictSeconds(model.Encoder.Encode(&inst))
			perStage[si] = sec
		}
		manual += sec
	}
	if math.Abs(manual-pred) > 1e-9 {
		t.Fatalf("PredictApp %v != manual aggregation %v", pred, manual)
	}
}

func TestACGRegionInsideKnobDomains(t *testing.T) {
	apps := []*workload.App{workload.ByName("PageRank"), workload.ByName("SVM")}
	ds := smallDataset(t, apps, 6, 8)
	g := NewCandidateGenerator(ds.Runs, rand.New(rand.NewSource(9)))
	lo, hi := g.Region("PageRank", apps[0].Spec.MakeData(1024))
	for d := 0; d < sparksim.NumKnobs; d++ {
		k := sparksim.Knobs[d]
		if lo[d] < k.Min || hi[d] > k.Max || lo[d] > hi[d] {
			t.Fatalf("knob %s region [%v,%v] outside domain [%v,%v]", k.Name, lo[d], hi[d], k.Min, k.Max)
		}
	}
}

func TestACGShrinksSearchSpace(t *testing.T) {
	apps := []*workload.App{workload.ByName("PageRank"), workload.ByName("SVM")}
	ds := smallDataset(t, apps, 8, 10)
	g := NewCandidateGenerator(ds.Runs, rand.New(rand.NewSource(11)))
	lo, hi := g.Region("PageRank", apps[0].Spec.MakeData(1024))
	var shrunk int
	for d := 0; d < sparksim.NumKnobs; d++ {
		k := sparksim.Knobs[d]
		if hi[d]-lo[d] < (k.Max-k.Min)*0.95 {
			shrunk++
		}
	}
	if shrunk < sparksim.NumKnobs/2 {
		t.Fatalf("ACG barely shrinks the space: only %d knobs narrowed", shrunk)
	}
}

func TestACGSampleFeasible(t *testing.T) {
	apps := []*workload.App{workload.ByName("KMeans"), workload.ByName("WordCount")}
	ds := smallDataset(t, apps, 6, 12)
	g := NewCandidateGenerator(ds.Runs, rand.New(rand.NewSource(13)))
	d := apps[0].Spec.MakeData(1024)
	cands := g.SampleFeasible("KMeans", d, sparksim.ClusterC, 32, rand.New(rand.NewSource(14)))
	if len(cands) != 32 {
		t.Fatalf("got %d candidates", len(cands))
	}
	for _, c := range cands {
		if !sparksim.Feasible(c, sparksim.ClusterC) {
			t.Fatalf("infeasible candidate sampled: %v", c)
		}
	}
}

func TestForceFeasible(t *testing.T) {
	var c sparksim.Config
	for i, k := range sparksim.Knobs {
		c[i] = k.Max
	}
	fixed := ForceFeasible(c, sparksim.ClusterC)
	if !sparksim.Feasible(fixed, sparksim.ClusterC) {
		t.Fatal("ForceFeasible produced infeasible config")
	}
}

func TestACGPointPredictionLegal(t *testing.T) {
	apps := []*workload.App{workload.ByName("ALS"), workload.ByName("DecisionTree")}
	ds := smallDataset(t, apps, 6, 15)
	g := NewCandidateGenerator(ds.Runs, rand.New(rand.NewSource(16)))
	c := g.PointPrediction("ALS", apps[0].Spec.MakeData(512))
	for d, k := range sparksim.Knobs {
		if c[d] < k.Min || c[d] > k.Max {
			t.Fatalf("point prediction knob %s out of range: %v", k.Name, c[d])
		}
	}
}

func TestAdaptiveModelUpdateImprovesTargetFit(t *testing.T) {
	apps := []*workload.App{workload.ByName("WordCount"), workload.ByName("Terasort")}
	ds := smallDataset(t, apps, 5, 17)
	cfg := fastConfig()
	rng := rand.New(rand.NewSource(18))
	enc := NewEncoder(ds.Instances, cfg)
	model := NewNECS(enc, cfg, rng)
	source := EncodeAll(enc, ds.Instances)
	model.Fit(source, rng)

	// Target domain: large-data runs on cluster C.
	var target []*Encoded
	var targetRaw []instrument.StageInstance
	for _, app := range apps {
		d := app.Spec.MakeData(app.Sizes.Test)
		for i := 0; i < 4; i++ {
			c := ForceFeasible(sparksim.RandomConfig(rng), sparksim.ClusterC)
			run := instrument.Run(app.Spec, d, sparksim.ClusterC, c)
			targetRaw = append(targetRaw, run.Stages...)
		}
	}
	target = EncodeAll(enc, targetRaw)

	mseBefore := meanSquaredError(model, target)
	amu := DefaultAMUConfig()
	amu.Epochs = 3
	AdaptiveModelUpdate(model, sample(source, 60, rng), target, amu, rng)
	mseAfter := meanSquaredError(model, target)
	if mseAfter >= mseBefore {
		t.Fatalf("AMU did not improve target fit: %v -> %v", mseBefore, mseAfter)
	}
}

// Adaptive Model Update trains the tower and leaves the CNN and GCN
// encoders bit-identical: the domains differ only in the dense features.
func TestAMUFreezesEncoder(t *testing.T) {
	m, data := refFixture(t)
	m.Fit(data, rand.New(rand.NewSource(83)))
	before := m.snapshotParams()
	AdaptiveModelUpdate(m, data[:len(data)/2], data[len(data)/2:], DefaultAMUConfig(), rand.New(rand.NewSource(89)))
	encoders := len(m.Code.Params()) + len(m.DAG.Params()) // Params() lists them first
	towerMoved := false
	for i, p := range m.Params() {
		for j, v := range p.Value.Data {
			if i < encoders && math.Float64bits(v) != math.Float64bits(before[i][j]) {
				t.Fatalf("encoder parameter %s[%d] moved: %v -> %v", p.Name(), j, before[i][j], v)
			}
			towerMoved = towerMoved || (i >= encoders && v != before[i][j])
		}
	}
	if !towerMoved {
		t.Fatal("no tower weight changed")
	}
}

func meanSquaredError(m *NECS, data []*Encoded) float64 {
	var s float64
	for _, x := range data {
		d := m.Predict(x) - x.Y
		s += d * d
	}
	return s / float64(len(data))
}

func sample(data []*Encoded, n int, rng *rand.Rand) []*Encoded {
	if n >= len(data) {
		return data
	}
	out := make([]*Encoded, n)
	perm := rng.Perm(len(data))
	for i := 0; i < n; i++ {
		out[i] = data[perm[i]]
	}
	return out
}

func TestDiscriminatorOutputsProbability(t *testing.T) {
	apps := []*workload.App{workload.ByName("SVM")}
	ds := smallDataset(t, apps, 2, 19)
	cfg := fastConfig()
	cfg.Epochs = 1
	rng := rand.New(rand.NewSource(20))
	enc := NewEncoder(ds.Instances, cfg)
	model := NewNECS(enc, cfg, rng)
	disc := NewDiscriminator(model, DefaultAMUConfig(), rng)
	encoded := EncodeAll(enc, ds.Instances)
	_, hidden := model.forward(new(nn.Arena), encoded[:1])
	p := disc.mlp.Forward(nn.Concat(hidden...)).Scalar()
	if p < 0 || p > 1 {
		t.Fatalf("discriminator output %v not a probability", p)
	}
}

func TestTunerEndToEnd(t *testing.T) {
	apps := []*workload.App{workload.ByName("WordCount"), workload.ByName("PageRank")}
	opts := DefaultTrainOptions()
	opts.NECS = fastConfig()
	opts.Collect.ConfigsPerInstance = 5
	opts.Collect.Clusters = []sparksim.Environment{sparksim.ClusterA, sparksim.ClusterC}
	opts.Collect.Sizes = []int{0, 3}
	tuner, ds := Train(apps, opts)
	if tuner.Model == nil || tuner.ACG == nil {
		t.Fatal("incomplete tuner")
	}
	app := workload.ByName("PageRank")
	data := app.Spec.MakeData(app.Sizes.Test)
	rec := tuner.Recommend(app.Spec, data, sparksim.ClusterC)
	if len(rec.Ranked) != tuner.NumCandidates {
		t.Fatalf("ranked %d candidates, want %d", len(rec.Ranked), tuner.NumCandidates)
	}
	// Candidates must be ranked by predicted time.
	for i := 1; i < len(rec.Ranked); i++ {
		if rec.Ranked[i].Predicted < rec.Ranked[i-1].Predicted {
			t.Fatal("ranking not sorted")
		}
	}
	// The recommendation must beat the default configuration.
	def := sparksim.Simulate(app.Spec, data, sparksim.ClusterC, sparksim.DefaultConfig()).Seconds
	got := sparksim.Simulate(app.Spec, data, sparksim.ClusterC, rec.Config).Seconds
	if got >= def {
		t.Fatalf("recommendation (%v s) no better than default (%v s)", got, def)
	}
	// Overhead must be far under the paper's 2-second budget.
	if rec.Overhead.Seconds() > 2 {
		t.Fatalf("recommendation overhead %v exceeds 2 s", rec.Overhead)
	}
	_ = ds
}

func TestColdStartInstrument(t *testing.T) {
	app := workload.ByName("TriangleCount")
	run, overhead := ColdStartInstrument(app, sparksim.ClusterC)
	if overhead <= 0 {
		t.Fatalf("overhead %v", overhead)
	}
	if len(run.Stages) == 0 {
		t.Fatal("cold-start instrumentation yielded no stages")
	}
	// Cold-start instrumentation runs on the smallest dataset: overhead
	// must be minutes, not hours.
	if overhead > 600 {
		t.Fatalf("cold-start overhead too large: %v s", overhead)
	}
}
