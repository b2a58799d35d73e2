package experiments

import (
	"math"
	"math/rand"

	"lite/internal/core"
	"lite/internal/feature"
	"lite/internal/gbm"
	"lite/internal/instrument"
	"lite/internal/nn"
	"lite/internal/workload"
)

// Ranker scores candidate configurations of a gold case; lower score means
// faster predicted execution. Every Table VII method implements it.
type Ranker interface {
	Name() string
	Fit(ds *core.Dataset, rng *rand.Rand)
	Scores(gc *GoldCase) []float64
}

// ---------------------------------------------------------------------------
// Flat rankers: {LightGBM, MLP} × {W, S, WC, SC, SCG}
// ---------------------------------------------------------------------------

// FlatModel abstracts the regressor behind a flat ranker.
type FlatModel interface {
	Fit(x [][]float64, y []float64, rng *rand.Rand)
	Predict(row []float64) float64
}

// GBMModel adapts internal/gbm.
type GBMModel struct {
	m *gbm.Model
	p gbm.Params
}

// NewGBMModel returns a LightGBM-style regressor with default parameters.
func NewGBMModel() *GBMModel { return &GBMModel{p: gbm.DefaultParams()} }

// Fit trains the boosted ensemble.
func (g *GBMModel) Fit(x [][]float64, y []float64, rng *rand.Rand) {
	g.m = gbm.Fit(x, y, g.p, rng)
}

// Predict scores one row.
func (g *GBMModel) Predict(row []float64) float64 { return g.m.Predict(row) }

// MLPModel is a flat MLP regressor trained with Adam.
type MLPModel struct {
	Hidden []int
	Epochs int
	LR     float64
	mlp    *nn.MLP
	// step holds the graph of the current minibatch or prediction.
	step nn.Arena
}

// NewMLPModel returns the Table VII MLP baseline regressor.
func NewMLPModel() *MLPModel {
	return &MLPModel{Hidden: []int{64, 32}, Epochs: 6, LR: 2e-3}
}

// Fit trains the MLP on flat rows.
func (m *MLPModel) Fit(x [][]float64, y []float64, rng *rand.Rand) {
	widths := append(append([]int{len(x[0])}, m.Hidden...), 1)
	m.mlp = nn.NewMLP(widths, rng, "flat")
	opt := nn.NewAdam(m.mlp.Params(), m.LR)
	idx := rng.Perm(len(x))
	const batch = 16
	for epoch := 0; epoch < m.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for s := 0; s < len(idx); s += batch {
			e := s + batch
			if e > len(idx) {
				e = len(idx)
			}
			opt.ZeroGrad()
			m.step.Reset()
			for _, i := range idx[s:e] {
				loss := nn.Scale(nn.MSELoss(m.mlp.Forward(m.step.ConstRow(x[i])), y[i]), 1/float64(e-s))
				nn.Backward(loss)
			}
			opt.StepScaled(nn.ClipScale(m.mlp.Params(), 5))
		}
	}
}

// Predict scores one row.
func (m *MLPModel) Predict(row []float64) float64 {
	m.step.Reset()
	return m.mlp.Forward(m.step.ConstRow(row)).Scalar()
}

// FlatRanker pairs a featurizer mode with a regressor.
type FlatRanker struct {
	ModelName string
	Mode      FlatMode
	Model     FlatModel
	// MaxTrainRows caps the stage-level training set (uniform subsample);
	// raw stage instances number in the tens of thousands and the flat
	// regressors converge long before that. 0 means no cap.
	MaxTrainRows int
	apps         []*workload.App
	feat         *Featurizer
	mainCode     map[string]string
}

// NewFlatRanker builds one Table VII row, e.g. ("LightGBM", ModeSC).
func NewFlatRanker(modelName string, mode FlatMode, model FlatModel, apps []*workload.App) *FlatRanker {
	mc := map[string]string{}
	for _, a := range apps {
		mc[a.Spec.Name] = a.Spec.MainCode
	}
	return &FlatRanker{ModelName: modelName, Mode: mode, Model: model, MaxTrainRows: 5000, apps: apps, mainCode: mc}
}

// Name returns "Model+Mode" as in Table VII rows.
func (r *FlatRanker) Name() string { return r.ModelName + "+" + r.Mode.String() }

// Fit trains the regressor on the offline dataset at the mode's granularity.
func (r *FlatRanker) Fit(ds *core.Dataset, rng *rand.Rand) {
	r.feat = NewFeaturizer(r.Mode, r.apps, ds.Instances)
	var x [][]float64
	var y []float64
	if r.Mode.StageLevel() {
		idx := rng.Perm(len(ds.Instances))
		if r.MaxTrainRows > 0 && len(idx) > r.MaxTrainRows {
			idx = idx[:r.MaxTrainRows]
		}
		for _, i := range idx {
			st := &ds.Instances[i]
			x = append(x, r.feat.StageRow(st))
			y = append(y, core.LabelOf(st.Seconds))
		}
	} else {
		for i := range ds.Runs {
			run := &ds.Runs[i]
			x = append(x, r.feat.AppRow(run, r.mainCode[run.AppName]))
			y = append(y, core.LabelOf(run.Result.Seconds))
		}
	}
	r.Model.Fit(x, y, rng)
}

// Scores predicts per candidate: app-level modes score the run directly;
// stage-level modes sum stage predictions over the run's actual stages
// (using the monitor-UI statistics, as the paper's S/SC baselines do).
func (r *FlatRanker) Scores(gc *GoldCase) []float64 {
	out := make([]float64, len(gc.Configs))
	for i := range gc.Configs {
		run := &gc.Runs[i]
		if r.Mode.StageLevel() {
			var total float64
			for j := range run.Stages {
				total += clampNonNeg(core.SecondsOf(r.Model.Predict(r.feat.StageRow(&run.Stages[j]))))
			}
			out[i] = total
		} else {
			out[i] = core.SecondsOf(r.Model.Predict(r.feat.AppRow(run, r.mainCode[run.AppName])))
		}
	}
	return out
}

func clampNonNeg(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}

// ---------------------------------------------------------------------------
// Neural rankers: NECS and its encoder ablations (LSTM, Transformer, GCN)
// ---------------------------------------------------------------------------

// NeuralVariant selects the code encoder of a neural ranker.
type NeuralVariant int

// Table VII neural rows.
const (
	// VariantNECS is the full model: CNN code encoder + GCN DAG encoder.
	VariantNECS NeuralVariant = iota
	// VariantLSTM swaps the CNN for an LSTM over the stage tokens.
	VariantLSTM
	// VariantTransformer swaps the CNN for a Transformer encoder.
	VariantTransformer
	// VariantGCN drops the code encoder entirely (DAG + dense only).
	VariantGCN
)

// String names the variant as in Table VII.
func (v NeuralVariant) String() string {
	switch v {
	case VariantNECS:
		return "NECS"
	case VariantLSTM:
		return "LSTM"
	case VariantTransformer:
		return "Transformer"
	case VariantGCN:
		return "GCN"
	}
	return "?"
}

// NeuralRanker wraps core.NECS (for VariantNECS) or an ablated architecture
// sharing the same encoder, GCN and tower shape.
type NeuralRanker struct {
	Variant NeuralVariant
	Cfg     core.NECSConfig
	// SeqLen truncates token sequences for the sequence-model variants
	// (full N is needlessly slow for LSTM/Transformer on CPU).
	SeqLen int

	necs *core.NECS // VariantNECS

	// Ablation pieces (other variants).
	enc   *core.Encoder
	lstm  *nn.LSTMEncoder
	tfm   *nn.TransformerEncoder
	gcn   *nn.GCNEncoder
	tower *nn.MLP
	// step holds the graph of the current minibatch or stage score.
	step nn.Arena
}

// NewNeuralRanker builds a ranker of the given variant.
func NewNeuralRanker(variant NeuralVariant, cfg core.NECSConfig) *NeuralRanker {
	return &NeuralRanker{Variant: variant, Cfg: cfg, SeqLen: 48}
}

// Name names the ranker.
func (r *NeuralRanker) Name() string { return r.Variant.String() }

// Fit trains the model on the deduplicated encoded instances.
func (r *NeuralRanker) Fit(ds *core.Dataset, rng *rand.Rand) {
	if r.Variant == VariantNECS {
		enc := core.NewEncoder(ds.Instances, r.Cfg)
		r.necs = core.NewNECS(enc, r.Cfg, rng)
		r.necs.Fit(core.EncodeAll(enc, ds.Instances), rng)
		return
	}
	// Sequence encoders cost several times a CNN step on CPU; they get
	// half the epochs (they plateau earlier on this data anyway).
	if r.Variant == VariantLSTM || r.Variant == VariantTransformer {
		if r.Cfg.Epochs > 4 {
			r.Cfg.Epochs = r.Cfg.Epochs / 2
		}
	}
	r.enc = core.NewEncoder(ds.Instances, r.Cfg)
	gcnWidths := append([]int{r.enc.OpVocab.Width()}, r.Cfg.GCNHidden...)
	r.gcn = nn.NewGCNEncoder(gcnWidths, rng)
	codeDim := r.Cfg.CodeDim
	switch r.Variant {
	case VariantLSTM:
		r.lstm = nn.NewLSTMEncoder(r.enc.Vocab.Size(), r.Cfg.EmbDim, codeDim, r.SeqLen, rng)
	case VariantTransformer:
		r.tfm = nn.NewTransformerEncoder(r.enc.Vocab.Size(), codeDim, 2, 2*codeDim, r.SeqLen, rng)
	case VariantGCN:
		codeDim = 0
	}
	towerIn := feature.DenseWidth + codeDim + r.Cfg.GCNHidden[len(r.Cfg.GCNHidden)-1]
	r.tower = nn.NewMLP(nn.TowerWidths(towerIn, r.Cfg.TowerFirst, r.Cfg.TowerMin), rng, "tower")

	data := core.EncodeAll(r.enc, ds.Instances)
	opt := nn.NewAdam(r.params(), r.Cfg.LR)
	idx := rng.Perm(len(data))
	for epoch := 0; epoch < r.Cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for s := 0; s < len(idx); s += r.Cfg.BatchSize {
			e := s + r.Cfg.BatchSize
			if e > len(idx) {
				e = len(idx)
			}
			opt.ZeroGrad()
			r.step.Reset()
			var bw float64
			for _, i := range idx[s:e] {
				bw += data[i].Weight
			}
			for _, i := range idx[s:e] {
				x := data[i]
				loss := nn.Scale(nn.MSELoss(r.forward(x), x.Y), x.Weight/bw)
				nn.Backward(loss)
			}
			opt.StepScaled(nn.ClipScale(r.params(), 5))
		}
	}
}

func (r *NeuralRanker) params() []*nn.Node {
	var ps []*nn.Node
	switch r.Variant {
	case VariantLSTM:
		ps = append(ps, r.lstm.Params()...)
	case VariantTransformer:
		ps = append(ps, r.tfm.Params()...)
	}
	ps = append(ps, r.gcn.Params()...)
	ps = append(ps, r.tower.Params()...)
	return ps
}

// forward builds x's prediction graph in r's step arena, which the caller
// resets.
func (r *NeuralRanker) forward(x *core.Encoded) *nn.Node {
	ar := &r.step
	parts := []*nn.Node{ar.ConstRow(x.Dense)}
	switch r.Variant {
	case VariantLSTM:
		parts = append(parts, r.lstm.Forward(ar, x.TokenIDs))
	case VariantTransformer:
		parts = append(parts, r.tfm.Forward(ar, x.TokenIDs))
	}
	parts = append(parts, r.gcn.Forward(ar.Const(x.AHat), ar.Const(x.NodeFeats)))
	return r.tower.Forward(nn.Concat(parts...))
}

// Scores aggregates stage-level predictions over each candidate.
func (r *NeuralRanker) Scores(gc *GoldCase) []float64 {
	out := make([]float64, len(gc.Configs))
	for i, cfg := range gc.Configs {
		if r.Variant == VariantNECS {
			out[i] = r.necs.PredictApp(gc.App.Spec, gc.Data, gc.Env, cfg)
			continue
		}
		plan := gc.App.Spec.ExpandedStages(gc.Data)
		perStage := map[int]float64{}
		var total float64
		for _, si := range plan {
			sec, ok := perStage[si]
			if !ok {
				st := &gc.App.Spec.Stages[si]
				inst := instrument.StageInstance{
					AppName: gc.App.Spec.Name, AppFamily: gc.App.Spec.Family,
					StageIndex: si, StageName: st.Name,
					Code: st.Code, Ops: st.Ops, Edges: st.Edges,
					Config: cfg, Data: gc.Data, Env: gc.Env,
				}
				r.step.Reset()
				sec = clampNonNeg(core.SecondsOf(r.forward(r.enc.Encode(&inst)).Scalar()))
				perStage[si] = sec
			}
			total += sec
		}
		out[i] = total
	}
	return out
}

// NECS exposes the trained model (nil for non-NECS variants).
func (r *NeuralRanker) NECS() *core.NECS { return r.necs }
