// Package core implements the paper's contribution: the NECS performance
// estimator (Neural Estimator via Code and Scheduler representation,
// §III), Adaptive Candidate Generation (§IV-A), Adaptive Model Update via
// adversarial learning (§IV-B), and the LITE online recommender that ties
// them together (§IV).
package core

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"lite/internal/feature"
	"lite/internal/instrument"
	"lite/internal/nn"
	"lite/internal/sparksim"
	"lite/internal/tensor"
)

// NECSConfig sets the model hyperparameters. Defaults are tuned so a full
// training run completes in seconds on the simulator datasets while keeping
// the architecture of Figure 3: token embeddings → CNN banks → max-pool;
// one-hot DAG nodes → GCN → max-pool; concat with o_i, d_i, e_i → tower MLP.
type NECSConfig struct {
	// TokenLen is N, the maximal number of tokens per stage (padded).
	TokenLen int
	// EmbDim is D, the token-embedding width.
	EmbDim int
	// Kernels are the CNN kernel widths; FiltersPerKernel the bank size.
	Kernels          []int
	FiltersPerKernel int
	// CodeDim is the width of the projected code representation h_code.
	CodeDim int
	// GCNHidden are the GCN layer widths after the one-hot input layer.
	GCNHidden []int
	// TowerFirst is the first tower-MLP hidden width; widths halve down to
	// TowerMin, then a single output unit (paper §III-F).
	TowerFirst int
	TowerMin   int

	// Epochs / BatchSize / LR control offline training (Equation 4).
	Epochs    int
	BatchSize int
	LR        float64

	// DisableOOV removes the out-of-vocabulary token from both the code
	// vocabulary and the DAG node vocabulary — the "Cold-UNK" ablation of
	// Table XI. Unseen code tokens are dropped and unseen operations
	// collapse onto an arbitrary known column.
	DisableOOV bool
}

// DefaultNECSConfig returns the configuration used by the experiments.
func DefaultNECSConfig() NECSConfig {
	return NECSConfig{
		TokenLen:         96,
		EmbDim:           16,
		Kernels:          []int{2, 3, 4},
		FiltersPerKernel: 8,
		CodeDim:          16,
		GCNHidden:        []int{32, 16},
		TowerFirst:       64,
		TowerMin:         16,
		Epochs:           8,
		BatchSize:        16,
		LR:               1e-3,
	}
}

// Encoded is a feature-encoded stage instance ready for NECS: the paper's
// six-tuple with C_i as token ids, G_i as (node features, normalized
// adjacency), and o_i/d_i/e_i flattened into Dense.
type Encoded struct {
	AppName    string
	StageIndex int
	TokenIDs   []int
	NodeFeats  *tensor.Tensor
	AHat       *tensor.Tensor
	Dense      []float64
	// Y is the training label in log space: log1p(stage seconds).
	Y float64
	// Weight counts how many raw stage instances this encoded instance
	// represents (iterated stages of one run share identical features, so
	// the dataset builder deduplicates them into one weighted instance).
	Weight float64
}

// LabelOf converts stage seconds to the regression label. Non-finite or
// negative inputs (which a faulty measurement pipeline can produce) are
// coerced to the failure cap so one bad sample cannot inject NaN into the
// training objective; finite non-negative seconds map exactly as before.
func LabelOf(seconds float64) float64 {
	if math.IsNaN(seconds) || math.IsInf(seconds, 0) {
		seconds = sparksim.FailCap
	} else if seconds < 0 {
		seconds = 0
	}
	return math.Log1p(seconds)
}

// SecondsOf inverts LabelOf. A NaN label yields NaN — callers that must be
// NaN-safe (secondsChecked) clamp the result.
func SecondsOf(label float64) float64 { return math.Expm1(label) }

// Encoder caches per-stage encodings (token ids, DAG matrices) so repeated
// instances of the same stage are cheap. Encode is safe for concurrent use:
// the caches are guarded by a mutex, and the cached tensors themselves are
// only ever read after insertion.
type Encoder struct {
	Vocab   *feature.Vocab
	OpVocab *feature.OpVocab
	cfg     NECSConfig

	mu        sync.Mutex
	tokCache  map[string][]int
	dagCache  map[string]*dagEnc
	dagByKey  func(ops []string, edges [][2]int) string
	denseOnly bool

	// reps is the stage-representation table (DESIGN.md §12.6): each
	// stage's h_code ‖ h_DAG under one setting of the CNN and GCN weights
	// (repKey → []float64, see rep). Every model sharing the Encoder reads
	// it — scorers, the serve layer's gate, Adaptive Model Update — and
	// repHits and repMisses count its lookups over the Encoder's lifetime.
	reps               sync.Map
	repHits, repMisses atomic.Uint64

	// saved memoizes the snapshot bytes of the vocabularies and of one
	// setting of the encoder weights (persist.go).
	saved savedEncoder
}

type dagEnc struct {
	nodes *tensor.Tensor
	aHat  *tensor.Tensor
}

// NewEncoder builds an encoder over the training corpus: the vocabulary is
// learned from the training instances' stage codes, the op vocabulary from
// their DAG node labels (paper: S = number of atomic operations in the
// training set, plus the oov token).
func NewEncoder(train []instrument.StageInstance, cfg NECSConfig) *Encoder {
	corpus := make([]string, 0, len(train))
	for i := range train {
		corpus = append(corpus, train[i].Code)
	}
	vocab := feature.BuildVocab(corpus, 1)
	opVocab := feature.BuildOpVocab(train)
	if cfg.DisableOOV {
		vocab.UseOOV = false
		opVocab.UseOOV = false
	}
	return NewEncoderFromVocabs(vocab, opVocab, cfg)
}

// stageStatic returns the cached candidate-invariant encoding of a stage
// — its token ids and DAG matrices — computing and memoizing them on
// first sight. Safe for concurrent use; the returned slices and tensors
// are only ever read after insertion.
func (e *Encoder) stageStatic(code string, ops []string, edges [][2]int) ([]int, *dagEnc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	toks, ok := e.tokCache[code]
	if !ok {
		toks = e.Vocab.Encode(code, e.cfg.TokenLen)
		e.tokCache[code] = toks
	}
	key := e.dagByKey(ops, edges)
	dag, ok := e.dagCache[key]
	if !ok {
		dag = &dagEnc{
			nodes: e.OpVocab.NodeFeatures(ops),
			aHat:  nn.NormalizeAdjacency(len(ops), edges),
		}
		e.dagCache[key] = dag
	}
	return toks, dag
}

// Encode converts a stage instance into model input. It is safe to call
// from concurrent goroutines (the serving hot path encodes while a
// background update loop encodes feedback against the same encoder).
func (e *Encoder) Encode(inst *instrument.StageInstance) *Encoded {
	toks, dag := e.stageStatic(inst.Code, inst.Ops, inst.Edges)
	return &Encoded{
		AppName:    inst.AppName,
		StageIndex: inst.StageIndex,
		TokenIDs:   toks,
		NodeFeats:  dag.nodes,
		AHat:       dag.aHat,
		Dense:      feature.DenseFeatures(inst),
		Y:          LabelOf(inst.Seconds),
		Weight:     1,
	}
}

// NECS is the neural estimator of Figure 3. Prediction methods (Predict,
// PredictApp, NewAppScorer) only read the weights and are safe for
// concurrent use with each other. Fit and AdaptiveModelUpdate write the
// weights in place, so they run only on a model that has never scored:
// train a fresh NewNECS or Clone, then publish it (see internal/serve).
type NECS struct {
	Cfg     NECSConfig
	Encoder *Encoder

	Code  *nn.CNNEncoder
	DAG   *nn.GCNEncoder
	Tower *nn.MLP

	// fp is encoderFingerprint of the CNN and GCN weights, the setting
	// under which the model reads the Encoder's stage-rep table. It is
	// computed when the model is built, loaded or fitted and copied by
	// Clone; a direct writer of those weights calls RefreshFingerprint.
	fp uint64
	// scored is set by the model's first stage-rep read: a model that has
	// scored is never trained (mustNotHaveScored).
	scored atomic.Bool
	// step holds the graph of Fit's current minibatch: batchLoss resets it
	// and builds the next step's graph in the same memory. Fit drops it
	// when it returns.
	step nn.Arena
}

// repKey identifies a stage's h_code ‖ h_DAG in the Encoder's table: the
// stage by the addresses the encoder memoized for it (stageKey), the
// weights by their fingerprint.
type repKey struct {
	stageKey
	fp uint64
}

// rep returns h_code ‖ h_DAG for one stage under m's encoder weights: the
// CNN and GCN forward passes depend only on the stage and those weights,
// so they run once per (stage, setting) and every later reader — any model
// of the same setting — shares the result. The returned slice is shared
// and read-only. Lookups are lock-free; safe for concurrent use.
func (e *Encoder) rep(m *NECS, toks []int, aHat, nodes *tensor.Tensor) []float64 {
	key := repKey{stageKey{aHat: aHat, nodes: nodes}, m.fp}
	if len(toks) > 0 {
		key.toks = &toks[0]
	}
	if rep, ok := e.reps.Load(key); ok {
		e.repHits.Add(1)
		return rep.([]float64)
	}
	e.repMisses.Add(1)
	hCode := m.Code.Infer(toks)
	hDAG := m.DAG.Infer(aHat, nodes)
	rep := make([]float64, 0, hCode.Cols+hDAG.Cols)
	rep = append(rep, hCode.Data...)
	rep = append(rep, hDAG.Data...)
	// A concurrent miss on the same stage may have published first; every
	// caller then shares that one slice.
	won, _ := e.reps.LoadOrStore(key, rep)
	return won.([]float64)
}

// stageRep is rep on the scoring path: it marks the model as having
// scored.
func (m *NECS) stageRep(toks []int, dag *dagEnc) []float64 {
	if !m.scored.Load() {
		m.scored.Store(true)
	}
	return m.Encoder.rep(m, toks, dag.aHat, dag.nodes)
}

// mustNotHaveScored is the model-lifetime rule: a model that has scored
// is never trained. A published model is read concurrently (m.fp above
// all), so a trainer handed one panics instead of racing its readers.
func (m *NECS) mustNotHaveScored(trainer string) {
	if m.scored.Load() {
		panic("core: " + trainer + " on a model that has already scored; train a Clone, then publish it")
	}
}

// RefreshFingerprint records that the CNN or GCN weights were written
// through Params() directly, so the model reads the stage-rep table under
// its new setting. It panics on a model that has scored, like a trainer.
func (m *NECS) RefreshFingerprint() {
	m.mustNotHaveScored("RefreshFingerprint")
	m.fp = encoderFingerprint(m)
}

// StageRepEntries reports how many stage representations the Encoder's
// table holds under this model's encoder weights.
func (m *NECS) StageRepEntries() int {
	n := 0
	m.Encoder.reps.Range(func(k, _ any) bool {
		if k.(repKey).fp == m.fp {
			n++
		}
		return true
	})
	return n
}

// StageRepStats reports how many lookups of the Encoder's stage-rep table,
// by every model sharing it over its lifetime, were served from the table
// and how many ran the CNN and GCN forward.
func (m *NECS) StageRepStats() (hits, misses uint64) {
	return m.Encoder.repHits.Load(), m.Encoder.repMisses.Load()
}

// NewNECS constructs the model for the given encoder.
func NewNECS(enc *Encoder, cfg NECSConfig, rng *rand.Rand) *NECS {
	gcnWidths := append([]int{enc.OpVocab.Width()}, cfg.GCNHidden...)
	towerIn := feature.DenseWidth + cfg.CodeDim + cfg.GCNHidden[len(cfg.GCNHidden)-1]
	m := &NECS{
		Cfg:     cfg,
		Encoder: enc,
		Code:    nn.NewCNNEncoder(enc.Vocab.Size(), cfg.EmbDim, cfg.Kernels, cfg.FiltersPerKernel, cfg.CodeDim, rng),
		DAG:     nn.NewGCNEncoder(gcnWidths, rng),
		Tower:   nn.NewMLP(nn.TowerWidths(towerIn, cfg.TowerFirst, cfg.TowerMin), rng, "tower"),
	}
	m.fp = encoderFingerprint(m)
	return m
}

// Clone returns a deep copy of the model that shares the encoder and its
// stage-rep table: copied weights, the same fingerprint, not yet scored.
// It is the model a trainer may fine-tune without disturbing the original.
func (m *NECS) Clone() *NECS {
	return &NECS{
		Cfg:     m.Cfg,
		Encoder: m.Encoder,
		Code:    m.Code.Clone(),
		DAG:     m.DAG.Clone(),
		Tower:   m.Tower.Clone(),
		fp:      m.fp,
	}
}

// Params returns all trainable parameters.
func (m *NECS) Params() []*nn.Node {
	ps := m.Code.Params()
	ps = append(ps, m.DAG.Params()...)
	ps = append(ps, m.Tower.Params()...)
	return ps
}

// Forward runs NECS over a minibatch as one autograd graph and returns the
// m×1 prediction node plus the tower's hidden activations (used by Adaptive
// Model Update's discriminator); row i of each is xs[i]. Instances of the
// same stage share the encoder's memoized token ids and DAG matrices, so
// each distinct stage's CNN and GCN run once and their h_code ‖ h_DAG is
// gathered to every row of that stage, whose backward pass scatter-adds
// the rows' gradients before the encoders see them. The tower then runs
// over all rows as one GEMM per layer (DESIGN.md §12.8). The graph lives
// on the heap; Fit builds the same graph in its step arena (forward).
func (m *NECS) Forward(xs ...*Encoded) (*nn.Node, []*nn.Node) {
	return m.forward(nil, xs)
}

// forward is Forward with the graph held in ar when it is set: the
// constants (A-hat, node features, the dense block) are wrapped by
// ar.Const, so every op's value, node and parent list comes from ar, and
// the graph is invalid after ar's next Reset.
func (m *NECS) forward(ar *nn.Arena, xs []*Encoded) (*nn.Node, []*nn.Node) {
	cnst := nn.NewConst
	if ar != nil {
		cnst = ar.Const
	}
	rowStage, stages := stageSlots(xs)
	reps := make([]*nn.Node, len(stages))
	for s, x := range stages {
		hCode := m.Code.ForwardIn(ar, x.TokenIDs)
		hDAG := m.DAG.Forward(cnst(x.AHat), cnst(x.NodeFeats))
		reps[s] = nn.Concat(hCode, hDAG)
	}
	var dense *tensor.Tensor
	if ar != nil {
		dense = ar.Alloc(len(xs), len(xs[0].Dense))
	} else {
		dense = tensor.New(len(xs), len(xs[0].Dense))
	}
	for i, x := range xs {
		copy(dense.RowView(i), x.Dense)
	}
	in := nn.Concat(cnst(dense), nn.GatherRows(nn.StackRows(reps), rowStage))
	return m.Tower.ForwardHidden(in)
}

// stageSlots numbers the distinct stages of xs in order of first
// appearance: rowStage[i] is xs[i]'s slot and stages[s] the first row of
// slot s. Rows are one stage when they share the encoder's memoized token
// ids and DAG matrices (Encoder.stageStatic), so their h_code ‖ h_DAG is
// one computation.
func stageSlots(xs []*Encoded) (rowStage []int, stages []*Encoded) {
	slot := make(map[stageKey]int, len(xs))
	rowStage = make([]int, len(xs))
	for i, x := range xs {
		k := keyOf(x)
		s, ok := slot[k]
		if !ok {
			s = len(stages)
			slot[k] = s
			stages = append(stages, x)
		}
		rowStage[i] = s
	}
	return rowStage, stages
}

// stageKey identifies an encoded instance's stage by the addresses of the
// token ids and DAG matrices the encoder memoized for it.
type stageKey struct {
	toks        *int
	aHat, nodes *tensor.Tensor
}

func keyOf(x *Encoded) stageKey {
	k := stageKey{aHat: x.AHat, nodes: x.NodeFeats}
	if len(x.TokenIDs) > 0 {
		k.toks = &x.TokenIDs[0]
	}
	return k
}

// Predict returns the predicted stage label (log space).
func (m *NECS) Predict(x *Encoded) float64 {
	out, _ := m.Forward(x)
	return out.Scalar()
}

// maxPredictSeconds caps what the regressor may claim: far beyond any real
// execution time, but finite, so downstream ranking arithmetic (sums,
// sorts, ETR) never sees ±Inf or NaN.
const maxPredictSeconds = 1e12

// secondsChecked converts a raw log-space prediction into clamped seconds,
// within [0, maxPredictSeconds], plus a finiteness report: ok is false when
// the raw prediction was NaN or ±Inf. A NaN maps to the upper clamp, so an
// un-rankable candidate ranks worst instead of poisoning every comparison;
// guards that must tell "worst-ranked" from "cannot rank at all" (the
// serve layer's hot-swap validation gate) check ok. It is the single
// conversion of the batched inference kernel (batch.go) and of its
// autograd golden reference, so the two cannot drift.
func secondsChecked(raw float64) (float64, bool) {
	s := SecondsOf(raw)
	ok := !math.IsNaN(raw) && !math.IsInf(raw, 0) && !math.IsNaN(s) && !math.IsInf(s, 0)
	switch {
	case math.IsNaN(s):
		return maxPredictSeconds, ok
	case s < 0:
		return 0, ok
	case s > maxPredictSeconds:
		return maxPredictSeconds, ok
	}
	return s, ok
}

// snapshotParams copies every parameter tensor (rollback support).
func (m *NECS) snapshotParams() [][]float64 {
	ps := m.Params()
	out := make([][]float64, len(ps))
	for i, p := range ps {
		out[i] = append([]float64(nil), p.Value.Data...)
	}
	return out
}

// restoreParams writes a snapshot back into the model.
func (m *NECS) restoreParams(snap [][]float64) {
	for i, p := range m.Params() {
		copy(p.Value.Data, snap[i])
	}
	m.fp = encoderFingerprint(m)
}

// paramsFinite reports whether every weight is a finite number.
func (m *NECS) paramsFinite() bool {
	for _, p := range m.Params() {
		for _, v := range p.Value.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// gradsFinite reports whether every accumulated gradient is finite.
func gradsFinite(params []*nn.Node) bool {
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		for _, g := range p.Grad.Data {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				return false
			}
		}
	}
	return true
}

// Fit trains the model with Adam on the weighted squared error of
// Equation 4. It reports the mean training loss of the final epoch.
//
// Each minibatch is one graph (Forward over the whole batch, one
// row-loss op) and one backward pass, so every distinct stage in the batch
// is encoded once however many instances share it (DESIGN.md §12.8). The
// graph lives in a step arena that the next minibatch reuses.
//
// The epochs' shuffles are Fit's only use of rng, and it draws all of
// them before the first step (epochOrders), so TrainOn can hand rng on
// while the steps still run.
//
// Training is poisoning-resistant: a batch whose loss or gradients are
// non-finite (a NaN label, a diverged forward pass) is skipped whole —
// no step, and none of its rows counts toward the epoch loss — and the
// weights roll back to the best finite epoch snapshot whenever an epoch
// ends non-finite, so a single poisoned sample can never destroy the
// model. Fit must not be called concurrently with anything that reads or
// writes this model's weights, and panics on a model that has scored.
func (m *NECS) Fit(data []*Encoded, rng *rand.Rand) float64 {
	return m.fit(data, epochOrders(len(data), m.Cfg.Epochs, rng))
}

// epochOrders draws the row order of each of epochs passes over n rows:
// order e is order e−1 (the identity before the first) shuffled once by
// rng, the sequence of draws Fit has always made.
func epochOrders(n, epochs int, rng *rand.Rand) [][]int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	orders := make([][]int, epochs)
	for e := range orders {
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		orders[e] = append([]int(nil), idx...)
	}
	return orders
}

// fit is Fit over drawn epoch orders.
func (m *NECS) fit(data []*Encoded, orders [][]int) float64 {
	m.mustNotHaveScored("NECS.Fit")
	params := m.Params()
	opt := nn.NewAdam(params, m.Cfg.LR)
	batch := make([]*Encoded, 0, m.Cfg.BatchSize)
	var lastLoss float64
	bestLoss := math.Inf(1)
	var bestSnap [][]float64
	for epoch, idx := range orders {
		// Step learning-rate decay: ÷2 at 60% and 85% of the schedule.
		switch {
		case epoch == m.Cfg.Epochs*85/100:
			opt.LR = m.Cfg.LR / 4
		case epoch == m.Cfg.Epochs*60/100:
			opt.LR = m.Cfg.LR / 2
		}
		var epochLoss, epochWeight float64
		for start := 0; start < len(idx); start += m.Cfg.BatchSize {
			batch = batch[:0]
			for _, i := range idx[start:min(start+m.Cfg.BatchSize, len(idx))] {
				batch = append(batch, data[i])
			}
			opt.ZeroGrad()
			loss, batchWeight := m.batchLoss(batch)
			if loss == nil {
				continue // the batch weighs nothing
			}
			lv := loss.Scalar()
			if math.IsNaN(lv) || math.IsInf(lv, 0) {
				continue // poisoned batch: no step, keep the weights
			}
			epochLoss += lv * batchWeight
			epochWeight += batchWeight
			nn.Backward(loss)
			if !gradsFinite(params) {
				opt.ZeroGrad()
				continue
			}
			opt.StepScaled(nn.ClipScale(params, 5)) // clip at 5, folded into the step
		}
		if epochWeight > 0 {
			lastLoss = epochLoss / epochWeight
		}
		finite := !math.IsNaN(lastLoss) && !math.IsInf(lastLoss, 0) && m.paramsFinite()
		if finite && lastLoss < bestLoss {
			bestLoss = lastLoss
			bestSnap = m.snapshotParams()
		} else if !finite && bestSnap != nil {
			// The epoch diverged anyway (e.g. weights went non-finite
			// between checks): roll back to the best known state.
			m.restoreParams(bestSnap)
			lastLoss = bestLoss
		}
	}
	if !m.paramsFinite() && bestSnap != nil {
		m.restoreParams(bestSnap)
		lastLoss = bestLoss
	}
	m.step = nn.Arena{}
	m.fp = encoderFingerprint(m)
	return lastLoss
}

// batchLoss builds one minibatch's Equation 4 objective,
// Σᵢ (wᵢ/W)·(ŷᵢ − yᵢ)² with W = Σᵢ wᵢ over the instance weights,
// and returns it with W. The loss is nil when W ≤ 0.
//
// The graph lives in m's step arena, which batchLoss resets first: the
// previous call's graph is invalid once it is called again.
func (m *NECS) batchLoss(batch []*Encoded) (*nn.Node, float64) {
	ar := &m.step
	ar.Reset()
	ys, ws := ar.Floats(len(batch)), ar.Floats(len(batch))
	var total float64
	for i, x := range batch {
		ys[i], ws[i] = x.Y, x.Weight
		total += ws[i]
	}
	if total <= 0 {
		return nil, 0
	}
	for i := range ws {
		ws[i] /= total
	}
	out, _ := m.forward(ar, batch)
	return nn.WeightedMSE(out, ys, ws), total
}

// PredictApp estimates the total execution time (seconds) of an application
// under cfg on the given data and environment by summing stage-level
// predictions over the expanded stage plan (Equation 5's aggregation).
// Safe for concurrent use while no goroutine mutates the weights; callers
// scoring many configurations for one (app, data, env) should build one
// NewAppScorer and share it instead.
func (m *NECS) PredictApp(app *sparksim.AppSpec, data sparksim.DataSpec, env sparksim.Environment, cfg sparksim.Config) float64 {
	return m.NewAppScorer(app, data, env).Score(cfg)
}
