package core

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/rand"

	"lite/internal/nn"
	"lite/internal/tensor"
)

// AMUConfig controls Adaptive Model Update (paper §IV-B).
type AMUConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	// Lambda scales the reversed gradient flowing from the discriminator
	// into NECS (the strength of the domain-confusion pressure).
	Lambda float64
	// DiscHidden is the discriminator MLP hidden width.
	DiscHidden int
}

// DefaultAMUConfig returns the settings used by the experiments.
func DefaultAMUConfig() AMUConfig {
	return AMUConfig{Epochs: 4, BatchSize: 16, LR: 5e-4, Lambda: 0.3, DiscHidden: 32}
}

// Discriminator is the adversarial domain classifier: an MLP over the
// concatenated tower hidden embeddings h_i = f¹(x)‖…‖f^L, ending in a
// sigmoid probability of the instance being from the source domain.
type Discriminator struct {
	mlp *nn.MLP
	// step holds the graph of the update's current minibatch: amuLoss
	// resets it and builds the next step's graph in the same memory.
	step nn.Arena
}

// NewDiscriminator builds the discriminator for a NECS model.
func NewDiscriminator(m *NECS, cfg AMUConfig, rng *rand.Rand) *Discriminator {
	hiddenWidth := 0
	widths := nn.TowerWidths(towerInputWidth(m), m.Cfg.TowerFirst, m.Cfg.TowerMin)
	for _, w := range widths[1 : len(widths)-1] {
		hiddenWidth += w
	}
	d := &Discriminator{mlp: nn.NewMLP([]int{hiddenWidth, cfg.DiscHidden, 1}, rng, "disc")}
	d.mlp.FinalActivation = nn.Sigmoid
	return d
}

func towerInputWidth(m *NECS) int {
	return m.Tower.Layers[0].W.Value.Rows
}

// Forward returns P(source domain | hidden embeddings).
func (d *Discriminator) Forward(hidden []*nn.Node) *nn.Node {
	return d.mlp.Forward(nn.Concat(hidden...))
}

// Params returns the discriminator's trainable parameters.
func (d *Discriminator) Params() []*nn.Node { return d.mlp.Params() }

// AdaptiveModelUpdate fine-tunes NECS on source (small-data training
// instances, DS) plus target (large-data feedback, DT) using the minimax
// objective of Equation 8:
//
//	min_Θ max_Ω  L_p + L_D
//
// implemented with a gradient-reversal layer: one backward pass trains the
// discriminator to separate domains while pushing the tower toward
// domain-invariant hidden representations, and the prediction loss on
// DS ∪ DT keeps the estimator accurate. Returns the final epoch's mean
// prediction loss.
//
// Θ is the tower alone; the CNN and GCN encoders stay frozen. The two
// domains differ in data size and resources, which enter only through the
// dense features the tower reads; a stage's code tokens and DAG, the
// encoders' only inputs, are the same at every size. So an update
// computes once (DESIGN.md §12.8):
//
//   - each distinct stage's h_code ‖ h_DAG, and only when the Encoder's
//     stage-rep table lacks it under these encoder weights (frozenInputs):
//     serving retrains a clone of the last generation, whose CNN and GCN
//     every generation shares, so the fixed source sample is encoded by
//     the first retrain (or by scoring) and read by every later one;
//   - the constant [dense ‖ rep] tower input of every row.
//
// and per minibatch step only the tower-and-discriminator graph (amuLoss),
// its backward pass, the clip and the Adam step. The step's values, nodes
// and gradients live in storage the next step reuses (the
// discriminator's arena and Backward's pooled scratch), so a step
// allocates only its ops' backward closures.
//
// The function mutates m's weights in place, so it panics on a model that
// has scored: serving layers fine-tune a clone and hot-swap (see
// internal/serve).
func AdaptiveModelUpdate(m *NECS, source, target []*Encoded, cfg AMUConfig, rng *rand.Rand) float64 {
	m.mustNotHaveScored("AdaptiveModelUpdate")
	if len(source)+len(target) == 0 {
		return 0
	}
	data := amuSamples(m, source, target)

	disc := NewDiscriminator(m, cfg, rng)
	params := append(m.Tower.Params(), disc.Params()...)
	opt := nn.NewAdam(params, cfg.LR)

	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
		var epochLoss float64
		var count float64
		for start := 0; start < len(data); start += cfg.BatchSize {
			batch := data[start:min(start+cfg.BatchSize, len(data))]
			opt.ZeroGrad()
			loss, lp := amuLoss(m.Tower, disc, batch, cfg.Lambda)
			nn.Backward(loss)
			epochLoss += lp.Scalar() * float64(len(batch))
			for _, s := range batch {
				count += s.x.Weight
			}
			opt.StepScaled(nn.ClipScale(params, 5)) // clip at 5, folded into the step
		}
		if count > 0 {
			lastLoss = epochLoss / count
		}
	}
	return lastLoss
}

// domainSample pairs an encoded instance with its domain label
// (1 = source, 0 = target) and its constant tower input.
type domainSample struct {
	x      *Encoded
	domain float64
	// in is x's [dense ‖ h_code ‖ h_DAG] under the frozen encoders.
	in []float64
}

// amuSamples labels source ∪ target by domain and attaches each instance's
// tower input (frozenInputs).
func amuSamples(m *NECS, source, target []*Encoded) []domainSample {
	xs := append(append(make([]*Encoded, 0, len(source)+len(target)), source...), target...)
	ins := m.frozenInputs(xs)
	data := make([]domainSample, len(xs))
	for i, x := range xs {
		data[i] = domainSample{x: x, in: ins.RowView(i)}
		if i < len(source) {
			data[i].domain = 1
		}
	}
	return data
}

// frozenInputs returns the tower input of every row of xs as one matrix,
// row i = xs[i].Dense ‖ h_code ‖ h_DAG, with each distinct stage's
// encoding read from the Encoder's stage-rep table under m's encoder
// weights. The lookups do not mark m as having scored.
func (m *NECS) frozenInputs(xs []*Encoded) *tensor.Tensor {
	rowStage, stages := stageSlots(xs)
	reps := make([][]float64, len(stages))
	for s, x := range stages {
		reps[s] = m.Encoder.rep(m, x.TokenIDs, x.AHat, x.NodeFeats)
	}
	dw := len(xs[0].Dense)
	in := tensor.New(len(xs), dw+len(reps[0]))
	for i, x := range xs {
		row := in.RowView(i)
		copy(row, x.Dense)
		copy(row[dw:], reps[rowStage[i]])
	}
	return in
}

// fingerprintSeed keys encoderFingerprint; the stage-rep table lives in
// memory only, so one seed per process is enough.
var fingerprintSeed = maphash.MakeSeed()

// encoderFingerprint hashes the IEEE-754 bits of every CNN and GCN weight
// of m, in Params() order.
func encoderFingerprint(m *NECS) uint64 {
	var h maphash.Hash
	h.SetSeed(fingerprintSeed)
	var chunk [1024]byte
	buf := chunk[:0]
	for _, p := range append(m.Code.Params(), m.DAG.Params()...) {
		for _, v := range p.Value.Data {
			if len(buf) == len(chunk) {
				h.Write(buf)
				buf = buf[:0]
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	h.Write(buf)
	return h.Sum64()
}

// amuLoss builds one minibatch's Equation 8 objective as one graph: the
// tower over the batch's constant inputs, the discriminator over the same
// rows behind one gradient reversal of the concatenated hidden layers,
// and both losses weighted wᵢ/|batch|. It returns L_p + L_D, to
// backpropagate, and L_p alone for the epoch-loss bookkeeping.
//
// The graph lives in disc's step arena, which amuLoss resets first: the
// previous call's graph is invalid once it is called again.
func amuLoss(tower *nn.MLP, disc *Discriminator, batch []domainSample, lambda float64) (loss, lp *nn.Node) {
	ar := &disc.step
	ar.Reset()
	in := ar.Alloc(len(batch), len(batch[0].in))
	ys, domains, ws := ar.Floats(len(batch)), ar.Floats(len(batch)), ar.Floats(len(batch))
	for i, s := range batch {
		copy(in.RowView(i), s.in)
		ys[i], domains[i] = s.x.Y, s.domain
		ws[i] = s.x.Weight / float64(len(batch))
	}
	out, hidden := tower.ForwardHidden(ar.Const(in))
	lp = nn.WeightedMSE(out, ys, ws)
	ld := nn.WeightedBCE(disc.mlp.Forward(nn.GradReverse(nn.Concat(hidden...), lambda)), domains, ws)
	return nn.Add(lp, ld), lp
}

// DomainAccuracy measures how well a freshly trained discriminator can
// separate the two domains given the (frozen) NECS hidden representations —
// a diagnostic for how domain-invariant the features are (0.5 ≈
// indistinguishable, the adversarial equilibrium the paper aims for).
// Accuracy is measured on a held-out 30% split so memorization does not
// masquerade as separability.
func DomainAccuracy(m *NECS, source, target []*Encoded, cfg AMUConfig, rng *rand.Rand) float64 {
	disc := NewDiscriminator(m, cfg, rng)
	opt := nn.NewAdam(disc.Params(), 2e-3)
	type sample struct {
		hidden []*nn.Node
		domain float64
	}
	var data []sample
	for _, x := range source {
		_, h := m.Forward(x)
		data = append(data, sample{h, 1})
	}
	for _, x := range target {
		_, h := m.Forward(x)
		data = append(data, sample{h, 0})
	}
	if len(data) < 4 {
		return 0.5
	}
	rng.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	cut := len(data) * 7 / 10
	train, eval := data[:cut], data[cut:]
	for epoch := 0; epoch < 6; epoch++ {
		rng.Shuffle(len(train), func(i, j int) { train[i], train[j] = train[j], train[i] })
		for _, s := range train {
			opt.ZeroGrad()
			nn.Backward(nn.BCELoss(disc.Forward(s.hidden), s.domain))
			opt.Step()
		}
	}
	correct := 0
	for _, s := range eval {
		p := disc.Forward(s.hidden).Scalar()
		if (p >= 0.5) == (s.domain == 1) {
			correct++
		}
	}
	return float64(correct) / float64(len(eval))
}
