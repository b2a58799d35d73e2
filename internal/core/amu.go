package core

import (
	"math/rand"

	"lite/internal/nn"
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
	// Workers selects data-parallel fine-tuning, exactly like
	// NECSConfig.FitWorkers: 0 keeps the historical serial loop, 1 routes
	// through the parallel engine bit-identically, K > 1 shards each
	// K-batch group across K (model, discriminator) replicas and steps on
	// averaged gradients — statistically equivalent, not bit-identical.
	Workers int
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
// discriminator to separate domains while pushing NECS toward
// domain-invariant hidden representations, and the prediction loss on
// DS ∪ DT keeps the estimator accurate. Returns the final epoch's mean
// prediction loss.
//
// cfg.Workers >= 1 runs the mini-batch loop data-parallel across replica
// (model, discriminator) pairs with averaged gradients (Workers = 1 is
// bit-identical to serial). The function mutates m's weights in place and
// must not run concurrently with readers of the same model — serving
// layers fine-tune a clone and hot-swap (see internal/serve).
func AdaptiveModelUpdate(m *NECS, source, target []*Encoded, cfg AMUConfig, rng *rand.Rand) float64 {
	m.ResetStageReps()
	defer m.ResetStageReps()
	data := make([]domainSample, 0, len(source)+len(target))
	for _, x := range source {
		data = append(data, domainSample{x, 1})
	}
	for _, x := range target {
		data = append(data, domainSample{x, 0})
	}
	if len(data) == 0 {
		return 0
	}

	disc := NewDiscriminator(m, cfg, rng)
	if cfg.Workers >= 1 {
		return amuDataParallel(m, disc, data, cfg, rng)
	}
	params := append(m.Params(), disc.Params()...)
	opt := nn.NewAdam(params, cfg.LR)

	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
		var epochLoss float64
		var count float64
		for start := 0; start < len(data); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(data) {
				end = len(data)
			}
			opt.ZeroGrad()
			for _, s := range data[start:end] {
				lv, w := amuSampleStep(m, disc, s, cfg, end-start)
				epochLoss += lv * w
				count += w
			}
			nn.ClipGrads(params, 5)
			opt.Step()
		}
		if count > 0 {
			lastLoss = epochLoss / count
		}
	}
	return lastLoss
}

// domainSample pairs an encoded instance with its domain label
// (1 = source, 0 = target).
type domainSample struct {
	x      *Encoded
	domain float64
}

// amuSampleStep runs one instance's forward/backward of the minimax
// objective against the given model and discriminator, accumulating
// gradients in place. It returns the prediction-loss value and the
// instance weight for the epoch-loss bookkeeping.
func amuSampleStep(m *NECS, disc *Discriminator, s domainSample, cfg AMUConfig, batchLen int) (lv, w float64) {
	out, hidden := m.Forward(s.x)
	// L_p: prediction loss on both domains.
	lp := nn.MSELoss(out, s.x.Y)
	// L_D: discriminator BCE over reversed hidden features.
	rev := make([]*nn.Node, len(hidden))
	for i, h := range hidden {
		rev[i] = nn.GradReverse(h, cfg.Lambda)
	}
	ld := nn.BCELoss(disc.Forward(rev), s.domain)
	loss := nn.Scale(nn.Add(lp, ld), s.x.Weight/float64(batchLen))
	nn.Backward(loss)
	return lp.Scalar(), s.x.Weight
}

// amuDataParallel is the Workers >= 1 fine-tuning path: the same batch
// schedule as the serial loop, with each K-batch group sharded across K
// replica (model, discriminator) pairs and the averaged gradients applied
// to the primary pair. Mirrors fitDataParallel's structure; AMU has no
// NaN-batch skip in the serial loop, so every shard contributes.
func amuDataParallel(m *NECS, disc *Discriminator, data []domainSample, cfg AMUConfig, rng *rand.Rand) float64 {
	k := cfg.Workers
	params := append(m.Params(), disc.Params()...)
	opt := nn.NewAdam(params, cfg.LR)

	type replica struct {
		m      *NECS
		disc   *Discriminator
		params []*nn.Node
	}
	replicas := make([]replica, k)
	replicaParams := make([][]*nn.Node, k)
	replicas[0] = replica{m: m, disc: disc, params: params}
	replicaParams[0] = params
	for r := 1; r < k; r++ {
		rm := m.Clone()
		rd := NewDiscriminator(rm, cfg, rand.New(rand.NewSource(0)))
		replicas[r] = replica{m: rm, disc: rd, params: append(rm.Params(), rd.Params()...)}
		replicaParams[r] = replicas[r].params
	}

	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
		var batches [][]domainSample
		for start := 0; start < len(data); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(data) {
				end = len(data)
			}
			batches = append(batches, data[start:end])
		}
		var epochLoss, count float64
		for g := 0; g < len(batches); g += k {
			group := batches[g:min(g+k, len(batches))]
			for r := 1; r < len(group); r++ {
				syncParams(replicaParams[r], params)
			}
			results := make([][]instLoss, len(group))
			ParallelDo(len(group), func(r int) {
				rep := replicas[r]
				nn.ZeroGrads(rep.params)
				recs := make([]instLoss, 0, len(group[r]))
				for _, s := range group[r] {
					lv, w := amuSampleStep(rep.m, rep.disc, s, cfg, len(group[r]))
					recs = append(recs, instLoss{dl: lv * w, w: w})
				}
				results[r] = recs
			})
			contrib := make([]int, len(group))
			for r := range results {
				for _, rec := range results[r] {
					epochLoss += rec.dl
					count += rec.w
				}
				contrib[r] = r
			}
			averageGradsInto(params, replicaParams, contrib)
			nn.ClipGrads(params, 5)
			opt.Step()
		}
		if count > 0 {
			lastLoss = epochLoss / count
		}
	}
	return lastLoss
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
