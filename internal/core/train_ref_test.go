package core

// Minibatched training (DESIGN.md §12.8) must compute the model the
// per-instance loops compute, up to floating-point re-association. Those
// loops — one autograd graph and one backward pass per instance — are kept
// here as the reference: Fit as it stood before the training step became
// one graph per minibatch, and AdaptiveModelUpdate's tower-and-
// discriminator objective over the frozen encoders' outputs.

import (
	"math"
	"math/rand"
	"testing"

	"lite/internal/nn"
	"lite/internal/sparksim"
	"lite/internal/tensor"
	"lite/internal/workload"
)

// refForward is one instance's forward pass as its own graph: CNN, GCN and
// tower over a single row.
func refForward(m *NECS, x *Encoded) (*nn.Node, []*nn.Node) {
	hCode := m.Code.Forward(nil, x.TokenIDs)
	hDAG := m.DAG.Forward(nn.NewConst(x.AHat), nn.NewConst(x.NodeFeats))
	return m.Tower.ForwardHidden(nn.Concat(nn.NewConst(tensor.FromRow(x.Dense)), hCode, hDAG))
}

// refFitStep accumulates one minibatch's Equation 4 gradients instance by
// instance, each row's loss scaled by wᵢ/W. It returns the losses of the
// rows it backpropagated and false if it stopped at a non-finite one.
func refFitStep(m *NECS, batch []*Encoded, batchWeight float64) ([]float64, bool) {
	var rows []float64
	for _, x := range batch {
		out, _ := refForward(m, x)
		loss := nn.Scale(nn.MSELoss(out, x.Y), x.Weight/batchWeight)
		lv := loss.Scalar()
		if math.IsNaN(lv) || math.IsInf(lv, 0) {
			return rows, false
		}
		nn.Backward(loss)
		rows = append(rows, lv)
	}
	return rows, true
}

// refFit is Fit with one graph per instance.
func refFit(m *NECS, data []*Encoded, rng *rand.Rand) float64 {
	params := m.Params()
	opt := nn.NewAdam(params, m.Cfg.LR)
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	var lastLoss float64
	bestLoss := math.Inf(1)
	var bestSnap [][]float64
	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		switch {
		case epoch == m.Cfg.Epochs*85/100:
			opt.LR = m.Cfg.LR / 4
		case epoch == m.Cfg.Epochs*60/100:
			opt.LR = m.Cfg.LR / 2
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss, epochWeight float64
		for start := 0; start < len(idx); start += m.Cfg.BatchSize {
			var batch []*Encoded
			for _, i := range idx[start:min(start+m.Cfg.BatchSize, len(idx))] {
				batch = append(batch, data[i])
			}
			opt.ZeroGrad()
			var batchWeight float64
			for _, x := range batch {
				batchWeight += x.Weight
			}
			if batchWeight <= 0 {
				continue
			}
			rows, ok := refFitStep(m, batch, batchWeight)
			for i, lv := range rows {
				epochLoss += lv * batchWeight
				epochWeight += batch[i].Weight
			}
			if !ok || !gradsFinite(params) {
				opt.ZeroGrad()
				continue
			}
			opt.StepScaled(nn.ClipScale(params, 5))
		}
		if epochWeight > 0 {
			lastLoss = epochLoss / epochWeight
		}
		finite := !math.IsNaN(lastLoss) && !math.IsInf(lastLoss, 0) && m.paramsFinite()
		if finite && lastLoss < bestLoss {
			bestLoss = lastLoss
			bestSnap = m.snapshotParams()
		} else if !finite && bestSnap != nil {
			m.restoreParams(bestSnap)
			lastLoss = bestLoss
		}
	}
	if !m.paramsFinite() && bestSnap != nil {
		m.restoreParams(bestSnap)
		lastLoss = bestLoss
	}
	return lastLoss
}

// refAMUStep accumulates one minibatch's Equation 8 gradients instance by
// instance over the frozen encoders: the tower over the instance's
// constant dense ‖ h_code ‖ h_DAG row, a gradient reversal per hidden
// layer, the discriminator over their concatenation, L_p + L_D scaled by
// wᵢ/|batch|. It returns the epoch-loss increments Σ wᵢ·L_p,ᵢ and Σ wᵢ.
func refAMUStep(m *NECS, disc *Discriminator, batch []domainSample, lambda float64) (loss, weight float64) {
	for _, s := range batch {
		hCode := m.Code.Forward(nil, s.x.TokenIDs).Value
		hDAG := m.DAG.Forward(nn.NewConst(s.x.AHat), nn.NewConst(s.x.NodeFeats)).Value
		in := tensor.FromRow(append(append(append([]float64(nil), s.x.Dense...), hCode.Data...), hDAG.Data...))
		out, hidden := m.Tower.ForwardHidden(nn.NewConst(in))
		lp := nn.MSELoss(out, s.x.Y)
		rev := make([]*nn.Node, len(hidden))
		for i, h := range hidden {
			rev[i] = nn.GradReverse(h, lambda)
		}
		ld := nn.BCELoss(disc.mlp.Forward(nn.Concat(rev...)), s.domain)
		nn.Backward(nn.Scale(nn.Add(lp, ld), s.x.Weight/float64(len(batch))))
		loss += lp.Scalar() * s.x.Weight
		weight += s.x.Weight
	}
	return loss, weight
}

// refAMU is AdaptiveModelUpdate with one graph per instance, training the
// tower and the discriminator.
func refAMU(m *NECS, source, target []*Encoded, cfg AMUConfig, rng *rand.Rand) float64 {
	data := refDomainSamples(source, target)
	disc := NewDiscriminator(m, cfg, rng)
	params := append(m.Tower.Params(), disc.Params()...)
	opt := nn.NewAdam(params, cfg.LR)
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
		var epochLoss, count float64
		for start := 0; start < len(data); start += cfg.BatchSize {
			opt.ZeroGrad()
			l, w := refAMUStep(m, disc, data[start:min(start+cfg.BatchSize, len(data))], cfg.Lambda)
			epochLoss += l
			count += w
			opt.StepScaled(nn.ClipScale(params, 5))
		}
		if count > 0 {
			lastLoss = epochLoss / count
		}
	}
	return lastLoss
}

// refDomainSamples labels source ∪ target by domain. It leaves the tower
// input unset: refAMUStep computes its own.
func refDomainSamples(source, target []*Encoded) []domainSample {
	var data []domainSample
	for _, x := range source {
		data = append(data, domainSample{x: x, domain: 1})
	}
	for _, x := range target {
		data = append(data, domainSample{x: x, domain: 0})
	}
	return data
}

// refFixture is an untrained model and a training set that exercises
// everything the batched step reorders: stages repeated across (config,
// size) rows, code padded to TokenLen, and instance weights other than 1.
func refFixture(t *testing.T) (*NECS, []*Encoded) {
	t.Helper()
	ds := smallDataset(t, []*workload.App{workload.ByName("WordCount"), workload.ByName("PageRank")}, 3, 41)
	cfg := fastConfig()
	cfg.Epochs = 3
	enc := NewEncoder(ds.Instances, cfg)
	data := EncodeAll(enc, ds.Instances)
	padded := false
	stages := map[*int]bool{}
	for i, x := range data {
		if i%7 == 0 {
			x.Weight = 3
		}
		padded = padded || x.TokenIDs[len(x.TokenIDs)-1] < 0
		stages[&x.TokenIDs[0]] = true
	}
	if !padded || 2*len(stages) > len(data) {
		t.Fatalf("fixture: padded=%v, %d stages over %d rows; want padding and repeats", padded, len(stages), len(data))
	}
	return NewNECS(enc, cfg, rand.New(rand.NewSource(43))), data
}

// refBatches draws n minibatches the way Fit does (a shuffled index,
// consecutive BatchSize slices) and checks each repeats a stage.
func refBatches(t *testing.T, data []*Encoded, size, n int) [][]*Encoded {
	t.Helper()
	perm := rand.New(rand.NewSource(47)).Perm(len(data))
	var out [][]*Encoded
	for b := 0; b < n; b++ {
		var batch []*Encoded
		stages := map[*int]bool{}
		for _, i := range perm[b*size : (b+1)*size] {
			batch = append(batch, data[i])
			stages[&data[i].TokenIDs[0]] = true
		}
		if len(stages) == size {
			t.Fatalf("batch %d has no repeated stage", b)
		}
		out = append(out, batch)
	}
	return out
}

// takeGrads copies every parameter gradient and zeroes the originals.
func takeGrads(params []*nn.Node) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		if p.Grad != nil {
			out[i] = append([]float64(nil), p.Grad.Data...)
		}
	}
	nn.ZeroGrads(params)
	return out
}

// requireGradsClose compares two gradient sets tensor by tensor: every
// element within rel × the tensor's largest reference magnitude.
func requireGradsClose(t *testing.T, what string, params []*nn.Node, got, want [][]float64, rel float64) {
	t.Helper()
	for i := range want {
		var scale, diff float64
		for j := range want[i] {
			scale = math.Max(scale, math.Abs(want[i][j]))
			diff = math.Max(diff, math.Abs(got[i][j]-want[i][j]))
		}
		if scale == 0 {
			continue
		}
		if diff > rel*scale {
			t.Fatalf("%s: %s gradient differs by %.3g (relative %.3g > %g)", what, params[i].Name(), diff, diff/scale, rel)
		}
	}
}

func requireWeightsClose(t *testing.T, what string, got, want *NECS, tol float64) {
	t.Helper()
	pg, pw := got.Params(), want.Params()
	var worst float64
	for i := range pw {
		for j, w := range pw[i].Value.Data {
			worst = math.Max(worst, math.Abs(pg[i].Value.Data[j]-w))
		}
	}
	if !(worst <= tol) {
		t.Fatalf("%s: weights differ from the per-instance reference by %.3g (tolerance %g)", what, worst, tol)
	}
	t.Logf("%s: max |Δweight| %.3g", what, worst)
}

func TestBatchedFitGradientsMatchPerInstance(t *testing.T) {
	m, data := refFixture(t)
	params := m.Params()
	nn.ZeroGrads(params)
	for b, batch := range refBatches(t, data, m.Cfg.BatchSize, 4) {
		loss, batchWeight := m.batchLoss(batch)
		nn.Backward(loss)
		got := takeGrads(params)
		if _, ok := refFitStep(m, batch, batchWeight); !ok {
			t.Fatalf("batch %d: reference loss not finite", b)
		}
		requireGradsClose(t, "Fit batch", params, got, takeGrads(params), 1e-12)
	}
}

func TestBatchedAMUGradientsMatchPerInstance(t *testing.T) {
	m, data := refFixture(t)
	m.Fit(data, rand.New(rand.NewSource(53)))
	cfg := DefaultAMUConfig()
	disc := NewDiscriminator(m, cfg, rand.New(rand.NewSource(59)))
	params := append(m.Tower.Params(), disc.Params()...)
	samples := amuSamples(m, data[:len(data)/2], data[len(data)/2:])
	rand.New(rand.NewSource(61)).Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	nn.ZeroGrads(params)
	for start := 0; start+cfg.BatchSize <= 4*cfg.BatchSize; start += cfg.BatchSize {
		batch := samples[start : start+cfg.BatchSize]
		loss, _ := amuLoss(m.Tower, disc, batch, cfg.Lambda)
		nn.Backward(loss)
		got := takeGrads(params)
		refAMUStep(m, disc, batch, cfg.Lambda)
		requireGradsClose(t, "AMU batch", params, got, takeGrads(params), 1e-12)
	}
}

func TestBatchedFitMatchesPerInstanceReference(t *testing.T) {
	m, data := refFixture(t)
	ref := m.Clone()
	loss := m.Fit(data, rand.New(rand.NewSource(67)))
	refLoss := refFit(ref, data, rand.New(rand.NewSource(67)))
	requireWeightsClose(t, "3 Fit epochs", m, ref, 1e-9)
	if math.Abs(loss-refLoss) > 1e-9*math.Abs(refLoss) {
		t.Fatalf("Fit loss %v, reference %v", loss, refLoss)
	}
}

func TestBatchedAMUMatchesPerInstanceReference(t *testing.T) {
	m, data := refFixture(t)
	m.Fit(data, rand.New(rand.NewSource(71)))
	ref := m.Clone()
	source, target := data[:len(data)/2], data[len(data)/2:]
	loss := AdaptiveModelUpdate(m, source, target, DefaultAMUConfig(), rand.New(rand.NewSource(73)))
	refLoss := refAMU(ref, source, target, DefaultAMUConfig(), rand.New(rand.NewSource(73)))
	requireWeightsClose(t, "one AMU", m, ref, 1e-9)
	if math.Abs(loss-refLoss) > 1e-9*math.Abs(refLoss) {
		t.Fatalf("AMU loss %v, reference %v", loss, refLoss)
	}
}

// A minibatch with one poisoned label is skipped whole: no step, and unlike
// the per-instance loop, its finite rows do not count toward the epoch loss.
func TestFitSkipsPoisonedBatchWhole(t *testing.T) {
	m, data := refFixture(t)
	m.Cfg.Epochs, m.Cfg.BatchSize = 1, len(data)
	data[len(data)-1].Y = math.NaN()
	before := m.snapshotParams()
	if loss := m.Fit(data, rand.New(rand.NewSource(79))); loss != 0 {
		t.Fatalf("epoch loss %v, want 0: the poisoned batch's finite rows were counted", loss)
	}
	for i, p := range m.Params() {
		for j, v := range p.Value.Data {
			if math.Float64bits(v) != math.Float64bits(before[i][j]) {
				t.Fatalf("param %s moved on a skipped batch", p.Name())
			}
		}
	}
	ref := NewNECS(m.Encoder, m.Cfg, rand.New(rand.NewSource(43)))
	if loss := refFit(ref, data, rand.New(rand.NewSource(79))); loss == 0 {
		t.Fatal("the per-instance reference counted no finite prefix; the fixture proves nothing")
	}
}

// BenchmarkFitWorstCase trains one epoch on rows that defeat both savings
// of the minibatched step: every row is its own stage (stages/inst = 1)
// and carries TokenLen real tokens, so no convolution position is padding.
// The minibatched Fit must be no slower than the per-instance reference.
func BenchmarkFitWorstCase(b *testing.B) {
	apps := []*workload.App{workload.ByName("WordCount"), workload.ByName("PageRank"), workload.ByName("KMeans")}
	ds := Collect(apps, CollectOptions{ConfigsPerInstance: 3, Sizes: []int{0, 1}, Clusters: []sparksim.Environment{sparksim.ClusterC}}, rand.New(rand.NewSource(1)))
	cfg := DefaultNECSConfig()
	cfg.Epochs = 1
	enc := NewEncoder(ds.Instances, cfg)
	data := EncodeAll(enc, ds.Instances)
	rng := rand.New(rand.NewSource(2))
	for _, x := range data {
		x.TokenIDs = make([]int, cfg.TokenLen)
		for i := range x.TokenIDs {
			x.TokenIDs[i] = rng.Intn(enc.Vocab.Size())
		}
		x.AHat, x.NodeFeats = x.AHat.Clone(), x.NodeFeats.Clone()
	}
	for _, c := range []struct {
		name string
		fit  func(*NECS, []*Encoded, *rand.Rand) float64
	}{{"batched", (*NECS).Fit}, {"per-instance", refFit}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := NewNECS(enc, cfg, rand.New(rand.NewSource(3)))
				b.StartTimer()
				c.fit(m, data, rand.New(rand.NewSource(4)))
			}
			b.ReportMetric(float64(len(data)), "rows")
		})
	}
}
