package nn

import (
	"math"
	"math/rand"
	"testing"

	"lite/internal/tensor"
)

// TestAdamConvergesOnQuadratic verifies the optimizer minimizes a simple
// convex objective.
func TestAdamConvergesOnQuadratic(t *testing.T) {
	x := NewParam(tensor.FromRow([]float64{5, -3}), "x")
	opt := NewAdam([]*Node{x}, 0.1)
	for i := 0; i < 400; i++ {
		opt.ZeroGrad()
		loss := Sum(Square(x))
		Backward(loss)
		opt.Step()
	}
	if math.Hypot(x.Value.Data[0], x.Value.Data[1]) > 1e-2 {
		t.Fatalf("Adam did not converge: x = %v", x.Value.Data)
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mlp := NewMLP([]int{2, 8, 1}, rng, "xor")
	opt := NewAdam(mlp.Params(), 0.05)
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 800; epoch++ {
		opt.ZeroGrad()
		var loss *Node
		for i, in := range inputs {
			l := MSELoss(Sigmoid(mlp.Forward(NewConst(tensor.FromRow(in)))), targets[i])
			if loss == nil {
				loss = l
			} else {
				loss = Add(loss, l)
			}
		}
		Backward(loss)
		opt.Step()
	}
	for i, in := range inputs {
		pred := Sigmoid(mlp.Forward(NewConst(tensor.FromRow(in)))).Scalar()
		if math.Abs(pred-targets[i]) > 0.2 {
			t.Fatalf("XOR(%v) = %v, want %v", in, pred, targets[i])
		}
	}
}

// TestCNNEncoderLearnsTokenPattern checks the text-CNN can separate
// sequences by which token they contain — the property NECS relies on to
// map operations like sortByKey to cost.
func TestCNNEncoderLearnsTokenPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	enc := NewCNNEncoder(20, 6, []int{2, 3}, 4, 6, rng)
	head := NewDense(6, 1, rng, "head")
	params := append(enc.Params(), head.Params()...)
	opt := NewAdam(params, 0.02)

	mkSeq := func(special int) []int {
		ids := make([]int, 12)
		for i := range ids {
			ids[i] = 1 + rng.Intn(5)
		}
		if special >= 0 {
			ids[rng.Intn(len(ids))] = special
		}
		return ids
	}
	type sample struct {
		ids []int
		y   float64
	}
	var data []sample
	for i := 0; i < 30; i++ {
		data = append(data, sample{mkSeq(15), 2.0}) // token 15 → slow
		data = append(data, sample{mkSeq(-1), 0.5}) // no special token → fast
	}
	for epoch := 0; epoch < 60; epoch++ {
		for _, s := range data {
			opt.ZeroGrad()
			Backward(MSELoss(head.Forward(enc.Forward(nil, s.ids)), s.y))
			opt.Step()
		}
	}
	slow := head.Forward(enc.Forward(nil, mkSeq(15))).Scalar()
	fast := head.Forward(enc.Forward(nil, mkSeq(-1))).Scalar()
	if slow-fast < 0.5 {
		t.Fatalf("CNN failed to separate token classes: slow=%v fast=%v", slow, fast)
	}
}

func TestTowerWidths(t *testing.T) {
	got := TowerWidths(58, 64, 16)
	want := []int{58, 64, 32, 16, 1}
	if len(got) != len(want) {
		t.Fatalf("TowerWidths = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TowerWidths = %v, want %v", got, want)
		}
	}
}

func TestForwardHiddenReturnsAllHiddenLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	mlp := NewMLP([]int{4, 8, 4, 1}, rng, "m")
	out, hidden := mlp.ForwardHidden(NewConst(tensor.Randn(1, 4, 1, rng)))
	if out.Value.Cols != 1 {
		t.Fatalf("output width %d", out.Value.Cols)
	}
	if len(hidden) != 2 || hidden[0].Value.Cols != 8 || hidden[1].Value.Cols != 4 {
		t.Fatalf("hidden shapes wrong: %d layers", len(hidden))
	}
}

// ClipScale is the factor that clips the global gradient norm, and
// StepScaled applies it: the weights of scaling every gradient in place
// and then stepping, bit for bit, with the gradients left as they were.
func TestClipScale(t *testing.T) {
	x := NewParam(tensor.FromRow([]float64{3, 4}), "x") // grad will be (6,8), norm 10
	if s := ClipScale([]*Node{x}, 5); s != 1 {
		t.Fatalf("ClipScale without gradients = %v, want 1", s)
	}
	Backward(Sum(Square(x)))
	if s := ClipScale([]*Node{x}, 5); s != 0.5 {
		t.Fatalf("ClipScale = %v, want 0.5", s)
	}
	// Clipping below the threshold is a no-op.
	if s := ClipScale([]*Node{x}, 1e6); s != 1 {
		t.Fatalf("ClipScale under the threshold = %v, want 1", s)
	}
	ref := NewParam(x.Value.Clone(), "ref")
	ref.Grad = tensor.FromRow([]float64{3, 4}) // (6,8)·0.5
	opt, refOpt := NewAdam([]*Node{x}, 0.1), NewAdam([]*Node{ref}, 0.1)
	for step := 0; step < 3; step++ {
		opt.StepScaled(ClipScale([]*Node{x}, 5))
		refOpt.Step()
	}
	requireSameBits(t, "weights", x.Value.Data, ref.Value.Data)
	requireSameBits(t, "gradient", x.Grad.Data, []float64{6, 8})
}

func TestZeroGrads(t *testing.T) {
	x := NewParam(tensor.FromRow([]float64{2}), "x")
	Backward(Sum(Square(x)))
	if x.Grad.Data[0] == 0 {
		t.Fatal("expected nonzero grad before zeroing")
	}
	ZeroGrads([]*Node{x})
	if x.Grad.Data[0] != 0 {
		t.Fatal("ZeroGrads did not clear")
	}
}

// TestGradientAccumulationAcrossSamples ensures grads sum when Backward is
// called repeatedly without zeroing (mini-batch accumulation).
func TestGradientAccumulationAcrossSamples(t *testing.T) {
	x := NewParam(tensor.FromRow([]float64{1}), "x")
	Backward(Sum(Square(x))) // grad 2
	Backward(Sum(Square(x))) // grad 2 more
	if math.Abs(x.Grad.Data[0]-4) > 1e-9 {
		t.Fatalf("accumulated grad = %v, want 4", x.Grad.Data[0])
	}
}

func TestBackwardPanicsOnNonScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar root")
		}
	}()
	x := NewParam(tensor.FromRow([]float64{1, 2}), "x")
	Backward(Square(x))
}

// TestAdversarialMinimaxDirection verifies GradReverse produces opposite
// update directions for the feature extractor vs the discriminator — the
// mechanism behind Adaptive Model Update.
func TestAdversarialMinimaxDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	feat := NewDense(2, 2, rng, "feat")
	disc := NewDense(2, 1, rng, "disc")
	x := NewConst(tensor.FromRow([]float64{1, -1}))

	// Discriminator path WITHOUT reversal.
	lossD := BCELoss(Sigmoid(disc.Forward(feat.Forward(x))), 1)
	Backward(lossD)
	gradDirect := feat.W.Grad.Clone()
	ZeroGrads(append(feat.Params(), disc.Params()...))

	// Same path WITH reversal before the discriminator.
	lossR := BCELoss(Sigmoid(disc.Forward(GradReverse(feat.Forward(x), 1))), 1)
	Backward(lossR)
	gradReversed := feat.W.Grad

	for i := range gradDirect.Data {
		if math.Abs(gradDirect.Data[i]+gradReversed.Data[i]) > 1e-9 {
			t.Fatalf("reversed grad[%d] = %v, want %v", i, gradReversed.Data[i], -gradDirect.Data[i])
		}
	}
}
