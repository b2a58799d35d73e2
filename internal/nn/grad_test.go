package nn

import (
	"math"
	"math/rand"
	"testing"

	"lite/internal/tensor"
)

// numericalGrad perturbs each element of param and measures the change in
// the scalar produced by forward, giving a finite-difference gradient.
func numericalGrad(t *testing.T, param *Node, forward func() *Node) *tensor.Tensor {
	t.Helper()
	const h = 1e-6
	grad := tensor.New(param.Value.Rows, param.Value.Cols)
	for i := range param.Value.Data {
		orig := param.Value.Data[i]
		param.Value.Data[i] = orig + h
		up := forward().Scalar()
		param.Value.Data[i] = orig - h
		down := forward().Scalar()
		param.Value.Data[i] = orig
		grad.Data[i] = (up - down) / (2 * h)
	}
	return grad
}

// checkGrad runs backward through forward() and compares the analytic
// gradient on each param against the finite-difference estimate.
func checkGrad(t *testing.T, params []*Node, forward func() *Node) {
	t.Helper()
	ZeroGrads(params)
	loss := forward()
	Backward(loss)
	for pi, p := range params {
		num := numericalGrad(t, p, forward)
		if p.Grad == nil {
			t.Fatalf("param %d (%s): no gradient accumulated", pi, p.name)
		}
		for i := range num.Data {
			got := p.Grad.Data[i]
			want := num.Data[i]
			tol := 1e-4 * math.Max(1, math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Fatalf("param %d (%s) grad[%d] = %v, numerical %v", pi, p.name, i, got, want)
			}
		}
	}
}

func TestMatMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewParam(tensor.Randn(2, 3, 1, rng), "a")
	b := NewParam(tensor.Randn(3, 2, 1, rng), "b")
	checkGrad(t, []*Node{a, b}, func() *Node { return Sum(MatMul(a, b)) })
}

func TestAddSubMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewParam(tensor.Randn(2, 2, 1, rng), "a")
	b := NewParam(tensor.Randn(2, 2, 1, rng), "b")
	checkGrad(t, []*Node{a, b}, func() *Node { return Sum(Mul(Add(a, b), Sub(a, b))) })
}

func TestActivationGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name string
		f    func(*Node) *Node
	}{
		{"sigmoid", Sigmoid},
		{"tanh", Tanh},
		{"square", Square},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := NewParam(tensor.Randn(2, 3, 1, rng), "a")
			// Shift away from 0 to avoid kinks in finite differences.
			for i := range a.Value.Data {
				if math.Abs(a.Value.Data[i]) < 0.1 {
					a.Value.Data[i] += 0.2
				}
			}
			checkGrad(t, []*Node{a}, func() *Node { return Sum(c.f(a)) })
		})
	}
}

func TestReLUGradAwayFromKink(t *testing.T) {
	a := NewParam(tensor.FromRow([]float64{1.5, -2.0, 0.7, -0.3}), "a")
	checkGrad(t, []*Node{a}, func() *Node { return Sum(ReLU(a)) })
}

func TestBroadcastAndConcatGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewParam(tensor.Randn(3, 2, 1, rng), "m")
	b := NewParam(tensor.Randn(1, 2, 1, rng), "b")
	checkGrad(t, []*Node{m, b}, func() *Node { return Sum(AddRowBroadcast(m, b)) })

	x := NewParam(tensor.Randn(1, 3, 1, rng), "x")
	y := NewParam(tensor.Randn(1, 2, 1, rng), "y")
	checkGrad(t, []*Node{x, y}, func() *Node { return Sum(Square(Concat(x, y))) })
}

func TestSliceGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := NewParam(tensor.Randn(1, 5, 1, rng), "x")
	checkGrad(t, []*Node{x}, func() *Node { return Sum(Square(Slice(x, 1, 4))) })
}

func TestMeanAndScaleGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := NewParam(tensor.Randn(2, 4, 1, rng), "x")
	checkGrad(t, []*Node{x}, func() *Node { return Mean(Scale(Square(x), 3)) })
}

func TestColMaxPoolGrad(t *testing.T) {
	x := NewParam(tensor.FromSlice(3, 2, []float64{1, 9, 5, 2, 3, 7}), "x")
	checkGrad(t, []*Node{x}, func() *Node { return Sum(Square(ColMaxPool(x))) })
}

func TestRowMeanPoolGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := NewParam(tensor.Randn(3, 4, 1, rng), "x")
	checkGrad(t, []*Node{x}, func() *Node { return Sum(Square(RowMeanPool(x))) })
}

func TestSoftmaxRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := NewParam(tensor.Randn(2, 4, 1, rng), "x")
	w := NewConst(tensor.Randn(2, 4, 1, rng))
	checkGrad(t, []*Node{x}, func() *Node { return Sum(Mul(SoftmaxRows(x), w)) })
}

func TestGradReverseNegatesGradient(t *testing.T) {
	x := NewParam(tensor.FromRow([]float64{2}), "x")
	loss := Sum(GradReverse(Square(x), 0.5))
	Backward(loss)
	// d/dx x² = 4 at x=2; reversed with λ=0.5 → −2.
	if math.Abs(x.Grad.Data[0]-(-2)) > 1e-9 {
		t.Fatalf("grad-reverse gradient = %v, want -2", x.Grad.Data[0])
	}
	// Forward must be identity.
	if loss.Scalar() != 4 {
		t.Fatalf("grad-reverse forward = %v, want 4", loss.Scalar())
	}
}

func TestConv1DMaxPoolGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	input := NewParam(tensor.Randn(3, 6, 1, rng), "input")
	f1 := NewParam(tensor.Randn(3, 2, 1, rng), "f1")
	f2 := NewParam(tensor.Randn(3, 2, 1, rng), "f2")
	bias := NewParam(tensor.Randn(1, 2, 1, rng), "bias")
	checkGrad(t, []*Node{input, f1, f2, bias}, func() *Node {
		return Sum(Square(Conv1DMaxPool(input, []*Node{f1, f2}, bias)))
	})
}

func TestEmbeddingLookupGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	table := NewParam(tensor.Randn(5, 3, 1, rng), "embed")
	ids := []int{0, 2, 2, -1, 4}
	checkGrad(t, []*Node{table}, func() *Node {
		return Sum(Square(EmbeddingLookup(nil, table, ids)))
	})
	checkGrad(t, []*Node{table}, func() *Node {
		return Sum(Square(EmbeddingLookupRows(nil, table, ids)))
	})
}

func TestDenseAndMLPGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mlp := NewMLP([]int{4, 6, 3, 1}, rng, "mlp")
	x := NewConst(tensor.Randn(1, 4, 1, rng))
	checkGrad(t, mlp.Params(), func() *Node { return MSELoss(mlp.Forward(x), 2.5) })
}

func TestGCNEncoderGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	enc := NewGCNEncoder([]int{4, 5, 3}, rng)
	aHat := NewConst(NormalizeAdjacency(3, [][2]int{{0, 1}, {1, 2}}))
	feats := tensor.New(3, 4)
	feats.Set(0, 0, 1)
	feats.Set(1, 2, 1)
	feats.Set(2, 3, 1)
	nodeF := NewConst(feats)
	checkGrad(t, enc.Params(), func() *Node { return Sum(Square(enc.Forward(aHat, nodeF))) })
}

func TestCNNEncoderGradAndShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	enc := NewCNNEncoder(10, 4, []int{2, 3}, 2, 5, rng)
	ids := []int{1, 3, 5, 7, 2, -1, -1, 4}
	out := enc.Forward(nil, ids)
	if out.Value.Rows != 1 || out.Value.Cols != 5 {
		t.Fatalf("CNN encoder output shape %dx%d, want 1x5", out.Value.Rows, out.Value.Cols)
	}
	checkGrad(t, enc.Params(), func() *Node { return Sum(Square(enc.Forward(nil, ids))) })
}

func TestLSTMEncoderGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	enc := NewLSTMEncoder(8, 3, 4, 16, rng)
	ids := []int{1, 4, 2, -1, 6}
	out := enc.Forward(nil, ids)
	if out.Value.Cols != 4 {
		t.Fatalf("LSTM output width %d, want 4", out.Value.Cols)
	}
	checkGrad(t, enc.Params(), func() *Node { return Sum(Square(enc.Forward(nil, ids))) })
}

func TestTransformerEncoderGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	enc := NewTransformerEncoder(8, 4, 2, 6, 10, rng)
	ids := []int{1, 4, 2, 6}
	out := enc.Forward(nil, ids)
	if out.Value.Cols != 4 {
		t.Fatalf("Transformer output width %d, want 4", out.Value.Cols)
	}
	checkGrad(t, enc.Params(), func() *Node { return Sum(Square(enc.Forward(nil, ids))) })
}

func TestLayerNormGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ln := NewLayerNorm(4, "ln")
	x := NewParam(tensor.Randn(2, 4, 1, rng), "x")
	params := append([]*Node{x}, ln.Params()...)
	checkGrad(t, params, func() *Node { return Sum(Square(ln.Forward(x))) })
}

func TestBCELossGrad(t *testing.T) {
	x := NewParam(tensor.FromRow([]float64{0.3}), "x")
	checkGrad(t, []*Node{x}, func() *Node { return BCELoss(Sigmoid(x), 1) })
	checkGrad(t, []*Node{x}, func() *Node { return BCELoss(Sigmoid(x), 0) })
}

func TestHuberLossGrad(t *testing.T) {
	x := NewParam(tensor.FromRow([]float64{0.4}), "x")
	checkGrad(t, []*Node{x}, func() *Node { return HuberLoss(x, 0.1, 1.0) })
	y := NewParam(tensor.FromRow([]float64{5.0}), "y")
	checkGrad(t, []*Node{y}, func() *Node { return HuberLoss(y, 0.1, 1.0) })
}

func TestStackRowsAndPickRowGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := NewParam(tensor.Randn(1, 3, 1, rng), "a")
	b := NewParam(tensor.Randn(1, 3, 1, rng), "b")
	checkGrad(t, []*Node{a, b}, func() *Node {
		s := StackRows([]*Node{a, b})
		return Sum(Square(PickRow(s, 1)))
	})
}

func TestMatMulBGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := NewParam(tensor.Randn(2, 3, 1, rng), "a")
	b := NewParam(tensor.Randn(4, 3, 1, rng), "b")
	checkGrad(t, []*Node{a, b}, func() *Node { return Sum(Square(MatMulB(a, b))) })
}

func TestConcatColsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := NewParam(tensor.Randn(2, 2, 1, rng), "a")
	b := NewParam(tensor.Randn(2, 3, 1, rng), "b")
	checkGrad(t, []*Node{a, b}, func() *Node { return Sum(Square(Concat(a, b))) })
}

func TestGatherRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := NewParam(tensor.Randn(3, 2, 1, rng), "a")
	checkGrad(t, []*Node{a}, func() *Node { return Sum(Square(GatherRows(a, []int{2, 0, 2, 2}))) })
}

// The weighted row losses are per-row sums: their value is Σ wᵢ·loss(row i)
// and their gradient matches finite differences, a zero weight included.
func TestWeightedRowLossGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := NewParam(tensor.Randn(4, 1, 1, rng), "x")
	ys, labels, ws := []float64{1, -2, 0.5, 3}, []float64{1, 0, 0, 1}, []float64{0.5, 0, 2, 1.25}
	var want float64
	for i, w := range ws {
		want += w * MSELoss(PickRow(x, i), ys[i]).Scalar()
	}
	if got := WeightedMSE(x, ys, ws).Scalar(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("WeightedMSE = %v, Σ wᵢ·MSELoss = %v", got, want)
	}
	checkGrad(t, []*Node{x}, func() *Node { return WeightedMSE(x, ys, ws) })
	checkGrad(t, []*Node{x}, func() *Node { return WeightedBCE(Sigmoid(x), labels, ws) })
}
