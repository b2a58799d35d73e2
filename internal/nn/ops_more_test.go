package nn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lite/internal/tensor"
)

func TestSlicePanicsOnBadBounds(t *testing.T) {
	x := NewParam(tensor.FromRow([]float64{1, 2, 3}), "x")
	for _, bounds := range [][2]int{{-1, 2}, {0, 4}, {2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for bounds %v", bounds)
				}
			}()
			Slice(x, bounds[0], bounds[1])
		}()
	}
}

func TestConcatPanicsOnMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a matrix beside a row vector")
		}
	}()
	Concat(NewConst(tensor.New(1, 2)), NewConst(tensor.New(2, 2)))
}

func TestEmbeddingLookupAllPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	table := NewParam(tensor.Randn(4, 3, 1, rng), "e")
	out := EmbeddingLookup(nil, table, []int{-1, -1})
	for _, v := range out.Value.Data {
		if v != 0 {
			t.Fatal("padding-only lookup should be all zeros")
		}
	}
	// Backward through it must not touch the table.
	Backward(Sum(Square(out)))
	if table.Grad != nil {
		for _, g := range table.Grad.Data {
			if g != 0 {
				t.Fatal("padding should not receive gradient")
			}
		}
	}
}

func TestNormalizeAdjacencyProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		var edges [][2]int
		for i := 0; i+1 < n; i++ {
			edges = append(edges, [2]int{i, i + 1})
		}
		if n > 3 {
			edges = append(edges, [2]int{0, n - 1})
		}
		a := NormalizeAdjacency(n, edges)
		// Symmetric, nonnegative, with positive diagonal (self loops).
		for i := 0; i < n; i++ {
			if a.At(i, i) <= 0 {
				return false
			}
			for j := 0; j < n; j++ {
				if a.At(i, j) < 0 || math.Abs(a.At(i, j)-a.At(j, i)) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeAdjacencySingleNode(t *testing.T) {
	a := NormalizeAdjacency(1, nil)
	if a.Rows != 1 || math.Abs(a.At(0, 0)-1) > 1e-12 {
		t.Fatalf("single node normalization wrong: %v", a.At(0, 0))
	}
}

func TestLSTMTruncatesToMaxLen(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	enc := NewLSTMEncoder(6, 3, 4, 5, rng)
	long := make([]int, 50)
	for i := range long {
		long[i] = i % 6
	}
	short := long[:5]
	a := enc.Forward(nil, long)
	b := enc.Forward(nil, short)
	for i := range a.Value.Data {
		if a.Value.Data[i] != b.Value.Data[i] {
			t.Fatal("truncation should make long and short inputs identical")
		}
	}
}

func TestLSTMEmptyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	enc := NewLSTMEncoder(6, 3, 4, 8, rng)
	out := enc.Forward(nil, []int{-1, -1, -1})
	if out.Value.Cols != 4 {
		t.Fatalf("empty-input output width %d", out.Value.Cols)
	}
	for _, v := range out.Value.Data {
		if math.IsNaN(v) {
			t.Fatal("NaN in empty-input LSTM output")
		}
	}
}

func TestTransformerHandlesPaddingAndTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	enc := NewTransformerEncoder(8, 4, 2, 6, 6, rng)
	out := enc.Forward(nil, []int{-1, 1, -1, 2, 3, 4, 5, 6, 7, 1, 2, 3})
	if out.Value.Cols != 4 {
		t.Fatalf("output width %d", out.Value.Cols)
	}
	for _, v := range out.Value.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite transformer output")
		}
	}
}

func TestTransformerRejectsIndivisibleHeads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dim % heads != 0")
		}
	}()
	NewTransformerEncoder(8, 5, 2, 6, 6, rand.New(rand.NewSource(5)))
}

func TestConv1DShorterThanKernelPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	input := NewConst(tensor.Randn(3, 2, 1, rng))
	filt := NewParam(tensor.Randn(3, 4, 1, rng), "f")
	bias := NewParam(tensor.New(1, 1), "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for input shorter than kernel")
		}
	}()
	Conv1DMaxPool(input, []*Node{filt}, bias)
}

func TestCNNEncoderDeterministicForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	enc := NewCNNEncoder(12, 4, []int{2, 3}, 3, 5, rng)
	ids := []int{1, 2, 3, 4, 5, 6}
	a := enc.Forward(nil, ids)
	b := enc.Forward(nil, ids)
	for i := range a.Value.Data {
		if a.Value.Data[i] != b.Value.Data[i] {
			t.Fatal("forward pass not deterministic")
		}
	}
}

func TestMLPPanicsOnTooFewWidths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP([]int{4}, rand.New(rand.NewSource(8)), "m")
}

func TestStackRowsPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	StackRows(nil)
}

func TestScalarPanicsOnMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewConst(tensor.New(2, 2)).Scalar()
}

// TestNoGradientLeaksBetweenBackwardCalls: running Backward twice through
// independent graphs sharing a parameter must accumulate exactly twice the
// single-pass gradient (no stale intermediate grads).
func TestNoGradientLeaksBetweenBackwardCalls(t *testing.T) {
	x := NewParam(tensor.FromRow([]float64{3}), "x")
	Backward(Sum(Square(x)))
	once := x.Grad.Data[0]
	ZeroGrads([]*Node{x})
	Backward(Sum(Square(x)))
	Backward(Sum(Square(x)))
	if math.Abs(x.Grad.Data[0]-2*once) > 1e-12 {
		t.Fatalf("double backward grad %v, want %v", x.Grad.Data[0], 2*once)
	}
}

// TestGradCheckRandomCompositeGraphs fuzzes small composite graphs against
// finite differences.
func TestGradCheckRandomCompositeGraphs(t *testing.T) {
	builders := []func(a, b *Node) *Node{
		func(a, b *Node) *Node { return Sum(Mul(Sigmoid(a), Tanh(b))) },
		func(a, b *Node) *Node { return Mean(Square(Add(a, Scale(b, 0.5)))) },
		func(a, b *Node) *Node { return Sum(Mul(SoftmaxRows(a), Square(b))) },
	}
	for bi, build := range builders {
		rng := rand.New(rand.NewSource(int64(100 + bi)))
		a := NewParam(tensor.Randn(2, 3, 0.8, rng), "a")
		b := NewParam(tensor.Randn(2, 3, 0.8, rng), "b")
		checkGrad(t, []*Node{a, b}, func() *Node { return build(a, b) })
	}
}

func TestArenaConstRow(t *testing.T) {
	ar := dirtyArena()
	n := ar.ConstRow([]float64{1, 2}, nil, []float64{3})
	if n.Value.Rows != 1 || !reflect.DeepEqual(n.Value.Data, []float64{1, 2, 3}) || n.requiresGrad || n.arena != ar {
		t.Fatalf("ConstRow = %dx%d %v (requiresGrad %v)", n.Value.Rows, n.Value.Cols, n.Value.Data, n.requiresGrad)
	}
}
