package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || m.Size() != 6 {
		t.Fatalf("unexpected shape %dx%d", m.Rows, m.Cols)
	}
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At after Set = %v", m.At(1, 2))
	}
	if m.Data[5] != 7.5 {
		t.Fatalf("row-major layout violated")
	}
}

func TestNewPanicsOnInvalidShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero rows")
		}
	}()
	New(0, 3)
}

func TestFromSliceValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if !almostEq(c.Data[i], w) {
			t.Fatalf("matmul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// transpose returns tᵀ as a new tensor: the explicit transpose the
// MatMulTrans* kernels are checked against.
func transpose(t *Tensor) *Tensor {
	out := New(t.Cols, t.Rows)
	for i := 0; i < t.Rows; i++ {
		for j := 0; j < t.Cols; j++ {
			out.Data[j*out.Cols+i] = t.Data[i*t.Cols+j]
		}
	}
	return out
}

func TestMatMulTransAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(4, 3, 1, rng)
	b := Randn(4, 5, 1, rng)
	got := MatMulTransA(a, b)
	want := MatMul(transpose(a), b)
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i]) {
			t.Fatalf("MatMulTransA mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulTransBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(4, 3, 1, rng)
	b := Randn(5, 3, 1, rng)
	got := MatMulTransB(a, b)
	want := MatMul(a, transpose(b))
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i]) {
			t.Fatalf("MatMulTransB mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(6)
		cols := 1 + rng.Intn(6)
		m := Randn(rows, cols, 1, rng)
		tt := transpose(transpose(m))
		if !m.SameShape(tt) {
			return false
		}
		for i := range m.Data {
			if m.Data[i] != tt.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Randn(3, 4, 1, rng)
		b := Randn(4, 2, 1, rng)
		c := Randn(4, 2, 1, rng)
		bc := b.Clone()
		AddInPlace(bc, c)
		left := MatMul(a, bc)
		right := MatMul(a, b)
		AddInPlace(right, MatMul(a, c))
		for i := range left.Data {
			if math.Abs(left.Data[i]-right.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSum(t *testing.T) {
	m := FromSlice(2, 2, []float64{3, -1, 4, 0})
	if m.Sum() != 6 {
		t.Fatalf("Sum = %v", m.Sum())
	}
}

func TestColMax(t *testing.T) {
	m := FromSlice(3, 2, []float64{1, 9, 5, 2, 3, 7})
	maxes, args := New(1, 2), make([]int, 2)
	m.ColMaxInto(maxes, args)
	if maxes.Data[0] != 5 || maxes.Data[1] != 9 {
		t.Fatalf("ColMax values wrong: %v", maxes.Data)
	}
	if args[0] != 1 || args[1] != 0 {
		t.Fatalf("ColMax argmax wrong: %v", args)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromRow([]float64{1, 2})
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestRowAndRowView(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	rv := m.RowView(1)
	rv[0] = 99
	if m.At(1, 0) != 99 {
		t.Fatal("RowView should alias")
	}
}

func TestXavierUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := XavierUniform(10, 10, rng)
	limit := math.Sqrt(6.0 / 20.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("xavier value %v outside ±%v", v, limit)
		}
	}
}

func TestMatMulIntoReuse(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 0, 0, 1})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	out := New(2, 2)
	out.Fill(42) // must be overwritten
	MatMulInto(out, a, b)
	for i := range b.Data {
		if out.Data[i] != b.Data[i] {
			t.Fatalf("identity matmul wrong at %d", i)
		}
	}
}

func TestStringTruncates(t *testing.T) {
	m := New(3, 4)
	s := m.String()
	if len(s) == 0 {
		t.Fatal("empty String()")
	}
}
