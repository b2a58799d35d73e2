package tensor

// The unrolled MatMulInto must do, per output element, the floating-point
// operations of the loop it replaced, in the same order (DESIGN.md §12.7).
// That loop is kept here as the reference and every comparison is on
// math.Float64bits.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMatMulInto is MatMulInto as it stood before the k-by-four unroll: one
// load and one store of the output element per multiply-add, every zero of
// a skipped on its own.
func refMatMulInto(out, a, b *Tensor) {
	for i := range out.Data {
		out.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// randOperand draws an m×n operand in which each element is zero with
// probability sparsity; a third of those zeros are −0.
func randOperand(m, n int, sparsity float64, rng *rand.Rand) *Tensor {
	t := Randn(m, n, 1, rng)
	for i := range t.Data {
		if rng.Float64() < sparsity {
			t.Data[i] = 0
			if rng.Intn(3) == 0 {
				t.Data[i] = math.Copysign(0, -1)
			}
		}
	}
	return t
}

func TestMatMulIntoMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, m := range []int{1, 2, 7} {
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 11, 66} {
			for _, n := range []int{1, 2, 5, 16} {
				for _, sparsity := range []float64{0, 0.5, 1} {
					name := fmt.Sprintf("%dx%dx%d/zeros=%v", m, k, n, sparsity)
					a := randOperand(m, k, sparsity, rng)
					b := randOperand(k, n, 0.1, rng)
					got, want := New(m, n), New(m, n)
					// Both kernels must overwrite whatever out held.
					got.Fill(math.NaN())
					want.Fill(math.NaN())
					MatMulInto(got, a, b)
					refMatMulInto(want, a, b)
					for i := range want.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
							t.Fatalf("%s: out[%d] = %x (%v), reference %x (%v)", name, i,
								math.Float64bits(got.Data[i]), got.Data[i], math.Float64bits(want.Data[i]), want.Data[i])
						}
					}
				}
			}
		}
	}
}

// A zero activation inside a live group of four is multiplied through, not
// skipped, so a non-finite weight beside it reaches the output where the
// reference stayed finite. The difference only ever runs that way: an
// output the unrolled kernel reports finite is finite in the reference too,
// with the same bits.
func TestMatMulIntoNonFiniteWeightSurfaces(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := FromSlice(1, 4, []float64{0, 1.5, 0, -2})
		b := FromSlice(4, 2, []float64{bad, 1, 2, 3, 4, 5, 6, 7})
		got, ref := New(1, 2), New(1, 2)
		MatMulInto(got, a, b)
		refMatMulInto(ref, a, b)
		if v := got.Data[0]; !math.IsNaN(v) && !math.IsInf(v, 0) {
			t.Fatalf("weight %v beside a zero activation gave finite output %v", bad, v)
		}
		if v := ref.Data[0]; math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("reference was expected to skip the %v weight, got %v", bad, v)
		}
		if math.Float64bits(got.Data[1]) != math.Float64bits(ref.Data[1]) {
			t.Fatalf("finite column differs: %v vs reference %v", got.Data[1], ref.Data[1])
		}
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m, k, n := 1+rng.Intn(4), 1+rng.Intn(13), 1+rng.Intn(6)
		a := randOperand(m, k, 0.5, rng)
		b := randOperand(k, n, 0, rng)
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			b.Data[rng.Intn(len(b.Data))] = bad
		}
		got, ref := New(m, n), New(m, n)
		MatMulInto(got, a, b)
		refMatMulInto(ref, a, b)
		for i, g := range got.Data {
			r := ref.Data[i]
			gotFinite := !math.IsNaN(g) && !math.IsInf(g, 0)
			refFinite := !math.IsNaN(r) && !math.IsInf(r, 0)
			if !refFinite && gotFinite {
				t.Fatalf("trial %d: reference non-finite (%v) but kernel finite (%v)", trial, r, g)
			}
			if gotFinite && math.Float64bits(g) != math.Float64bits(r) {
				t.Fatalf("trial %d: finite output %v differs from reference %v", trial, g, r)
			}
		}
	}
}
