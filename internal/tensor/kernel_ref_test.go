package tensor

// MatMulInto must do, per output element, the floating-point operations of
// the loops it replaced, in the same order (DESIGN.md §12.7). Those loops
// are kept here as references and every comparison is on math.Float64bits:
// refMatMulInto is the loop before the k-by-four unroll, and
// refUnrolledMatMulInto the unrolled loop before rows shared a repeated
// prefix and zeros of a were skipped against finite weights, which
// MatMulInto must match bit for bit on NaN and ±Inf operands too.

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

// refUnrolledMatMulInto is MatMulInto as it stood before rows that repeat a
// prefix shared its partial sums: every row accumulated on its own, four
// values of the shared dimension at a time, a group skipped only when all
// four of a's values are zero.
func refUnrolledMatMulInto(out, a, b *Tensor) {
	out.Zero()
	n, kk := b.Cols, a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*kk : (i+1)*kk]
		orow := out.Data[i*n : (i+1)*n]
		k := 0
		for ; k+4 <= kk; k += 4 {
			ag := arow[k : k+4]
			a0, a1, a2, a3 := ag[0], ag[1], ag[2], ag[3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b.Data[k*n:][:len(orow)]
			b1 := b.Data[(k+1)*n:][:len(orow)]
			b2 := b.Data[(k+2)*n:][:len(orow)]
			b3 := b.Data[(k+3)*n:][:len(orow)]
			for j, o := range orow {
				orow[j] = (((o + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
			}
		}
		for ; k < kk; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Data[k*n:][:len(orow)]
			for j, o := range orow {
				orow[j] = o + av*brow[j]
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

	// The same weight inside a prefix that three rows share: the partial
	// computed once and copied must carry the non-finite value into every
	// row of the run, as each row's own accumulation would.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := FromSlice(3, 6, []float64{
			0, 1.5, 0, -2, 1, 0,
			0, 1.5, 0, -2, 0, 3,
			0, 1.5, 0, -2, -1, 2,
		})
		b := FromSlice(6, 2, []float64{bad, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
		got := New(3, 2)
		MatMulInto(got, a, b)
		for r := 0; r < 3; r++ {
			if v := got.At(r, 0); !math.IsNaN(v) && !math.IsInf(v, 0) {
				t.Fatalf("weight %v in a shared prefix gave row %d finite output %v", bad, r, v)
			}
		}
		assertMatchesUnrolled(t, fmt.Sprintf("shared prefix, weight %v", bad), a, b)
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

// assertMatchesUnrolled runs MatMulInto on a×b into an output pre-filled
// with NaN and checks it two ways.
//
// Against refUnrolledMatMulInto every element must have the same bits, or
// both be NaN: IEEE 754 leaves open which NaN an add of two NaNs returns,
// and on amd64 that follows the operand order the compiler picks for the
// same expression in a different function (the third add of a block of
// four swaps its operands between the two builds) and how the products
// fall into blocks, which skipped zeros shift.
//
// Against MatMulInto on each row of a alone — the same compiled loop, with
// no other row to share a prefix with — every element must have the same
// bits with no exception, NaN payloads included: a row's result does not
// depend on the rows beside it.
func assertMatchesUnrolled(t *testing.T, name string, a, b *Tensor) {
	t.Helper()
	got, want := New(a.Rows, b.Cols), New(a.Rows, b.Cols)
	got.Fill(math.NaN())
	want.Fill(math.NaN())
	MatMulInto(got, a, b)
	refUnrolledMatMulInto(want, a, b)
	for i := range want.Data {
		g, w := got.Data[i], want.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s (%dx%dx%d): out[%d] = %x (%v), reference %x (%v)", name,
				a.Rows, a.Cols, b.Cols, i, math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
	alone := New(1, b.Cols)
	for r := 0; r < a.Rows; r++ {
		MatMulInto(alone, FromSlice(1, a.Cols, a.RowView(r)), b)
		for j, v := range alone.Data {
			if g := got.At(r, j); math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("%s (%dx%dx%d): out[%d,%d] = %x (%v), row alone %x (%v)", name,
					a.Rows, a.Cols, b.Cols, r, j, math.Float64bits(g), g, math.Float64bits(v), v)
			}
		}
	}
}

// linkRows makes row r of a repeat the first links[r-1] values of row r−1,
// so consecutive rows share prefixes of chosen lengths: equal links build
// a run, a shorter one breaks it mid-way.
func linkRows(a *Tensor, links []int) {
	for r := 1; r < a.Rows; r++ {
		copy(a.RowView(r)[:links[r-1]], a.RowView(r-1))
	}
}

// specialOperand draws an m×n operand of normal values with ±0 at rate
// zeros and NaN, +Inf or −Inf at rate bad.
func specialOperand(m, n int, zeros, bad float64, rng *rand.Rand) *Tensor {
	t := randOperand(m, n, zeros, rng)
	for i := range t.Data {
		if rng.Float64() < bad {
			t.Data[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
	}
	return t
}

// The existing reference tests draw rows that never share a prefix; these
// build the layouts the prefix rule acts on and pin every output bit to
// the row-by-row unrolled kernel and to the row scored alone, with NaN and
// ±Inf in b, NaN in a, and ±0. Every other b is finite, so both of the
// kernel's zero rules run: skip every zero, or multiply a live group's
// zeros through.
func TestMatMulIntoSharedPrefixBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	draws := 0
	operands := func(m, k, n int) (*Tensor, *Tensor) {
		draws++
		return specialOperand(m, k, 0.2, 0.02, rng), specialOperand(k, n, 0.1, 0.05*float64(draws%2), rng)
	}

	// Runs of four rows sharing a prefix of every length 0…K.
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 11, 34, 66} {
		for p := 0; p <= k; p++ {
			a, b := operands(9, k, 5)
			linkRows(a, []int{p, p, p, 0, p, p, p, 0})
			assertMatchesUnrolled(t, fmt.Sprintf("runs of 4, prefix %d of %d", p, k), a, b)
		}
	}

	// A run broken mid-way: the third row keeps fewer shared values than
	// the first pair, then starts a run of its own.
	for _, links := range [][]int{{8, 6, 8, 8}, {8, 4, 12, 12}, {12, 9, 3, 12}, {7, 8, 8, 0}, {66, 33, 66, 65}} {
		a, b := operands(5, 66, 7)
		linkRows(a, links)
		assertMatchesUnrolled(t, fmt.Sprintf("broken run %v", links), a, b)
	}

	// All rows equal, one row, and K < 4.
	for _, k := range []int{1, 2, 3, 4, 9, 66} {
		a, b := operands(6, k, 4)
		linkRows(a, []int{k, k, k, k, k})
		assertMatchesUnrolled(t, fmt.Sprintf("all rows equal, K=%d", k), a, b)
		a, b = operands(1, k, 4)
		assertMatchesUnrolled(t, fmt.Sprintf("one row, K=%d", k), a, b)
	}

	// An all-zero shared prefix, of +0, of −0, and mixed: every group of
	// it is skipped, in the shared partial as in each row alone.
	for _, zero := range []float64{0, math.Copysign(0, -1)} {
		a, b := operands(8, 20, 6)
		for r := 0; r < a.Rows; r++ {
			for c := 0; c < 12; c++ {
				a.Set(r, c, zero)
			}
		}
		assertMatchesUnrolled(t, fmt.Sprintf("zero prefix %v", zero), a, b)
	}
	a, b := operands(4, 20, 6)
	for c := 0; c < 12; c++ {
		a.Set(0, c, 0)
		a.Set(1, c, 0)
		a.Set(2, c, math.Copysign(0, -1))
		a.Set(3, c, math.Copysign(0, -1))
	}
	assertMatchesUnrolled(t, "+0 run then −0 run", a, b)

	// The tower's own layout: 64 candidates × 4 stages, a 34-value prefix.
	a, b = operands(256, 66, 64)
	for r := 0; r < a.Rows; r++ {
		if r%4 != 0 {
			copy(a.RowView(r)[:34], a.RowView(r-1))
		}
	}
	assertMatchesUnrolled(t, "tower layout", a, b)
}

// fuzzPalette is what FuzzMatMulIntoMatchesReference builds operands from:
// ordinary values, both zeros, extremes that overflow or underflow in a
// product, and the non-finite values.
var fuzzPalette = [...]float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -3.25, 1e-3, 7,
	math.MaxFloat64, -math.MaxFloat64, 5e-324, 1e300,
	math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8_0000_dead_beef),
}

// FuzzMatMulIntoMatchesReference turns the input into a shape, per-row
// prefix links (how many leading values each row repeats from the one
// above) and operand values drawn from fuzzPalette, and requires
// MatMulInto's output to match the row-by-row unrolled kernel's and each
// row's result alone bit for bit (see assertMatchesUnrolled).
func FuzzMatMulIntoMatchesReference(f *testing.F) {
	f.Add([]byte{3, 65, 4, 34, 34, 34, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{7, 7, 2, 8, 6, 8, 0, 8, 8, 8, 0x0c, 0xd1, 0x2e})
	f.Add([]byte{1, 2, 1, 3, 3})
	f.Add([]byte{5, 11, 3, 255, 255, 255, 255, 0x00, 0x10, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m, k, n := 1+int(data[0])%8, 1+int(data[1])%70, 1+int(data[2])%9
		data = data[3:]
		links := make([]int, m)
		for r := range links {
			if r < len(data) {
				links[r] = int(data[r]) % (k + 1)
			}
		}
		data = data[min(m, len(data)):]
		// Two palette indices per byte; past the input's end, a fixed
		// pattern that keeps rows distinct.
		val := func(i int) float64 {
			if i/2 < len(data) {
				return fuzzPalette[data[i/2]>>(4*(i%2))&15]
			}
			return float64(i%13) - 6
		}
		a, b := New(m, k), New(k, n)
		for i := range a.Data {
			a.Data[i] = val(i)
		}
		for i := range b.Data {
			b.Data[i] = val(len(a.Data) + i)
		}
		linkRows(a, links)
		assertMatchesUnrolled(t, "fuzz", a, b)
	})
}
