// Package tensor provides dense float64 matrices and vectors with the
// linear-algebra primitives required by the neural-network stack in
// internal/nn. Tensors are rank-1 or rank-2, stored row-major.
//
// The package is deliberately small: it implements exactly the operations
// the LITE models need (matmul, broadcast arithmetic, reductions,
// convolution helpers) with no external dependencies.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Tensor is a dense row-major matrix. A vector is represented as a 1×n or
// n×1 matrix depending on context; most code in this repository uses
// row-vectors (1×n).
type Tensor struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero-initialized tensor with the given shape.
func New(rows, cols int) *Tensor {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) in a rows×cols tensor.
func FromSlice(rows, cols int, data []float64) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %dx%d", len(data), rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// FromRow returns a 1×n tensor copying the given values.
func FromRow(vals []float64) *Tensor {
	t := New(1, len(vals))
	copy(t.Data, vals)
	return t
}

// Randn returns a tensor with entries drawn from N(0, std²) using rng.
func Randn(rows, cols int, std float64, rng *rand.Rand) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// XavierUniform returns a tensor initialized with the Glorot/Xavier uniform
// scheme, appropriate for layers followed by ReLU or tanh.
func XavierUniform(rows, cols int, rng *rand.Rand) *Tensor {
	limit := math.Sqrt(6.0 / float64(rows+cols))
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return t
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Rows, t.Cols)
	copy(c.Data, t.Data)
	return c
}

// At returns the element at row i, column j.
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.Cols+j] }

// Set assigns the element at row i, column j.
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.Cols+j] = v }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return t.Rows * t.Cols }

// SameShape reports whether t and o have identical dimensions.
func (t *Tensor) SameShape(o *Tensor) bool { return t.Rows == o.Rows && t.Cols == o.Cols }

// Zero sets every element to 0 in place.
func (t *Tensor) Zero() { clear(t.Data) }

// Fill sets every element to v in place.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// RowView returns row i as a view into the underlying data.
func (t *Tensor) RowView(i int) []float64 { return t.Data[i*t.Cols : (i+1)*t.Cols] }

// MatMul computes a×b into a new tensor. Panics on shape mismatch.
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a×b, reusing out's storage. out must already
// have shape a.Rows×b.Cols and must not alias a or b.
//
// Each output element accumulates its products k-ascending from zero with
// one rounding per multiply and one per add — the order the batch-vs-graph
// and width-invariance goldens rest on (DESIGN.md §12.7).
//
// Which products count is the rule of the loop this one replaced, which
// walked k in groups of four and skipped a group only when all four of
// a's values were zero. A zero inside a live group contributed o + 0·b:
// NaN when b holds NaN or ±Inf there, so a non-finite weight surfaces in
// the output instead of staying silently finite, and exactly o otherwise
// (an accumulator that starts at +0 is never −0). So when every value of
// b is finite every zero of a is skipped, and when one is not, a live
// group's zeros are multiplied through; either way each output element
// gets that loop's bits. The kept products are added four at a time with
// the output element in a register. How they fall into blocks of four
// cannot change a finite result, since every add rounds on its own; it
// only decides which NaN an add of two NaNs returns.
//
// Rows that repeat a prefix share its partial sums. Let p be the number of
// leading values rows i and i+1 have in common (compared bit for bit),
// rounded down to a multiple of four; the run is rows i… whose first p
// values are row i's. Columns [0,p) are accumulated once, into row i's
// output, that partial is copied into the run's other rows, and each row
// then finishes over [p,K), continuing from the products of the prefix
// still queued for a block. p falls on a group boundary, so every
// decision about a product is the one the row would meet alone, and every
// block is too: each output element runs the operations of the row
// multiplied alone, in the same order, and gets the same bits, NaN
// payloads included. A candidate's stage rows in the NECS tower input
// repeat its dense prefix (DESIGN.md §12.2); rows with nothing in common
// cost one comparison each.
func MatMulInto(out, a, b *Tensor) {
	if out.Rows != a.Rows || out.Cols != b.Cols || a.Cols != b.Rows {
		panic("tensor: matmul shape mismatch")
	}
	n, kk := b.Cols, a.Cols
	keepZeros := !allFinite(b.Data)
	out.Zero()
	for i := 0; i < a.Rows; {
		arow := a.Data[i*kk : (i+1)*kk]
		// Rows [i, j) are the run: each repeats arow's first p values.
		j, p := i+1, 0
		if j < a.Rows {
			p = sharedPrefix(arow, a.Data[j*kk:(j+1)*kk]) &^ 3
		}
		for p > 0 && j < a.Rows && sharedPrefix(arow[:p], a.Data[j*kk:j*kk+p]) == p {
			j++
		}
		// shared holds the prefix's kept products not yet added when it
		// ends; every row of the run continues from them.
		var shared terms
		if p > 0 {
			orow := out.Data[i*n : (i+1)*n]
			shared.accumulate(orow, arow[:p], b.Data, 0, keepZeros)
			for r := i + 1; r < j; r++ {
				copy(out.Data[r*n:(r+1)*n], orow)
			}
		}
		for r := i; r < j; r++ {
			q, orow := shared, out.Data[r*n:(r+1)*n]
			q.accumulate(orow, a.Data[r*kk:(r+1)*kk], b.Data, p, keepZeros)
			if q.t > 0 {
				q.flush(orow, b.Data)
			}
		}
		i = j
	}
}

// allFinite reports whether no value of x is NaN or ±Inf.
func allFinite(x []float64) bool {
	for _, v := range x {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// sharedPrefix returns how many leading values x and y have in common,
// compared by their bits: −0 differs from +0, and a NaN matches only the
// same NaN.
func sharedPrefix(x, y []float64) int {
	y = y[:len(x)]
	for k, v := range x {
		if math.Float64bits(v) != math.Float64bits(y[k]) {
			return k
		}
	}
	return len(x)
}

// terms queues the kept terms of one output row that are not yet added:
// fewer than four after a full group, up to seven while one is split and
// up to six after a partial last group.
type terms struct {
	ks [8]int
	as [8]float64
	t  int
}

// accumulate adds arow[k]·b[k,:] into orow for k from k0 (a multiple of
// four) to len(arow), in ascending k after the terms already queued, for
// every k MatMulInto's rule keeps: a's non-zero values, and with keepZeros
// also the zeros of a full group of four that holds a non-zero value. Kept
// terms are added four at a time; fewer than four stay queued for flush.
// A full group whose four terms are all kept while none is queued goes
// straight to the inner loop. The queue is what lets a row in a run
// continue from the prefix's leftover terms exactly as it would alone.
func (q *terms) accumulate(orow, arow, b []float64, k0 int, keepZeros bool) {
	n, t := len(orow), q.t
	g := k0
	for ; g+4 <= len(arow); g += 4 {
		grp := arow[g : g+4 : g+4]
		a0, a1, a2, a3 := grp[0], grp[1], grp[2], grp[3]
		var k [4]int
		if t == 0 && (keepZeros || a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0) {
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			k = [4]int{g, g + 1, g + 2, g + 3}
		} else {
			// With keepZeros nothing is ever queued before the tail, so
			// only a finite b's zeros are dropped here.
			for c, v := range grp {
				q.ks[t], q.as[t] = g+c, v
				if v != 0 {
					t++
				}
			}
			if t < 4 {
				continue
			}
			a0, a1, a2, a3 = q.as[0], q.as[1], q.as[2], q.as[3]
			k = [4]int{q.ks[0], q.ks[1], q.ks[2], q.ks[3]}
			t -= 4
			for c := range t {
				q.ks[c], q.as[c] = q.ks[4+c], q.as[4+c]
			}
		}
		// Re-slice the four rows of b to orow's length so the inner
		// loop carries no bounds checks.
		b0 := b[k[0]*n:][:len(orow)]
		b1 := b[k[1]*n:][:len(orow)]
		b2 := b[k[2]*n:][:len(orow)]
		b3 := b[k[3]*n:][:len(orow)]
		for j, o := range orow {
			orow[j] = (((o + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
		}
	}
	// The zeros of a partial last group are skipped whatever b holds, as
	// the loop before the unroll skipped them.
	for ; g < len(arow); g++ {
		if v := arow[g]; v != 0 {
			q.ks[t], q.as[t] = g, v
			t++
		}
	}
	q.t = t
}

// flush adds the queued terms into orow one at a time.
func (q *terms) flush(orow, b []float64) {
	n := len(orow)
	for i, av := range q.as[:q.t] {
		brow := b[q.ks[i]*n:][:len(orow)]
		for j, o := range orow {
			orow[j] = o + av*brow[j]
		}
	}
	q.t = 0
}

// MatMulTransA computes aᵀ×b into a new tensor.
func MatMulTransA(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTransA shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulTransB computes a×bᵀ into a new tensor.
func MatMulTransB(a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTransB shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
	return out
}

// AddInPlace computes a += b elementwise.
func AddInPlace(a, b *Tensor) {
	mustSameShape("add", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Sum returns the sum over all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += v
	}
	return s
}

// ColMaxInto writes, for each column j, the maximum over rows into out
// (1×cols) and the argmax row into arg[j], overwriting both; strict >
// keeps the first maximum.
func (t *Tensor) ColMaxInto(out *Tensor, arg []int) {
	if out.Rows != 1 || out.Cols != t.Cols || len(arg) != t.Cols {
		panic("tensor: ColMaxInto shape mismatch")
	}
	for j := 0; j < t.Cols; j++ {
		best, bi := math.Inf(-1), 0
		for i := 0; i < t.Rows; i++ {
			if v := t.Data[i*t.Cols+j]; v > best {
				best, bi = v, i
			}
		}
		out.Data[j] = best
		arg[j] = bi
	}
}

// String renders the tensor for debugging.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor(%dx%d)[", t.Rows, t.Cols)
	n := t.Size()
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g", t.Data[i])
	}
	if t.Size() > 8 {
		b.WriteString(", …")
	}
	b.WriteString("]")
	return b.String()
}

func mustSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
