package nn

// The conv forward kernel and the in-place backward accumulations must do,
// per output element, the floating-point operations of the code they
// replaced, in the same order (DESIGN.md §12.7). That code is kept here as
// reference ops and every comparison is on math.Float64bits.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lite/internal/tensor"
)

// refConv1DMaxPoolValue is conv1DMaxPoolValue as it stood before the
// one-pass-per-row rewrite: window position by window position.
func refConv1DMaxPoolValue(input *tensor.Tensor, filters []*tensor.Tensor, bias *tensor.Tensor) (*tensor.Tensor, []int) {
	d, n, f := input.Rows, input.Cols, len(filters)
	k := filters[0].Cols
	out := tensor.New(1, f)
	argmax := make([]int, f)
	for fi, w := range filters {
		best, bp := math.Inf(-1), 0
		for p := 0; p+k <= n; p++ {
			var s float64
			for r := 0; r < d; r++ {
				irow := input.Data[r*n:]
				wrow := w.Data[r*k:]
				for c := 0; c < k; c++ {
					s += irow[p+c] * wrow[c]
				}
			}
			if s > best {
				best, bp = s, p
			}
		}
		out.Data[fi] = best + bias.Data[fi]
		argmax[fi] = bp
	}
	return out, argmax
}

// refConv1DMaxPool is Conv1DMaxPool with the backward pass that built one
// temporary tensor per filter gradient and one for the bias gradient.
func refConv1DMaxPool(input *Node, filters []*Node, bias *Node) *Node {
	d, n, f := input.Value.Rows, input.Value.Cols, len(filters)
	vals := make([]*tensor.Tensor, f)
	for i, filt := range filters {
		vals[i] = filt.Value
	}
	out, argmax := refConv1DMaxPoolValue(input.Value, vals, bias.Value)
	k := vals[0].Cols
	parents := append(append([]*Node{input}, filters...), bias)
	back := func(g *tensor.Tensor) {
		var gin *tensor.Tensor
		if input.requiresGrad {
			gin = tensor.New(d, n)
		}
		gb := tensor.New(1, f)
		for fi, filt := range filters {
			gv := g.Data[fi]
			gb.Data[fi] = gv
			p := argmax[fi]
			if filt.requiresGrad {
				gw := tensor.New(d, k)
				for r := 0; r < d; r++ {
					for c := 0; c < k; c++ {
						gw.Data[r*k+c] = gv * input.Value.Data[r*n+p+c]
					}
				}
				filt.accumGrad(gw)
			}
			if gin != nil {
				w := filt.Value
				for r := 0; r < d; r++ {
					for c := 0; c < k; c++ {
						gin.Data[r*n+p+c] += gv * w.Data[r*k+c]
					}
				}
			}
		}
		if gin != nil {
			input.accumGrad(gin)
		}
		if bias.requiresGrad {
			bias.accumGrad(gb)
		}
	}
	return newNode(out, back, parents...)
}

// refEmbeddingLookup is EmbeddingLookup with the backward pass that zeroed
// and added a full vocab×D temporary per call.
func refEmbeddingLookup(table *Node, ids []int) *Node {
	d, n := table.Value.Cols, len(ids)
	v := embeddingLookupValue(nil, table.Value, ids)
	back := func(g *tensor.Tensor) {
		if !table.requiresGrad {
			return
		}
		gt := tensor.New(table.Value.Rows, table.Value.Cols)
		for j, id := range ids {
			if id < 0 {
				continue
			}
			grow := gt.RowView(id)
			for r := 0; r < d; r++ {
				grow[r] += g.Data[r*n+j]
			}
		}
		table.accumGrad(gt)
	}
	return newNode(v, back, table)
}

// refMatMul is MatMul with both gradients materialised before they are
// added. ∂b is added one row of a at a time, the order the per-instance
// training loops produced by running one backward pass per row, which the
// minibatched step must keep (DESIGN.md §12.8).
func refMatMul(a, b *Node) *Node {
	v := tensor.MatMul(a.Value, b.Value)
	back := func(g *tensor.Tensor) {
		if a.requiresGrad {
			a.accumGrad(tensor.MatMulTransB(g, b.Value))
		}
		if b.requiresGrad {
			for r := 0; r < g.Rows; r++ {
				b.accumGrad(tensor.MatMulTransA(tensor.FromRow(a.Value.RowView(r)), tensor.FromRow(g.RowView(r))))
			}
		}
	}
	return newNode(v, back, a, b)
}

// refReLU is ReLU with its input gradient materialised before it is
// added.
func refReLU(a *Node) *Node {
	v := tensor.New(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		if x > 0 {
			v.Data[i] = x
		}
	}
	back := func(g *tensor.Tensor) {
		gi := tensor.New(g.Rows, g.Cols)
		for i, x := range a.Value.Data {
			if x > 0 {
				gi.Data[i] = g.Data[i]
			}
		}
		a.accumGrad(gi)
	}
	return newNode(v, back, a)
}

// sparsify zeroes each element with probability sparsity; a third of the
// zeros are −0.
func sparsify(t *tensor.Tensor, sparsity float64, rng *rand.Rand) *tensor.Tensor {
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

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x (%v), reference %x (%v)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// twin returns two parameter nodes with the same value and the same
// non-zero starting gradient, one for the kernel under test and one for the
// reference.
func twin(v *tensor.Tensor, rng *rand.Rand) (*Node, *Node) {
	g := tensor.Randn(v.Rows, v.Cols, 1, rng)
	a, b := NewParam(v.Clone(), "kernel"), NewParam(v.Clone(), "reference")
	a.Grad, b.Grad = g.Clone(), g.Clone()
	return a, b
}

// weightedSum reduces x to a scalar with fixed random weights so every
// output element sends a distinct gradient back.
func weightedSum(x *Node, w *tensor.Tensor) *Node { return Sum(Mul(x, NewConst(w))) }

func TestConv1DMaxPoolValueMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 3, 16} {
		for k := 1; k <= 5; k++ {
			for _, n := range []int{k, k + 1, k + 6, 96} {
				for _, sparsity := range []float64{0, 0.5, 1} {
					name := fmt.Sprintf("d=%d/k=%d/n=%d/zeros=%v", d, k, n, sparsity)
					in := sparsify(tensor.Randn(d, n, 1, rng), sparsity, rng)
					filters := make([]*tensor.Tensor, 1+rng.Intn(8))
					for i := range filters {
						filters[i] = sparsify(tensor.Randn(d, k, 1, rng), 0.1, rng)
					}
					requireSameConv(t, name, in, filters, tensor.Randn(1, len(filters), 1, rng))
				}
			}
		}
	}
}

// padTail zeroes every column of in from live on, about a third of the
// zeros as −0: the shape EmbeddingLookup gives a sequence padded with −1
// ids, where conv1DMaxPoolValue convolves the zero tail once.
func padTail(in *tensor.Tensor, live int, rng *rand.Rand) *tensor.Tensor {
	for r := 0; r < in.Rows; r++ {
		for c := live; c < in.Cols; c++ {
			in.Data[r*in.Cols+c] = 0
			if rng.Intn(3) == 0 {
				in.Data[r*in.Cols+c] = math.Copysign(0, -1)
			}
		}
	}
	return in
}

// dirtyArena returns an arena whose next allocations hold NaN, and whose
// index scratch holds 1s, as the memory an earlier step left behind may:
// an op that reads a float it did not write first shows up as a NaN.
func dirtyArena() *Arena {
	ar := new(Arena)
	for i := range ar.Floats(1 << 16) {
		ar.floats[i] = math.NaN()
	}
	junk := ints(ar, 1<<12)
	for i := range junk {
		junk[i] = 1
	}
	ar.Reset()
	return ar
}

// requireSameConv checks conv1DMaxPoolValue against the reference, on the
// heap and in a dirty arena, with live computed once by the caller as the
// CNN encoder does for its banks.
func requireSameConv(t *testing.T, name string, in *tensor.Tensor, filters []*tensor.Tensor, bias *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	want, wantArg := refConv1DMaxPoolValue(in, filters, bias)
	var heap *tensor.Tensor
	for _, ar := range []*Arena{nil, dirtyArena()} {
		got, gotArg := conv1DMaxPoolValue(ar, in, liveCols(in), filters, bias)
		what := fmt.Sprintf("%s (arena %t)", name, ar != nil)
		requireSameBits(t, what+": pooled", got.Data, want.Data)
		for i := range wantArg {
			if gotArg[i] != wantArg[i] {
				t.Fatalf("%s: argmax[%d] = %d, reference %d", what, i, gotArg[i], wantArg[i])
			}
		}
		if ar == nil {
			heap = got
		}
	}
	return heap
}

// Trailing zero columns — none live, fewer live than the kernel is wide,
// every width in between, all live — pool to the reference's bits.
func TestConv1DMaxPoolValuePaddingMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, d := range []int{1, 3, 16} {
		for k := 1; k <= 5; k++ {
			for _, n := range []int{k, k + 4, 96} {
				for _, live := range []int{0, k - 1, k, n / 3, n - k, n - k + 1, n} {
					if live < 0 || live > n {
						continue
					}
					name := fmt.Sprintf("d=%d/k=%d/n=%d/live=%d", d, k, n, live)
					in := padTail(sparsify(tensor.Randn(d, n, 1, rng), 0.2, rng), live, rng)
					filters := make([]*tensor.Tensor, 1+rng.Intn(8))
					for i := range filters {
						filters[i] = sparsify(tensor.Randn(d, k, 1, rng), 0.1, rng)
					}
					requireSameConv(t, name, in, filters, tensor.Randn(1, len(filters), 1, rng))
				}
			}
		}
	}
}

// A tie between the last live window and the zero tail pools the live one;
// a zero tail beating every live window pools position live, the first
// padded window.
func TestConv1DMaxPoolValuePaddingBoundaryArgmax(t *testing.T) {
	for _, c := range []struct {
		name    string
		in, w   []float64
		wantArg int
	}{
		{"tie keeps the live window", []float64{5, -1, -2, -3, 0, 0, 0, 0}, []float64{0, 1}, 3},
		{"zero tail beats live windows", []float64{-1, -2, -3, -4, 0, 0, 0, 0}, []float64{1, 1}, 4},
	} {
		in := tensor.FromSlice(1, len(c.in), c.in)
		w := tensor.FromSlice(1, len(c.w), c.w)
		requireSameConv(t, c.name, in, []*tensor.Tensor{w}, tensor.New(1, 1))
		if _, arg := conv1DMaxPoolValue(nil, in, liveCols(in), []*tensor.Tensor{w}, tensor.New(1, 1)); arg[0] != c.wantArg {
			t.Fatalf("%s: argmax %d, want %d", c.name, arg[0], c.wantArg)
		}
	}
}

// A NaN or ±Inf weight next to a padded tail still poisons the pooled
// value: skipping the padded positions must not make it finite.
func TestConv1DMaxPoolValueNonFiniteWeightBesidePadding(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, live := range []int{0, 2, 5} {
			name := fmt.Sprintf("weight=%v/live=%d", bad, live)
			in := padTail(tensor.Randn(2, 12, 1, rng), live, rng)
			w := tensor.Randn(2, 3, 1, rng)
			w.Data[rng.Intn(len(w.Data))] = bad
			got := requireSameConv(t, name, in, []*tensor.Tensor{w}, tensor.New(1, 1))
			if v := got.Data[0]; !math.IsNaN(v) && !math.IsInf(v, 0) {
				t.Fatalf("%s: pooled %v, want non-finite", name, v)
			}
		}
	}
}

// A filter response that ties across positions (here: every window sums to
// the same value) must pool the first one, as strict > always has.
func TestConv1DMaxPoolValueKeepsFirstArgmaxOnTies(t *testing.T) {
	in := tensor.New(2, 9)
	in.Fill(0.5)
	w := tensor.New(2, 3)
	w.Fill(0.25)
	_, arg := conv1DMaxPoolValue(nil, in, liveCols(in), []*tensor.Tensor{w}, tensor.New(1, 1))
	if arg[0] != 0 {
		t.Fatalf("argmax on a constant response = %d, want 0", arg[0])
	}
}

// The conv and embedding ops, on the heap and in a dirty arena, send the
// reference's gradients back bit for bit.
func TestConvAndEmbeddingBackwardMatchReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const vocab, d = 12, 5
	for k := 1; k <= 5; k++ {
		for _, n := range []int{k, k + 3, 40} {
			// Repeated ids (n can exceed vocab) and −1 padding.
			ids := make([]int, n)
			for i := range ids {
				ids[i] = rng.Intn(vocab+2) - 2
				if ids[i] < 0 {
					ids[i] = -1
				}
			}
			ids[rng.Intn(n)] = 3
			for _, ar := range []*Arena{nil, dirtyArena()} {
				name := fmt.Sprintf("k=%d/n=%d/arena=%t", k, n, ar != nil)
				tab, refTab := twin(sparsify(tensor.Randn(vocab, d, 1, rng), 0.2, rng), rng)
				const f = 4
				filts, refFilts := make([]*Node, f), make([]*Node, f)
				for i := range filts {
					filts[i], refFilts[i] = twin(tensor.Randn(d, k, 1, rng), rng)
				}
				bias, refBias := twin(tensor.Randn(1, f, 1, rng), rng)
				w := tensor.Randn(1, f, 1, rng)
				// Two backward passes accumulate into the same buffers.
				for pass := 0; pass < 2; pass++ {
					if ar != nil {
						ar.Reset()
					}
					Backward(weightedSum(Conv1DMaxPool(EmbeddingLookup(ar, tab, ids), filts, bias), w))
					Backward(weightedSum(refConv1DMaxPool(refEmbeddingLookup(refTab, ids), refFilts, refBias), w))
				}
				requireSameBits(t, name+": table grad", tab.Grad.Data, refTab.Grad.Data)
				requireSameBits(t, name+": bias grad", bias.Grad.Data, refBias.Grad.Data)
				for i := range filts {
					requireSameBits(t, fmt.Sprintf("%s: filter %d grad", name, i), filts[i].Grad.Data, refFilts[i].Grad.Data)
				}
			}
		}
	}
}

// refCNNForward is CNNEncoder.Forward as it stood before the encoder
// scanned the embedding for live columns once for all its banks: a heap
// graph in which each bank's Conv1DMaxPool scans it again.
func refCNNForward(c *CNNEncoder, ids []int) *Node {
	emb := EmbeddingLookup(nil, c.Embedding, ids)
	pooled := make([]*Node, len(c.banks))
	for i, bank := range c.banks {
		pooled[i] = Conv1DMaxPool(emb, bank, c.biases[i])
	}
	return ReLU(c.Proj.Forward(Concat(pooled...)))
}

// The CNN encoder — Forward on the heap and on a dirty arena, and Infer —
// matches the per-bank reference bit for bit in its value, and the graph
// paths in every parameter's gradient, over sequences with no padding,
// some, and padding only.
func TestCNNEncoderMatchesPerBankReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const vocab = 20
	for _, pad := range []int{0, 7, 30} {
		ids := make([]int, 30)
		for i := range ids {
			ids[i] = rng.Intn(vocab)
			if i >= len(ids)-pad {
				ids[i] = -1
			}
		}
		ref := NewCNNEncoder(vocab, 6, []int{2, 3, 4}, 3, 5, rand.New(rand.NewSource(int64(pad))))
		w := tensor.Randn(1, ref.OutDim, 1, rng)
		Backward(weightedSum(refCNNForward(ref, ids), w))
		want := refCNNForward(ref, ids).Value
		for _, ar := range []*Arena{nil, dirtyArena()} {
			name := fmt.Sprintf("pad=%d/arena=%t", pad, ar != nil)
			c := ref.Clone()
			out := c.Forward(ar, ids)
			requireSameBits(t, name+": value", out.Value.Data, want.Data)
			Backward(weightedSum(out, w))
			for i, p := range c.Params() {
				requireSameBits(t, fmt.Sprintf("%s: %s grad", name, p.Name()), p.Grad.Data, ref.Params()[i].Grad.Data)
			}
		}
		requireSameBits(t, fmt.Sprintf("pad=%d: Infer", pad), ref.Infer(ids).Data, want.Data)
	}
}

func TestMatMulBackwardMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// k is b.Rows, the width ∂a = g·bᵀ is computed four at a time, and m
	// the rows ∂b = aᵀ·g takes four at a time: every tail length and more
	// than one full group of each.
	for _, m := range []int{1, 3, 4, 9} {
		for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
			for _, n := range []int{1, 6} {
				for _, sparsity := range []float64{0, 0.5, 1} {
					name := fmt.Sprintf("%dx%dx%d/zeros=%v", m, k, n, sparsity)
					a, refA := twin(sparsify(tensor.Randn(m, k, 1, rng), sparsity, rng), rng)
					b, refB := twin(sparsify(tensor.Randn(k, n, 1, rng), 0.1, rng), rng)
					w := tensor.Randn(m, n, 1, rng)
					requireSameMatMulBackward(t, name, a, b, refA, refB, w)
				}
			}
		}
	}
}

// Zeros, −0, NaN and ±Inf in either operand: the four-wide ∂a and ∂b
// loops must produce the reference's bits for them too, NaN payloads
// included.
func TestMatMulBackwardNonFiniteMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	spike := func(v *tensor.Tensor) *tensor.Tensor {
		for i := range v.Data {
			if rng.Intn(4) == 0 {
				v.Data[i] = specials[rng.Intn(len(specials))]
			}
		}
		return v
	}
	for _, m := range []int{2, 6} {
		for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
			for _, side := range []string{"a", "b", "both"} {
				name := fmt.Sprintf("%dx%dx5/specials in %s", m, k, side)
				av, bv := tensor.Randn(m, k, 1, rng), tensor.Randn(k, 5, 1, rng)
				if side != "b" {
					spike(av)
				}
				if side != "a" {
					spike(bv)
				}
				a, refA := twin(av, rng)
				b, refB := twin(bv, rng)
				requireSameMatMulBackward(t, name, a, b, refA, refB, tensor.Randn(m, 5, 1, rng))
			}
		}
	}
}

// ReLU's backward adds into the gradient in place; inputs and upstream
// gradients holding ±0, NaN and ±Inf must give the reference's bits.
func TestReLUBackwardMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, shape := range [][2]int{{1, 1}, {3, 7}, {16, 64}} {
		x, w := tensor.Randn(shape[0], shape[1], 1, rng), tensor.Randn(shape[0], shape[1], 1, rng)
		for _, v := range []*tensor.Tensor{x, w} {
			for i := range v.Data {
				if rng.Intn(4) == 0 {
					v.Data[i] = specials[rng.Intn(len(specials))]
				}
			}
		}
		a, refA := twin(x, rng)
		for pass := 0; pass < 2; pass++ {
			Backward(weightedSum(ReLU(a), w))
			Backward(weightedSum(refReLU(refA), w))
		}
		requireSameBits(t, fmt.Sprintf("%dx%d: input grad", shape[0], shape[1]), a.Grad.Data, refA.Grad.Data)
	}
	// As an intermediate node, whose gradient starts at +0 in the arena.
	x := NewParam(tensor.Randn(4, 5, 1, rng), "x")
	refX := NewParam(x.Value.Clone(), "x")
	w, m := tensor.Randn(4, 5, 1, rng), NewConst(tensor.Randn(4, 5, 1, rng))
	Backward(weightedSum(ReLU(Mul(x, m)), w))
	Backward(weightedSum(refReLU(Mul(refX, m)), w))
	requireSameBits(t, "intermediate input grad", x.Grad.Data, refX.Grad.Data)
}

// requireSameMatMulBackward runs two backward passes through MatMul and
// through refMatMul and compares both operands' gradients bit for bit.
func requireSameMatMulBackward(t *testing.T, name string, a, b, refA, refB *Node, w *tensor.Tensor) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		Backward(weightedSum(MatMul(a, b), w))
		Backward(weightedSum(refMatMul(refA, refB), w))
	}
	requireSameBits(t, name+": a grad", a.Grad.Data, refA.Grad.Data)
	requireSameBits(t, name+": b grad", b.Grad.Data, refB.Grad.Data)
}

// The fused bias-add + ReLU pass of MLP.InferBatch must give the bits of
// the graph's AddRowBroadcast followed by ReLU, −0 and NaN sums included.
func TestAddBiasInPlaceMatchesGraphOps(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	m := tensor.FromSlice(2, 4, []float64{1, -1, negZero, nan, 0, 2.5, -3, negZero})
	bias := tensor.FromRow([]float64{0.5, 0.5, 0, 1})
	for _, relu := range []bool{false, true} {
		want := AddRowBroadcast(NewConst(m.Clone()), NewConst(bias))
		if relu {
			want = ReLU(want)
		}
		got := m.Clone()
		addBiasInPlace(got, bias, relu)
		requireSameBits(t, fmt.Sprintf("relu=%v", relu), got.Data, want.Value.Data)
	}
}
