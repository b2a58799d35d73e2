package nn

import (
	"fmt"
	"math"

	"lite/internal/tensor"
)

// MatMul returns a×b with gradient flow to both operands.
func MatMul(a, b *Node) *Node {
	v := tensor.MatMul(a.Value, b.Value)
	back := func(g *tensor.Tensor) {
		if a.requiresGrad {
			// ∂a = g·bᵀ: each element is one dot product, finished in a
			// register and added to the gradient once. Four elements share
			// each pass over g's row, each in its own j-ascending
			// accumulator, so every element sums in the serial order.
			ga, bv := a.ensureGrad().Data, b.Value
			for i := 0; i < g.Rows; i++ {
				grow := g.RowView(i)
				arow := ga[i*bv.Rows:][:bv.Rows]
				k := 0
				for ; k+4 <= bv.Rows; k += 4 {
					b0 := bv.RowView(k)[:len(grow)]
					b1 := bv.RowView(k + 1)[:len(grow)]
					b2 := bv.RowView(k + 2)[:len(grow)]
					b3 := bv.RowView(k + 3)[:len(grow)]
					var s0, s1, s2, s3 float64
					for j, gv := range grow {
						s0 += gv * b0[j]
						s1 += gv * b1[j]
						s2 += gv * b2[j]
						s3 += gv * b3[j]
					}
					arow[k] += s0
					arow[k+1] += s1
					arow[k+2] += s2
					arow[k+3] += s3
				}
				for ; k < bv.Rows; k++ {
					brow := bv.RowView(k)[:len(grow)]
					var s float64
					for j, gv := range grow {
						s += gv * brow[j]
					}
					arow[k] += s
				}
			}
		}
		if b.requiresGrad {
			// ∂b = aᵀ·g, added into the gradient in place: element (i, j)
			// gains a[r][i]·g[r][j] for r ascending, one rounded product and
			// one add each, so a batch of rows accumulates exactly as that
			// many one-row backward passes would.
			gb, n := b.ensureGrad().Data, g.Cols
			for r := 0; r < g.Rows; r++ {
				grow := g.RowView(r)
				for i, av := range a.Value.RowView(r) {
					if av == 0 {
						continue
					}
					brow := gb[i*n:][:n]
					for j, gv := range grow {
						brow[j] += float64(av * gv)
					}
				}
			}
		}
	}
	return newNode(v, back, a, b)
}

// Add returns a+b elementwise.
func Add(a, b *Node) *Node {
	v := tensor.Add(a.Value, b.Value)
	back := func(g *tensor.Tensor) {
		if a.requiresGrad {
			a.accumGrad(g)
		}
		if b.requiresGrad {
			b.accumGrad(g)
		}
	}
	return newNode(v, back, a, b)
}

// Sub returns a−b elementwise.
func Sub(a, b *Node) *Node {
	v := tensor.Sub(a.Value, b.Value)
	back := func(g *tensor.Tensor) {
		if a.requiresGrad {
			a.accumGrad(g)
		}
		if b.requiresGrad {
			b.accumGrad(tensor.Scale(g, -1))
		}
	}
	return newNode(v, back, a, b)
}

// Mul returns a⊙b (Hadamard product).
func Mul(a, b *Node) *Node {
	v := tensor.Mul(a.Value, b.Value)
	back := func(g *tensor.Tensor) {
		if a.requiresGrad {
			a.accumGrad(tensor.Mul(g, b.Value))
		}
		if b.requiresGrad {
			b.accumGrad(tensor.Mul(g, a.Value))
		}
	}
	return newNode(v, back, a, b)
}

// Scale returns s·a.
func Scale(a *Node, s float64) *Node {
	v := tensor.Scale(a.Value, s)
	back := func(g *tensor.Tensor) {
		if a.requiresGrad {
			a.accumGrad(tensor.Scale(g, s))
		}
	}
	return newNode(v, back, a)
}

// AddRowBroadcast adds the 1×n bias row b to every row of m.
func AddRowBroadcast(m, b *Node) *Node {
	v := tensor.AddRowBroadcast(m.Value, b.Value)
	back := func(g *tensor.Tensor) {
		if m.requiresGrad {
			m.accumGrad(g)
		}
		if b.requiresGrad {
			// Row by row into the gradient, as one-row passes would add.
			gb := b.ensureGrad().Data
			for i := 0; i < g.Rows; i++ {
				for j, gv := range g.RowView(i) {
					gb[j] += gv
				}
			}
		}
	}
	return newNode(v, back, m, b)
}

// ReLU applies max(0,x) elementwise.
func ReLU(a *Node) *Node {
	v := tensor.Apply(a.Value, func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	})
	back := func(g *tensor.Tensor) {
		if !a.requiresGrad {
			return
		}
		// Straight into the gradient. An element with x ≤ 0 would add +0,
		// and a gradient that starts at +0 and is only added to never
		// holds −0, so skipping it changes no bit.
		ga := a.ensureGrad().Data
		for i, x := range a.Value.Data {
			if x > 0 {
				ga[i] += g.Data[i]
			}
		}
	}
	return newNode(v, back, a)
}

// Sigmoid applies the logistic function elementwise.
func Sigmoid(a *Node) *Node {
	v := tensor.Apply(a.Value, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) })
	back := func(g *tensor.Tensor) {
		if !a.requiresGrad {
			return
		}
		gi := tensor.New(g.Rows, g.Cols)
		for i, s := range v.Data {
			gi.Data[i] = g.Data[i] * s * (1 - s)
		}
		a.accumGrad(gi)
	}
	return newNode(v, back, a)
}

// Tanh applies tanh elementwise.
func Tanh(a *Node) *Node {
	v := tensor.Apply(a.Value, math.Tanh)
	back := func(g *tensor.Tensor) {
		if !a.requiresGrad {
			return
		}
		gi := tensor.New(g.Rows, g.Cols)
		for i, t := range v.Data {
			gi.Data[i] = g.Data[i] * (1 - t*t)
		}
		a.accumGrad(gi)
	}
	return newNode(v, back, a)
}

// Concat joins nodes with equal row counts side by side: m×n₁, m×n₂, …
// become one m×Σn node whose row i is row i of every part, in order.
func Concat(parts ...*Node) *Node {
	vals := make([]*tensor.Tensor, len(parts))
	for i, p := range parts {
		vals[i] = p.Value
	}
	v := tensor.Concat(vals...)
	back := func(g *tensor.Tensor) {
		off := 0
		for _, p := range parts {
			w := p.Value.Cols
			if p.requiresGrad {
				gp := p.ensureGrad()
				for i := 0; i < g.Rows; i++ {
					dst := gp.RowView(i)
					for j, x := range g.RowView(i)[off : off+w] {
						dst[j] += x
					}
				}
			}
			off += w
		}
	}
	return newNode(v, back, parts...)
}

// Slice returns columns [lo,hi) of a 1×n row vector as a 1×(hi−lo) node.
func Slice(a *Node, lo, hi int) *Node {
	if a.Value.Rows != 1 {
		panic("nn: Slice expects a 1×n row vector")
	}
	if lo < 0 || hi > a.Value.Cols || lo >= hi {
		panic(fmt.Sprintf("nn: Slice bounds [%d,%d) out of range for width %d", lo, hi, a.Value.Cols))
	}
	v := tensor.New(1, hi-lo)
	copy(v.Data, a.Value.Data[lo:hi])
	back := func(g *tensor.Tensor) {
		if !a.requiresGrad {
			return
		}
		gi := tensor.New(1, a.Value.Cols)
		copy(gi.Data[lo:hi], g.Data)
		a.accumGrad(gi)
	}
	return newNode(v, back, a)
}

// Sum reduces all elements to a 1×1 scalar.
func Sum(a *Node) *Node {
	v := tensor.New(1, 1)
	v.Data[0] = a.Value.Sum()
	back := func(g *tensor.Tensor) {
		if !a.requiresGrad {
			return
		}
		gi := tensor.New(a.Value.Rows, a.Value.Cols)
		gi.Fill(g.Data[0])
		a.accumGrad(gi)
	}
	return newNode(v, back, a)
}

// Mean reduces all elements to their mean as a 1×1 scalar.
func Mean(a *Node) *Node {
	n := float64(a.Value.Size())
	v := tensor.New(1, 1)
	v.Data[0] = a.Value.Sum() / n
	back := func(g *tensor.Tensor) {
		if !a.requiresGrad {
			return
		}
		gi := tensor.New(a.Value.Rows, a.Value.Cols)
		gi.Fill(g.Data[0] / n)
		a.accumGrad(gi)
	}
	return newNode(v, back, a)
}

// Square squares elementwise.
func Square(a *Node) *Node {
	v := tensor.Apply(a.Value, func(x float64) float64 { return x * x })
	back := func(g *tensor.Tensor) {
		if !a.requiresGrad {
			return
		}
		gi := tensor.New(g.Rows, g.Cols)
		for i, x := range a.Value.Data {
			gi.Data[i] = 2 * x * g.Data[i]
		}
		a.accumGrad(gi)
	}
	return newNode(v, back, a)
}

// ColMaxPool reduces an m×n node to a 1×n row of per-column maxima (used
// as the GCN read-out in NECS).
func ColMaxPool(a *Node) *Node {
	v, arg := a.Value.ColMax()
	back := func(g *tensor.Tensor) {
		if !a.requiresGrad {
			return
		}
		gi := tensor.New(a.Value.Rows, a.Value.Cols)
		for j := 0; j < a.Value.Cols; j++ {
			gi.Set(arg[j], j, g.Data[j])
		}
		a.accumGrad(gi)
	}
	return newNode(v, back, a)
}

// RowMeanPool reduces an m×n node to the 1×n mean over rows.
func RowMeanPool(a *Node) *Node {
	m := float64(a.Value.Rows)
	v := tensor.New(1, a.Value.Cols)
	for i := 0; i < a.Value.Rows; i++ {
		row := a.Value.RowView(i)
		for j, x := range row {
			v.Data[j] += x / m
		}
	}
	back := func(g *tensor.Tensor) {
		if !a.requiresGrad {
			return
		}
		gi := tensor.New(a.Value.Rows, a.Value.Cols)
		for i := 0; i < a.Value.Rows; i++ {
			row := gi.RowView(i)
			for j := range row {
				row[j] = g.Data[j] / m
			}
		}
		a.accumGrad(gi)
	}
	return newNode(v, back, a)
}

// GradReverse is the gradient-reversal operation from adversarial domain
// adaptation: identity on the forward pass, −λ·grad on the backward pass.
// Adaptive Model Update uses it to train NECS to *fool* the domain
// discriminator while the discriminator itself is trained normally.
func GradReverse(a *Node, lambda float64) *Node {
	v := a.Value.Clone()
	back := func(g *tensor.Tensor) {
		if a.requiresGrad {
			a.accumGrad(tensor.Scale(g, -lambda))
		}
	}
	return newNode(v, back, a)
}

// SoftmaxRows applies a numerically-stable softmax independently to each row.
func SoftmaxRows(a *Node) *Node {
	v := tensor.New(a.Value.Rows, a.Value.Cols)
	for i := 0; i < a.Value.Rows; i++ {
		in := a.Value.RowView(i)
		out := v.RowView(i)
		max := math.Inf(-1)
		for _, x := range in {
			if x > max {
				max = x
			}
		}
		var sum float64
		for j, x := range in {
			e := math.Exp(x - max)
			out[j] = e
			sum += e
		}
		for j := range out {
			out[j] /= sum
		}
	}
	back := func(g *tensor.Tensor) {
		if !a.requiresGrad {
			return
		}
		gi := tensor.New(g.Rows, g.Cols)
		for i := 0; i < g.Rows; i++ {
			s := v.RowView(i)
			gr := g.RowView(i)
			var dot float64
			for j := range s {
				dot += s[j] * gr[j]
			}
			out := gi.RowView(i)
			for j := range s {
				out[j] = s[j] * (gr[j] - dot)
			}
		}
		a.accumGrad(gi)
	}
	return newNode(v, back, a)
}

// StackRows stacks k 1×n row-vector nodes into a k×n node.
func StackRows(rows []*Node) *Node {
	if len(rows) == 0 {
		panic("nn: StackRows on empty slice")
	}
	n := rows[0].Value.Cols
	v := tensor.New(len(rows), n)
	for i, r := range rows {
		if r.Value.Rows != 1 || r.Value.Cols != n {
			panic("nn: StackRows shape mismatch")
		}
		copy(v.RowView(i), r.Value.Data)
	}
	back := func(g *tensor.Tensor) {
		for i, r := range rows {
			if !r.requiresGrad {
				continue
			}
			gr := r.ensureGrad().Data
			for j, x := range g.RowView(i) {
				gr[j] += x
			}
		}
	}
	return newNode(v, back, rows...)
}

// GatherRows returns the len(idx)×n node whose row i is row idx[i] of a;
// an index may repeat. The backward pass scatter-adds each row's gradient
// into the row it was gathered from, in ascending i.
func GatherRows(a *Node, idx []int) *Node {
	v := tensor.New(len(idx), a.Value.Cols)
	for i, r := range idx {
		copy(v.RowView(i), a.Value.RowView(r))
	}
	back := func(g *tensor.Tensor) {
		if !a.requiresGrad {
			return
		}
		ga := a.ensureGrad()
		for i, r := range idx {
			dst := ga.RowView(r)
			for j, x := range g.RowView(i) {
				dst[j] += x
			}
		}
	}
	return newNode(v, back, a)
}

// PickRow extracts row i of a matrix node as a 1×n node.
func PickRow(a *Node, i int) *Node { return GatherRows(a, []int{i}) }
