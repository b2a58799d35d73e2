package nn

import (
	"fmt"
	"math"

	"lite/internal/tensor"
)

// MatMul returns a×b with gradient flow to both operands.
func MatMul(a, b *Node) *Node {
	if a.Value.Cols != b.Value.Rows {
		panic(fmt.Sprintf("nn: matmul shape mismatch %dx%d × %dx%d", a.Value.Rows, a.Value.Cols, b.Value.Rows, b.Value.Cols))
	}
	v := value(arenaOf(a, b), a.Value.Rows, b.Value.Cols)
	tensor.MatMulInto(v, a.Value, b.Value)
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
			// many one-row backward passes would. Row i of ∂b takes the
			// rows r with a[r][i] ≠ 0 four at a time, adding their four
			// products to each element left to right: the same adds in the
			// same order, with one load and store of the element per four.
			gb, n := b.ensureGrad().Data, g.Cols
			ad, k := a.Value.Data, a.Value.Cols
			for i := 0; i < k; i++ {
				brow := gb[i*n:][:n]
				var avs [4]float64
				var grows [4][]float64
				c := 0
				for r := 0; r < g.Rows; r++ {
					av := ad[r*k+i]
					if av == 0 {
						continue
					}
					avs[c], grows[c] = av, g.Data[r*n:][:n]
					if c++; c == 4 {
						a0, a1, a2, a3 := avs[0], avs[1], avs[2], avs[3]
						g0, g1, g2, g3 := grows[0][:n], grows[1][:n], grows[2][:n], grows[3][:n]
						for j := range brow {
							brow[j] = brow[j] + float64(a0*g0[j]) + float64(a1*g1[j]) + float64(a2*g2[j]) + float64(a3*g3[j])
						}
						c = 0
					}
				}
				for q := 0; q < c; q++ {
					av, gr := avs[q], grows[q][:n]
					for j := range brow {
						brow[j] += float64(av * gr[j])
					}
				}
			}
		}
	}
	return newNode(v, back, a, b)
}

// Add returns a+b elementwise.
func Add(a, b *Node) *Node {
	v := elementwise("add", a, b)
	for i, x := range a.Value.Data {
		v.Data[i] = x + b.Value.Data[i]
	}
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
	v := elementwise("sub", a, b)
	for i, x := range a.Value.Data {
		v.Data[i] = x - b.Value.Data[i]
	}
	back := func(g *tensor.Tensor) {
		if a.requiresGrad {
			a.accumGrad(g)
		}
		if b.requiresGrad {
			gb := b.ensureGrad().Data
			for i, x := range g.Data {
				gb[i] -= x
			}
		}
	}
	return newNode(v, back, a, b)
}

// Mul returns a⊙b (Hadamard product).
func Mul(a, b *Node) *Node {
	v := elementwise("mul", a, b)
	for i, x := range a.Value.Data {
		v.Data[i] = x * b.Value.Data[i]
	}
	back := func(g *tensor.Tensor) {
		if a.requiresGrad {
			ga := a.ensureGrad().Data
			for i, x := range g.Data {
				ga[i] += float64(x * b.Value.Data[i])
			}
		}
		if b.requiresGrad {
			gb := b.ensureGrad().Data
			for i, x := range g.Data {
				gb[i] += float64(x * a.Value.Data[i])
			}
		}
	}
	return newNode(v, back, a, b)
}

// Scale returns s·a.
func Scale(a *Node, s float64) *Node {
	v := value(a.arena, a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		v.Data[i] = s * x
	}
	back := func(g *tensor.Tensor) {
		if a.requiresGrad {
			accumScaled(a, g, s)
		}
	}
	return newNode(v, back, a)
}

// AddRowBroadcast adds the 1×n bias row b to every row of m.
func AddRowBroadcast(m, b *Node) *Node {
	if b.Value.Rows != 1 || b.Value.Cols != m.Value.Cols {
		panic(fmt.Sprintf("nn: broadcast shape mismatch %dx%d + %dx%d", m.Value.Rows, m.Value.Cols, b.Value.Rows, b.Value.Cols))
	}
	v := value(arenaOf(m, b), m.Value.Rows, m.Value.Cols)
	for i := 0; i < v.Rows; i++ {
		row, in := v.RowView(i), m.Value.RowView(i)
		for j, x := range b.Value.Data {
			row[j] = in[j] + x
		}
	}
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

// ReLU applies max(0,x) elementwise: x when x > 0, and +0 for every
// other input, −0 and NaN included.
func ReLU(a *Node) *Node {
	v := value(a.arena, a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		if !(x > 0) {
			x = 0
		}
		v.Data[i] = x
	}
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
	v := value(a.arena, a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		v.Data[i] = 1 / (1 + math.Exp(-x))
	}
	back := func(g *tensor.Tensor) {
		if !a.requiresGrad {
			return
		}
		ga := a.ensureGrad().Data
		for i, s := range v.Data {
			ga[i] += float64(g.Data[i] * s * (1 - s))
		}
	}
	return newNode(v, back, a)
}

// Tanh applies tanh elementwise.
func Tanh(a *Node) *Node {
	v := value(a.arena, a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		v.Data[i] = math.Tanh(x)
	}
	back := func(g *tensor.Tensor) {
		if !a.requiresGrad {
			return
		}
		ga := a.ensureGrad().Data
		for i, t := range v.Data {
			ga[i] += float64(g.Data[i] * (1 - t*t))
		}
	}
	return newNode(v, back, a)
}

// Concat joins nodes with equal row counts side by side: m×n₁, m×n₂, …
// become one m×Σn node whose row i is row i of every part, in order.
func Concat(parts ...*Node) *Node {
	rows, total := parts[0].Value.Rows, 0
	for _, p := range parts {
		if p.Value.Rows != rows {
			panic(fmt.Sprintf("nn: Concat row mismatch %d vs %d", p.Value.Rows, rows))
		}
		total += p.Value.Cols
	}
	v := value(arenaOf(parts...), rows, total)
	for i := 0; i < rows; i++ {
		row := v.RowView(i)
		for _, p := range parts {
			row = row[copy(row, p.Value.RowView(i)):]
		}
	}
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
	v := value(a.arena, 1, hi-lo)
	copy(v.Data, a.Value.Data[lo:hi])
	back := func(g *tensor.Tensor) {
		if !a.requiresGrad {
			return
		}
		ga := a.ensureGrad().Data[lo:hi]
		for j, x := range g.Data {
			ga[j] += x
		}
	}
	return newNode(v, back, a)
}

// Sum reduces all elements to a 1×1 scalar.
func Sum(a *Node) *Node {
	v := value(a.arena, 1, 1)
	v.Data[0] = a.Value.Sum()
	back := func(g *tensor.Tensor) {
		if a.requiresGrad {
			accumFill(a, g.Data[0])
		}
	}
	return newNode(v, back, a)
}

// Mean reduces all elements to their mean as a 1×1 scalar.
func Mean(a *Node) *Node {
	n := float64(a.Value.Size())
	v := value(a.arena, 1, 1)
	v.Data[0] = a.Value.Sum() / n
	back := func(g *tensor.Tensor) {
		if a.requiresGrad {
			accumFill(a, g.Data[0]/n)
		}
	}
	return newNode(v, back, a)
}

// Square squares elementwise.
func Square(a *Node) *Node {
	v := value(a.arena, a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		v.Data[i] = x * x
	}
	back := func(g *tensor.Tensor) {
		if !a.requiresGrad {
			return
		}
		ga := a.ensureGrad().Data
		for i, x := range a.Value.Data {
			ga[i] += float64(2 * x * g.Data[i])
		}
	}
	return newNode(v, back, a)
}

// ColMaxPool reduces an m×n node to a 1×n row of per-column maxima (used
// as the GCN read-out in NECS).
func ColMaxPool(a *Node) *Node {
	v, arg := value(a.arena, 1, a.Value.Cols), make([]int, a.Value.Cols)
	a.Value.ColMaxInto(v, arg)
	back := func(g *tensor.Tensor) {
		if !a.requiresGrad {
			return
		}
		ga := a.ensureGrad()
		for j, x := range g.Data {
			ga.Data[arg[j]*ga.Cols+j] += x
		}
	}
	return newNode(v, back, a)
}

// RowMeanPool reduces an m×n node to the 1×n mean over rows.
func RowMeanPool(a *Node) *Node {
	m := float64(a.Value.Rows)
	v := value(a.arena, 1, a.Value.Cols)
	v.Zero()
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
		ga := a.ensureGrad()
		for i := 0; i < ga.Rows; i++ {
			row := ga.RowView(i)
			for j, x := range g.Data {
				row[j] += x / m
			}
		}
	}
	return newNode(v, back, a)
}

// GradReverse is the gradient-reversal operation from adversarial domain
// adaptation: identity on the forward pass, −λ·grad on the backward pass.
// Adaptive Model Update uses it to train NECS to *fool* the domain
// discriminator while the discriminator itself is trained normally.
func GradReverse(a *Node, lambda float64) *Node {
	v := value(a.arena, a.Value.Rows, a.Value.Cols)
	copy(v.Data, a.Value.Data)
	back := func(g *tensor.Tensor) {
		if a.requiresGrad {
			accumScaled(a, g, -lambda)
		}
	}
	return newNode(v, back, a)
}

// SoftmaxRows applies a numerically-stable softmax independently to each row.
func SoftmaxRows(a *Node) *Node {
	v := value(a.arena, a.Value.Rows, a.Value.Cols)
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
		ga := a.ensureGrad()
		for i := 0; i < g.Rows; i++ {
			s := v.RowView(i)
			gr := g.RowView(i)
			var dot float64
			for j := range s {
				dot += s[j] * gr[j]
			}
			out := ga.RowView(i)
			for j := range s {
				out[j] += float64(s[j] * (gr[j] - dot))
			}
		}
	}
	return newNode(v, back, a)
}

// StackRows stacks k 1×n row-vector nodes into a k×n node.
func StackRows(rows []*Node) *Node {
	if len(rows) == 0 {
		panic("nn: StackRows on empty slice")
	}
	n := rows[0].Value.Cols
	v := value(arenaOf(rows...), len(rows), n)
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
	v := value(a.arena, len(idx), a.Value.Cols)
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

// elementwise checks that a and b have one shape and returns the storage
// of their elementwise result.
func elementwise(op string, a, b *Node) *tensor.Tensor {
	if !a.Value.SameShape(b.Value) {
		panic(fmt.Sprintf("nn: %s shape mismatch %dx%d vs %dx%d", op, a.Value.Rows, a.Value.Cols, b.Value.Rows, b.Value.Cols))
	}
	return value(arenaOf(a, b), a.Value.Rows, a.Value.Cols)
}

// accumScaled adds s·g into a's gradient, each product rounded before its
// add: the bits of materialising s·g and then adding it.
func accumScaled(a *Node, g *tensor.Tensor, s float64) {
	ga := a.ensureGrad().Data
	for i, x := range g.Data {
		ga[i] += float64(s * x)
	}
}

// accumFill adds c to every element of a's gradient.
func accumFill(a *Node, c float64) {
	ga := a.ensureGrad().Data
	for i := range ga {
		ga[i] += c
	}
}
