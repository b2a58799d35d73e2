package nn

import (
	"fmt"
	"math"
	"math/rand"

	"lite/internal/tensor"
)

// TransformerEncoder is the "Transformer" ablation baseline in Table VII: a
// multi-head self-attention encoder over stage-level code tokens with a
// mean-pooled read-out. It uses sinusoidal positional encodings, a single
// feed-forward block, and residual connections with layer normalization.
type TransformerEncoder struct {
	Embedding *Node
	heads     int
	dim       int
	headDim   int
	// Per-head projections, each dim×headDim.
	Wq, Wk, Wv []*Node
	Wo         *Dense
	FF1, FF2   *Dense
	LN1, LN2   *LayerNorm
	MaxLen     int
	posEnc     *tensor.Tensor
}

// NewTransformerEncoder builds a single-block encoder. dim must be
// divisible by heads.
func NewTransformerEncoder(vocab, dim, heads, ffDim, maxLen int, rng *rand.Rand) *TransformerEncoder {
	if dim%heads != 0 {
		panic("nn: transformer dim must be divisible by heads")
	}
	enc := &TransformerEncoder{
		Embedding: NewParam(tensor.Randn(vocab, dim, 0.1, rng), "tfm.embed"),
		heads:     heads,
		dim:       dim,
		headDim:   dim / heads,
		Wo:        NewDense(dim, dim, rng, "tfm.Wo"),
		FF1:       NewDense(dim, ffDim, rng, "tfm.ff1"),
		FF2:       NewDense(ffDim, dim, rng, "tfm.ff2"),
		LN1:       NewLayerNorm(dim, "tfm.ln1"),
		LN2:       NewLayerNorm(dim, "tfm.ln2"),
		MaxLen:    maxLen,
		posEnc:    sinusoidalPositions(maxLen, dim),
	}
	for h := 0; h < heads; h++ {
		enc.Wq = append(enc.Wq, NewParam(tensor.XavierUniform(dim, enc.headDim, rng), fmt.Sprintf("tfm.Wq%d", h)))
		enc.Wk = append(enc.Wk, NewParam(tensor.XavierUniform(dim, enc.headDim, rng), fmt.Sprintf("tfm.Wk%d", h)))
		enc.Wv = append(enc.Wv, NewParam(tensor.XavierUniform(dim, enc.headDim, rng), fmt.Sprintf("tfm.Wv%d", h)))
	}
	return enc
}

func sinusoidalPositions(maxLen, dim int) *tensor.Tensor {
	pe := tensor.New(maxLen, dim)
	for pos := 0; pos < maxLen; pos++ {
		for i := 0; i < dim; i++ {
			angle := float64(pos) / math.Pow(10000, float64(2*(i/2))/float64(dim))
			if i%2 == 0 {
				pe.Set(pos, i, math.Sin(angle))
			} else {
				pe.Set(pos, i, math.Cos(angle))
			}
		}
	}
	return pe
}

// Forward encodes ids into a 1×dim representation by mean-pooling the
// block's output rows. Padding ids (−1) are dropped before encoding. The
// graph is held in ar as CNNEncoder.Forward's is.
func (t *TransformerEncoder) Forward(ar *Arena, ids []int) *Node {
	kept := ids[:0:0]
	for _, id := range ids {
		if id >= 0 {
			kept = append(kept, id)
		}
		if len(kept) == t.MaxLen {
			break
		}
	}
	if len(kept) == 0 {
		kept = []int{0}
	}
	x := EmbeddingLookupRows(ar, t.Embedding, kept)
	pos := value(ar, len(kept), t.dim)
	copy(pos.Data, t.posEnc.Data)
	x = Add(x, constant(ar, pos))

	// Multi-head scaled dot-product self-attention.
	scale := 1 / math.Sqrt(float64(t.headDim))
	var headOuts []*Node
	for h := 0; h < t.heads; h++ {
		q := MatMul(x, t.Wq[h])
		k := MatMul(x, t.Wk[h])
		v := MatMul(x, t.Wv[h])
		att := SoftmaxRows(Scale(MatMulB(q, k), scale))
		headOuts = append(headOuts, MatMul(att, v))
	}
	concat := Concat(headOuts...)
	attOut := t.Wo.Forward(concat)
	x = t.LN1.Forward(Add(x, attOut))
	ff := t.FF2.Forward(ReLU(t.FF1.Forward(x)))
	x = t.LN2.Forward(Add(x, ff))
	return RowMeanPool(x)
}

// Params returns all trainable parameters.
func (t *TransformerEncoder) Params() []*Node {
	ps := []*Node{t.Embedding}
	ps = append(ps, t.Wq...)
	ps = append(ps, t.Wk...)
	ps = append(ps, t.Wv...)
	ps = append(ps, t.Wo.Params()...)
	ps = append(ps, t.FF1.Params()...)
	ps = append(ps, t.FF2.Params()...)
	ps = append(ps, t.LN1.Params()...)
	ps = append(ps, t.LN2.Params()...)
	return ps
}

// MatMulB computes a×bᵀ with gradients to both operands (used for QKᵀ).
func MatMulB(a, b *Node) *Node {
	v := tensor.MatMulTransB(a.Value, b.Value)
	back := func(g *tensor.Tensor) {
		if a.requiresGrad {
			a.accumGrad(tensor.MatMul(g, b.Value))
		}
		if b.requiresGrad {
			b.accumGrad(tensor.MatMulTransA(g, a.Value))
		}
	}
	return newNode(v, back, a, b)
}

// LayerNorm normalizes each row to zero mean and unit variance, then applies
// a learned affine transform.
type LayerNorm struct {
	Gamma, Beta *Node
	eps         float64
}

// NewLayerNorm builds a LayerNorm over rows of width dim.
func NewLayerNorm(dim int, name string) *LayerNorm {
	g := tensor.New(1, dim)
	g.Fill(1)
	return &LayerNorm{
		Gamma: NewParam(g, name+".gamma"),
		Beta:  NewParam(tensor.New(1, dim), name+".beta"),
		eps:   1e-5,
	}
}

// Forward applies layer normalization row-wise.
func (l *LayerNorm) Forward(x *Node) *Node {
	rows, cols := x.Value.Rows, x.Value.Cols
	v := value(x.arena, rows, cols)
	means, invStds := floats(x.arena, rows), floats(x.arena, rows)
	for i := 0; i < rows; i++ {
		row := x.Value.RowView(i)
		var m float64
		for _, xv := range row {
			m += xv
		}
		m /= float64(cols)
		var varSum float64
		for _, xv := range row {
			d := xv - m
			varSum += d * d
		}
		inv := 1 / math.Sqrt(varSum/float64(cols)+l.eps)
		means[i], invStds[i] = m, inv
		out := v.RowView(i)
		for j, xv := range row {
			out[j] = (xv-m)*inv*l.Gamma.Value.Data[j] + l.Beta.Value.Data[j]
		}
	}
	back := func(g *tensor.Tensor) {
		if l.Gamma.requiresGrad {
			gg := tensor.New(1, cols)
			for i := 0; i < rows; i++ {
				row := x.Value.RowView(i)
				grow := g.RowView(i)
				for j := range grow {
					gg.Data[j] += grow[j] * (row[j] - means[i]) * invStds[i]
				}
			}
			l.Gamma.accumGrad(gg)
		}
		if l.Beta.requiresGrad {
			gb := tensor.New(1, cols)
			for i := 0; i < rows; i++ {
				for j, gv := range g.RowView(i) {
					gb.Data[j] += gv
				}
			}
			l.Beta.accumGrad(gb)
		}
		if !x.requiresGrad {
			return
		}
		gx := tensor.New(rows, cols)
		n := float64(cols)
		for i := 0; i < rows; i++ {
			row := x.Value.RowView(i)
			grow := g.RowView(i)
			// dy/dxhat scaled by gamma.
			dxhat := make([]float64, cols)
			var sumDx, sumDxXhat float64
			for j := range grow {
				dxhat[j] = grow[j] * l.Gamma.Value.Data[j]
				xhat := (row[j] - means[i]) * invStds[i]
				sumDx += dxhat[j]
				sumDxXhat += dxhat[j] * xhat
			}
			out := gx.RowView(i)
			for j := range out {
				xhat := (row[j] - means[i]) * invStds[i]
				out[j] = invStds[i] / n * (n*dxhat[j] - sumDx - xhat*sumDxXhat)
			}
		}
		x.accumGrad(gx)
	}
	return newNode(v, back, x, l.Gamma, l.Beta)
}

// Params returns the affine parameters.
func (l *LayerNorm) Params() []*Node { return []*Node{l.Gamma, l.Beta} }
