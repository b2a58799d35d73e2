package nn

import (
	"fmt"
	"math"
	"math/rand"

	"lite/internal/tensor"
)

// Dense is a fully-connected layer y = xW + b.
type Dense struct {
	W, B *Node
}

// NewDense constructs a Dense layer with Xavier-initialized weights.
func NewDense(in, out int, rng *rand.Rand, name string) *Dense {
	return &Dense{
		W: NewParam(tensor.XavierUniform(in, out, rng), name+".W"),
		B: NewParam(tensor.New(1, out), name+".B"),
	}
}

// Forward applies the layer to an m×in node, producing m×out.
func (d *Dense) Forward(x *Node) *Node {
	return AddRowBroadcast(MatMul(x, d.W), d.B)
}

// Params returns the layer's trainable parameters.
func (d *Dense) Params() []*Node { return []*Node{d.W, d.B} }

// Clone returns a copy of the layer with its own weights.
func (d *Dense) Clone() *Dense { return &Dense{W: cloneParam(d.W), B: cloneParam(d.B)} }

// cloneParam returns a trainable copy of p's value under p's name.
func cloneParam(p *Node) *Node { return NewParam(p.Value.Clone(), p.name) }

// MLP is a multi-layer perceptron with ReLU activations between layers.
// NECS uses a "tower" MLP whose widths halve per layer (paper §III-F).
type MLP struct {
	Layers []*Dense
	// FinalActivation, if non-nil, is applied after the last layer
	// (e.g. Sigmoid for the domain discriminator).
	FinalActivation func(*Node) *Node
}

// NewMLP builds an MLP with the given layer widths, e.g. [58, 64, 32, 16, 1].
func NewMLP(widths []int, rng *rand.Rand, name string) *MLP {
	if len(widths) < 2 {
		panic("nn: MLP needs at least input and output widths")
	}
	m := &MLP{}
	for i := 0; i+1 < len(widths); i++ {
		m.Layers = append(m.Layers, NewDense(widths[i], widths[i+1], rng, fmt.Sprintf("%s.l%d", name, i)))
	}
	return m
}

// TowerWidths returns the width schedule of the NECS tower MLP: each hidden
// layer is half the width of the previous one, from `first` down to
// (exclusive) `minWidth`, ending in a single output unit.
func TowerWidths(in, first, minWidth int) []int {
	widths := []int{in}
	for w := first; w >= minWidth; w /= 2 {
		widths = append(widths, w)
	}
	widths = append(widths, 1)
	return widths
}

// Forward applies the MLP, returning only the final output.
func (m *MLP) Forward(x *Node) *Node {
	out, _ := m.ForwardHidden(x)
	return out
}

// ForwardHidden applies the MLP and additionally returns every hidden-layer
// activation (post-ReLU). Adaptive Model Update concatenates these hidden
// embeddings h_i = f¹(x)‖…‖f^L as the discriminator input (paper §IV-B).
func (m *MLP) ForwardHidden(x *Node) (*Node, []*Node) {
	hidden := make([]*Node, 0, len(m.Layers)-1)
	h := x
	for i, l := range m.Layers {
		h = l.Forward(h)
		if i+1 < len(m.Layers) {
			h = ReLU(h)
			hidden = append(hidden, h)
		}
	}
	if m.FinalActivation != nil {
		h = m.FinalActivation(h)
	}
	return h, hidden
}

// Clone returns a copy of the MLP with its own weights.
func (m *MLP) Clone() *MLP {
	c := &MLP{Layers: make([]*Dense, len(m.Layers)), FinalActivation: m.FinalActivation}
	for i, l := range m.Layers {
		c.Layers[i] = l.Clone()
	}
	return c
}

// Params returns all trainable parameters.
func (m *MLP) Params() []*Node {
	var ps []*Node
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// CNNEncoder is NECS's code-feature encoder (paper §III-D): token
// embeddings → parallel Conv1D banks with several kernel sizes → global
// max-pool → flatten → ReLU(W^CNN · Q) projection (Equation 1).
type CNNEncoder struct {
	Embedding *Node // vocab × D token embedding table
	// One filter bank per kernel size; bank[i][j] is the j-th D×k_i filter.
	banks   [][]*Node
	biases  []*Node
	Proj    *Dense
	OutDim  int
	kernels []int
}

// NewCNNEncoder builds the encoder. vocab is the token-vocabulary size
// (including the oov id), embDim the token-embedding width D, kernels the
// convolution widths (e.g. [2,3,4]), filtersPer the number of filters per
// kernel size, and outDim the width of the projected code representation.
func NewCNNEncoder(vocab, embDim int, kernels []int, filtersPer, outDim int, rng *rand.Rand) *CNNEncoder {
	enc := &CNNEncoder{
		Embedding: NewParam(tensor.Randn(vocab, embDim, 0.1, rng), "code.embed"),
		OutDim:    outDim,
		kernels:   kernels,
	}
	for ki, k := range kernels {
		bank := make([]*Node, filtersPer)
		for j := range bank {
			bank[j] = NewParam(tensor.XavierUniform(embDim, k, rng), fmt.Sprintf("code.conv%d.%d", ki, j))
		}
		enc.banks = append(enc.banks, bank)
		enc.biases = append(enc.biases, NewParam(tensor.New(1, filtersPer), fmt.Sprintf("code.convb%d", ki)))
	}
	enc.Proj = NewDense(len(kernels)*filtersPer, outDim, rng, "code.proj")
	return enc
}

// Forward encodes a token-id sequence into the 1×OutDim code representation
// h_code (Equation 1). ids may contain −1 entries for padding. The graph is
// held in ar (see Arena.Const) when it is set, and on the heap when it is
// nil.
func (c *CNNEncoder) Forward(ar *Arena, ids []int) *Node {
	emb := EmbeddingLookup(ar, c.Embedding, ids)
	live := liveCols(emb.Value)
	pooled := nodeList(ar, len(c.banks))
	for i, bank := range c.banks {
		pooled[i] = conv1DMaxPool(emb, live, bank, c.biases[i])
	}
	q := Concat(pooled...)
	return ReLU(c.Proj.Forward(q))
}

// Clone returns a copy of the encoder with its own weights.
func (c *CNNEncoder) Clone() *CNNEncoder {
	out := &CNNEncoder{
		Embedding: cloneParam(c.Embedding),
		banks:     make([][]*Node, len(c.banks)),
		biases:    make([]*Node, len(c.biases)),
		Proj:      c.Proj.Clone(),
		OutDim:    c.OutDim,
		kernels:   c.kernels,
	}
	for i, bank := range c.banks {
		out.banks[i] = make([]*Node, len(bank))
		for j, f := range bank {
			out.banks[i][j] = cloneParam(f)
		}
		out.biases[i] = cloneParam(c.biases[i])
	}
	return out
}

// Params returns all trainable parameters.
func (c *CNNEncoder) Params() []*Node {
	ps := []*Node{c.Embedding}
	for _, bank := range c.banks {
		ps = append(ps, bank...)
	}
	ps = append(ps, c.biases...)
	ps = append(ps, c.Proj.Params()...)
	return ps
}

// GCNLayer implements one graph-convolution layer (paper §III-E):
// H^{l+1} = ReLU(D̂^{-1/2}(A+I)D̂^{-1/2} H^l W^l). The normalized adjacency
// is precomputed per graph and passed as a constant node.
type GCNLayer struct {
	W *Node
}

// NewGCNLayer builds a GCN layer mapping in-width node features to out.
func NewGCNLayer(in, out int, rng *rand.Rand, name string) *GCNLayer {
	return &GCNLayer{W: NewParam(tensor.XavierUniform(in, out, rng), name+".W")}
}

// Forward applies the layer given the normalized adjacency aHat (|V|×|V|,
// constant) and node features h (|V|×in).
func (g *GCNLayer) Forward(aHat, h *Node) *Node {
	return ReLU(MatMul(MatMul(aHat, h), g.W))
}

// Params returns the trainable weight.
func (g *GCNLayer) Params() []*Node { return []*Node{g.W} }

// GCNEncoder is NECS's scheduler-DAG encoder: stacked GCN layers over
// one-hot node-operation embeddings, followed by column-wise max-pooling
// (Equation 2) to produce the 1×OutDim representation h_DAG.
type GCNEncoder struct {
	Layers []*GCNLayer
	OutDim int
}

// NewGCNEncoder builds a GCN with the given width schedule, e.g.
// [S+1, 32, 16] for two layers over one-hot node features of width S+1.
func NewGCNEncoder(widths []int, rng *rand.Rand) *GCNEncoder {
	enc := &GCNEncoder{OutDim: widths[len(widths)-1]}
	for i := 0; i+1 < len(widths); i++ {
		enc.Layers = append(enc.Layers, NewGCNLayer(widths[i], widths[i+1], rng, fmt.Sprintf("dag.gcn%d", i)))
	}
	return enc
}

// NormalizeAdjacency computes D̂^{-1/2}(A+I)D̂^{-1/2} for a directed DAG
// adjacency matrix A given as edge pairs over n nodes. The graph is treated
// as undirected for message passing, as is standard for GCNs.
func NormalizeAdjacency(n int, edges [][2]int) *tensor.Tensor {
	a := tensor.New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	for _, e := range edges {
		a.Set(e[0], e[1], 1)
		a.Set(e[1], e[0], 1)
	}
	deg := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			deg[i] += a.At(i, j)
		}
	}
	out := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if a.At(i, j) != 0 {
				out.Set(i, j, a.At(i, j)/math.Sqrt(deg[i]*deg[j]))
			}
		}
	}
	return out
}

// Forward encodes a DAG: nodeFeatures is |V|×S+1 (one-hot rows, constant or
// trainable), aHat the normalized adjacency from NormalizeAdjacency.
func (g *GCNEncoder) Forward(aHat, nodeFeatures *Node) *Node {
	h := nodeFeatures
	for _, l := range g.Layers {
		h = l.Forward(aHat, h)
	}
	return ColMaxPool(h)
}

// Clone returns a copy of the encoder with its own weights.
func (g *GCNEncoder) Clone() *GCNEncoder {
	c := &GCNEncoder{Layers: make([]*GCNLayer, len(g.Layers)), OutDim: g.OutDim}
	for i, l := range g.Layers {
		c.Layers[i] = &GCNLayer{W: cloneParam(l.W)}
	}
	return c
}

// Params returns all trainable parameters.
func (g *GCNEncoder) Params() []*Node {
	var ps []*Node
	for _, l := range g.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
