package nn

import (
	"math/rand"

	"lite/internal/tensor"
)

// LSTMEncoder encodes a token sequence with a single-layer LSTM and returns
// the final hidden state. It is the "LSTM" ablation baseline in Table VII:
// a sequence model over stage-level code tokens instead of NECS's CNN.
type LSTMEncoder struct {
	Embedding *Node
	// Gate parameters: input, forget, cell, output. Each Wx is D×H,
	// each Wh is H×H, each b is 1×H.
	Wxi, Whi, Bi *Node
	Wxf, Whf, Bf *Node
	Wxc, Whc, Bc *Node
	Wxo, Who, Bo *Node
	Hidden       int
	// MaxLen truncates input sequences to bound the unrolled graph size.
	MaxLen int
}

// NewLSTMEncoder builds the encoder with embedding width embDim and hidden
// width hidden. Sequences longer than maxLen are truncated.
func NewLSTMEncoder(vocab, embDim, hidden, maxLen int, rng *rand.Rand) *LSTMEncoder {
	p := func(r, c int, name string) *Node {
		return NewParam(tensor.XavierUniform(r, c, rng), "lstm."+name)
	}
	b := func(name string) *Node { return NewParam(tensor.New(1, hidden), "lstm."+name) }
	enc := &LSTMEncoder{
		Embedding: NewParam(tensor.Randn(vocab, embDim, 0.1, rng), "lstm.embed"),
		Wxi:       p(embDim, hidden, "Wxi"), Whi: p(hidden, hidden, "Whi"), Bi: b("Bi"),
		Wxf: p(embDim, hidden, "Wxf"), Whf: p(hidden, hidden, "Whf"), Bf: b("Bf"),
		Wxc: p(embDim, hidden, "Wxc"), Whc: p(hidden, hidden, "Whc"), Bc: b("Bc"),
		Wxo: p(embDim, hidden, "Wxo"), Who: p(hidden, hidden, "Who"), Bo: b("Bo"),
		Hidden: hidden,
		MaxLen: maxLen,
	}
	// Forget-gate bias initialized to 1, the standard trick for gradient
	// flow through long sequences.
	enc.Bf.Value.Fill(1)
	return enc
}

// Forward encodes ids (−1 entries are treated as padding and skipped) into
// the final 1×Hidden state, the graph held in ar as CNNEncoder.Forward's is.
func (l *LSTMEncoder) Forward(ar *Arena, ids []int) *Node {
	if len(ids) > l.MaxLen {
		ids = ids[:l.MaxLen]
	}
	kept := ids[:0:0]
	for _, id := range ids {
		if id >= 0 {
			kept = append(kept, id)
		}
	}
	if len(kept) == 0 {
		kept = []int{0}
	}
	emb := EmbeddingLookupRows(ar, l.Embedding, kept)
	zero := value(ar, 1, l.Hidden)
	clear(zero.Data)
	h := constant(ar, zero)
	c := h
	for t := 0; t < len(kept); t++ {
		x := PickRow(emb, t)
		i := Sigmoid(gate(x, h, l.Wxi, l.Whi, l.Bi))
		f := Sigmoid(gate(x, h, l.Wxf, l.Whf, l.Bf))
		g := Tanh(gate(x, h, l.Wxc, l.Whc, l.Bc))
		o := Sigmoid(gate(x, h, l.Wxo, l.Who, l.Bo))
		c = Add(Mul(f, c), Mul(i, g))
		h = Mul(o, Tanh(c))
	}
	return h
}

func gate(x, h, wx, wh, b *Node) *Node {
	return AddRowBroadcast(Add(MatMul(x, wx), MatMul(h, wh)), b)
}

// Params returns all trainable parameters.
func (l *LSTMEncoder) Params() []*Node {
	return []*Node{
		l.Embedding,
		l.Wxi, l.Whi, l.Bi,
		l.Wxf, l.Whf, l.Bf,
		l.Wxc, l.Whc, l.Bc,
		l.Wxo, l.Who, l.Bo,
	}
}
