package nn

// This file is the forward-only inference path of the NECS building
// blocks (DESIGN.md §12). The autograd graph in ops.go/conv.go allocates
// one Node per operation so gradients can flow; serving never needs
// gradients, so the hot path below computes the same values with plain
// tensor arithmetic — no graph nodes, no backward closures — and batches
// the tower MLP so each layer is a single GEMM over all candidates
// instead of one small matmul per candidate. Rows that repeat a prefix —
// a candidate's stage rows repeat its dense features — share the prefix's
// partial sums inside tensor.MatMulInto, so layer 1 multiplies it once per
// candidate (DESIGN.md §12.7).
//
// Bitwise contract: every Infer* function must produce values bit-identical
// to its graph counterpart (CNNEncoder.Forward, GCNEncoder.Forward,
// MLP.ForwardHidden applied row by row). That holds because both paths
// share the exact same value kernels — conv1DMaxPoolValue,
// embeddingLookupValue, tensor.MatMulInto's per-row k-ascending
// accumulation — and the elementwise ops (bias add, ReLU) are order-free.
// TestScoreBatchBitwiseGolden in internal/core enforces the contract.

import (
	"lite/internal/tensor"
)

// reluInPlace applies ReLU elementwise in place with the exact predicate
// the graph path uses (`x > 0 ? x : 0`), so −0.0 and NaN inputs map to
// the same bits on both paths.
func reluInPlace(t *tensor.Tensor) {
	for i, v := range t.Data {
		if !(v > 0) {
			t.Data[i] = 0
		}
	}
}

// addBiasInPlace adds the 1×cols row v to every row of m in place and,
// when relu is set, applies ReLU to the sum in the same pass — with
// reluInPlace's predicate, so the bits match the two-pass form.
func addBiasInPlace(m, v *tensor.Tensor, relu bool) {
	if v.Rows != 1 || v.Cols != m.Cols {
		panic("nn: broadcast shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)[:len(v.Data)]
		for j, b := range v.Data {
			x := row[j] + b
			if relu && !(x > 0) {
				x = 0
			}
			row[j] = x
		}
	}
}

// Infer encodes a token-id sequence into the 1×OutDim code representation
// without building an autograd graph — bitwise identical to Forward.
func (c *CNNEncoder) Infer(ids []int) *tensor.Tensor {
	emb := embeddingLookupValue(nil, c.Embedding.Value, ids)
	live := liveCols(emb)
	pooled := make([]*tensor.Tensor, len(c.banks))
	ws := make([]*tensor.Tensor, 0, 8)
	for i, bank := range c.banks {
		ws = ws[:0]
		for _, f := range bank {
			ws = append(ws, f.Value)
		}
		v, _ := conv1DMaxPoolValue(nil, emb, live, ws, c.biases[i].Value)
		pooled[i] = v
	}
	q := tensor.Concat(pooled...)
	h := tensor.AddRowBroadcast(tensor.MatMul(q, c.Proj.W.Value), c.Proj.B.Value)
	reluInPlace(h)
	return h
}

// Infer encodes a DAG into the 1×OutDim representation without building an
// autograd graph — bitwise identical to Forward.
func (g *GCNEncoder) Infer(aHat, nodeFeatures *tensor.Tensor) *tensor.Tensor {
	h := nodeFeatures
	for _, l := range g.Layers {
		h = tensor.MatMul(tensor.MatMul(aHat, h), l.W.Value)
		reluInPlace(h)
	}
	out, _ := h.ColMax()
	return out
}

// InferBatch runs the MLP forward over an n×in batch with ONE GEMM per
// layer: y_l = ReLU(X_l W_l + b_l) where X_l stacks every batch row. Row i
// of the result is bitwise identical to Forward applied to row i alone,
// because tensor.MatMulInto accumulates each output row independently over
// the shared dimension in ascending order — batching changes which rows
// share a call, never the arithmetic within a row.
//
// All activations are allocated from ar and become invalid at its next
// Reset; callers must copy the outputs they keep. InferBatch does not
// support FinalActivation (only the AMU discriminator sets it, and it
// never serves).
func (m *MLP) InferBatch(ar *Arena, x *tensor.Tensor) *tensor.Tensor {
	if m.FinalActivation != nil {
		panic("nn: InferBatch does not support FinalActivation")
	}
	h := x
	for i, l := range m.Layers {
		out := ar.Alloc(h.Rows, l.W.Value.Cols)
		tensor.MatMulInto(out, h, l.W.Value)
		addBiasInPlace(out, l.B.Value, i+1 < len(m.Layers))
		h = out
	}
	return h
}
