package nn

// This file is the forward-only inference path of the NECS building
// blocks (DESIGN.md §12). The CNN and GCN encoders have one forward, the
// graph's: their Infer runs Forward in an arena of its own, once per stage
// and encoder setting (core.Encoder memoizes the result). The tower is the
// hot path: InferBatch computes the graph's values with plain tensor
// arithmetic, one GEMM per layer over all candidates, and MatMulInto lets
// rows that repeat a prefix (a candidate's dense features) share its
// partial sums (DESIGN.md §12.7). Row i of InferBatch is bit-identical to
// MLP.ForwardHidden over row i alone (TestScoreBatchBitwiseGolden).

import (
	"lite/internal/tensor"
)

// addBiasInPlace adds the 1×cols row v to every row of m in place and,
// when relu is set, applies ReLU to the sum in the same pass, with the
// ReLU op's predicate (`x > 0 ? x : 0`), so −0.0 and NaN map to the bits
// the graph gives them.
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

// Infer encodes a token-id sequence into the 1×OutDim code representation:
// Forward's value, its graph built in an arena of its own.
func (c *CNNEncoder) Infer(ids []int) *tensor.Tensor {
	return c.Forward(new(Arena), ids).Value
}

// Infer encodes a DAG into the 1×OutDim representation: Forward's value,
// its graph built in an arena of its own.
func (g *GCNEncoder) Infer(aHat, nodeFeatures *tensor.Tensor) *tensor.Tensor {
	ar := new(Arena)
	return g.Forward(ar.Const(aHat), ar.Const(nodeFeatures)).Value
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
