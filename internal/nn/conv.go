package nn

import (
	"math"

	"lite/internal/tensor"
)

// Conv1DMaxPool implements a text-CNN feature extractor over a token
// embedding matrix, matching NECS's code encoder (paper §III-D): for each
// filter W_f ∈ R^{D×k} the op slides over the token axis of the D×N input,
// producing an activation sequence of length N−k+1, then applies global
// max-pooling, yielding one scalar per filter. The result is the flattened
// 1×F feature map Q from Equation (1).
//
// filters holds F parameter nodes, each of shape D×k (all with the same k
// for one instance of the op; use several ops for multiple kernel sizes).
// The result lives in input's arena when input was built in one.
func Conv1DMaxPool(input *Node, filters []*Node, bias *Node) *Node {
	return conv1DMaxPool(input, liveCols(input.Value), filters, bias)
}

// conv1DMaxPool is Conv1DMaxPool with live = liveCols(input.Value) given,
// so an encoder running several banks over one embedding scans it once.
func conv1DMaxPool(input *Node, live int, filters []*Node, bias *Node) *Node {
	d := input.Value.Rows
	n := input.Value.Cols
	ar := input.arena
	out, argmax := conv1DMaxPoolValue(ar, input.Value, live, filters, bias.Value)
	k := filters[0].Value.Cols
	parents := nodeList(ar, len(filters)+2)
	parents[0], parents[len(parents)-1] = input, bias
	copy(parents[1:], filters)
	back := func(g *tensor.Tensor) {
		// Every bank adds its filters' window gradients straight into the
		// input's gradient, which the encoder's banks share.
		var gin []float64
		if input.requiresGrad {
			gin = input.ensureGrad().Data
		}
		in := input.Value.Data
		for fi, filt := range filters {
			gv := g.Data[fi]
			p := argmax[fi]
			if filt.requiresGrad {
				// grad += gv·window, each product rounded before its add
				// (the float64 conversion keeps fusing compilers from
				// skipping that rounding).
				gw := filt.ensureGrad().Data
				for r := 0; r < d; r++ {
					gr := gw[r*k:][:k]
					for c, x := range in[r*n+p:][:k] {
						gr[c] += float64(gv * x)
					}
				}
			}
			if gin != nil {
				w := filt.Value.Data
				for r := 0; r < d; r++ {
					gi := gin[r*n+p:][:k]
					for c, x := range w[r*k:][:k] {
						gi[c] += gv * x
					}
				}
			}
		}
		if bias.requiresGrad {
			gb := bias.ensureGrad().Data
			for fi := range filters {
				gb[fi] += g.Data[fi]
			}
		}
	}
	return newNodeIn(ar, out, back, parents...)
}

// conv1DMaxPoolValue is the forward kernel of Conv1DMaxPool: it computes
// the 1×F pooled feature map of the filter nodes' values and the argmax
// position per filter. live must be liveCols(input). The map and the
// window accumulator come from ar when it is set (arena memory is
// uninitialized, so both are written before they are read) and from the
// heap otherwise.
//
// Per (filter, embedding row) it makes one pass over the window
// positions, acc[p] = ((acc[p] + in[p]·w0) + in[p+1]·w1) + …, so every
// position still sums its D×k products row by row, column by column within
// a row, starting from zero — the order of the position-by-position loop it
// replaces (DESIGN.md §12.7) — and strict > keeps the first maximum.
//
// Padding is convolved once, not once per position: every window that
// starts at or after live (1 + the last column holding a non-zero value)
// is all zeros, so those windows share one response: the same row-by-row
// accumulation over a zero window, which is one running sum of 0·w over
// the filter's weights in row-major order. It competes only at position
// live, the first of them, which is where strict > would have kept it. A
// NaN or ±Inf weight still makes that response non-finite, exactly as it
// made every padded position's; values and argmax are bit-identical to
// convolving all N−k+1 positions.
func conv1DMaxPoolValue(ar *Arena, input *tensor.Tensor, live int, filters []*Node, bias *tensor.Tensor) (*tensor.Tensor, []int) {
	d := input.Rows
	n := input.Cols
	f := len(filters)
	if f == 0 {
		panic("nn: Conv1DMaxPool requires at least one filter")
	}
	k := filters[0].Value.Cols
	if n < k {
		panic("nn: Conv1DMaxPool input shorter than kernel")
	}
	out, argmax := value(ar, 1, f), ints(ar, f)
	acc := floats(ar, min(live, n-k+1))
	for fi, filt := range filters {
		w := filt.Value
		if w.Rows != d || w.Cols != k {
			panic("nn: Conv1DMaxPool filter shape mismatch")
		}
		clear(acc)
		for r := 0; r < d; r++ {
			convRowAccum(acc, input.Data[r*n:][:len(acc)+k-1], w.Data[r*k:(r+1)*k])
		}
		best, bp := math.Inf(-1), 0
		for p, s := range acc {
			if s > best {
				best, bp = s, p
			}
		}
		if live < n-k+1 {
			var z float64
			for _, x := range w.Data[:d*k] {
				z += 0 * x
			}
			if z > best {
				best, bp = z, live
			}
		}
		out.Data[fi] = best + bias.Data[fi]
		argmax[fi] = bp
	}
	return out, argmax
}

// liveCols returns 1 + the index of the last column of m holding a value
// other than ±0 (NaN counts as a value), or 0 when every column is zero.
func liveCols(m *tensor.Tensor) int {
	live := 0
	for r := 0; r < m.Rows; r++ {
		row := m.RowView(r)
		for j := len(row) - 1; j >= live; j-- {
			if row[j] != 0 {
				live = j + 1
				break
			}
		}
	}
	return live
}

// convRowAccum adds one embedding row's share of a filter response to every
// window position: acc[p] += Σ_c in[p+c]·w[c], the products joining acc[p]
// in ascending c. len(in) must be len(acc)+len(w)−1. The kernel widths NECS
// uses are written out so each acc[p] is loaded and stored once per row.
func convRowAccum(acc, in, w []float64) {
	switch len(w) {
	case 2:
		w0, w1 := w[0], w[1]
		in1 := in[1:][:len(acc)]
		in = in[:len(acc)]
		for p, a := range acc {
			acc[p] = (a + in[p]*w0) + in1[p]*w1
		}
	case 3:
		w0, w1, w2 := w[0], w[1], w[2]
		in1, in2 := in[1:][:len(acc)], in[2:][:len(acc)]
		in = in[:len(acc)]
		for p, a := range acc {
			acc[p] = ((a + in[p]*w0) + in1[p]*w1) + in2[p]*w2
		}
	case 4:
		w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
		in1, in2, in3 := in[1:][:len(acc)], in[2:][:len(acc)], in[3:][:len(acc)]
		in = in[:len(acc)]
		for p, a := range acc {
			acc[p] = (((a + in[p]*w0) + in1[p]*w1) + in2[p]*w2) + in3[p]*w3
		}
	default:
		for c, wc := range w {
			inc := in[c:][:len(acc)]
			for p, a := range acc {
				acc[p] = a + inc[p]*wc
			}
		}
	}
}

// EmbeddingLookup gathers rows of the embedding table for the given ids and
// returns them transposed as a D×N matrix (embedding dim × sequence length),
// the orientation NECS's CNN expects. id < 0 selects the zero padding
// column, which receives no gradient. The table is a parameter, so the
// arena cannot come from the inputs: the node is held in ar (see
// Arena.Const) when it is set and on the heap when it is nil.
func EmbeddingLookup(ar *Arena, table *Node, ids []int) *Node {
	d, n := table.Value.Cols, len(ids)
	v := value(ar, d, n)
	for j, id := range ids {
		// Padding columns are written too: arena memory is uninitialized.
		for r := 0; r < d; r++ {
			if id < 0 {
				v.Data[r*n+j] = 0
			} else {
				v.Data[r*n+j] = table.Value.Data[id*d+r]
			}
		}
	}
	back := func(g *tensor.Tensor) { scatterRows(ar, table, ids, g.Data, len(ids), 1) }
	return newNodeIn(ar, v, back, table)
}

// scatterRows adds an embedding gather's gradient g into table's: element
// r of position j's vector, g[r·rs + j·js], belongs to row ids[j]. Only
// the rows ids names change. A repeated id's vectors are summed first and
// added to its row once, grad + (g₁+g₂+…), the association the
// full-table temporary this replaces produced. The scratch comes from ar
// when it is set.
func scatterRows(ar *Arena, table *Node, ids []int, g []float64, rs, js int) {
	if !table.requiresGrad {
		return
	}
	grad := table.ensureGrad()
	sum, done := floats(ar, table.Value.Cols), ints(ar, len(ids))
	clear(done)
	for j, id := range ids {
		if id < 0 || done[j] != 0 {
			continue
		}
		clear(sum)
		for j2 := j; j2 < len(ids); j2++ {
			if ids[j2] != id {
				continue
			}
			done[j2] = 1
			for r := range sum {
				sum[r] += g[r*rs+j2*js]
			}
		}
		grow := grad.RowView(id)
		for r, s := range sum {
			grow[r] += s
		}
	}
}

// EmbeddingLookupRows gathers rows of the embedding table as an N×D matrix
// (sequence length × embedding dim), the orientation the LSTM and
// Transformer encoders expect, held in ar as EmbeddingLookup's is.
func EmbeddingLookupRows(ar *Arena, table *Node, ids []int) *Node {
	d := table.Value.Cols
	v := value(ar, len(ids), d)
	for i, id := range ids {
		if id < 0 {
			clear(v.RowView(i))
			continue
		}
		copy(v.RowView(i), table.Value.RowView(id))
	}
	back := func(g *tensor.Tensor) { scatterRows(ar, table, ids, g.Data, 1, d) }
	return newNodeIn(ar, v, back, table)
}
