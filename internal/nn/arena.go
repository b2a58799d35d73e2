package nn

import "lite/internal/tensor"

// Arena is a pass-scoped bump allocator. It holds the activations of one
// inference pass (InferBatch) or the whole graph of one training step —
// values, nodes, parent lists, gradients, op scratch and Backward's
// traversal — for a graph grown from Const. All of it comes from slabs
// the arena keeps across Resets, so a pass or step of a shape seen before
// performs no heap allocation for them.
//
// Ownership and aliasing rules (DESIGN.md §12):
//
//   - An Arena is single-goroutine: exactly one pass or step may use it at
//     a time. Concurrent passes take distinct arenas from a pool.
//   - Tensors and nodes it returns are valid only until the next Reset.
//     Results that outlive the pass must be copied out (the scoring kernels
//     copy plain float64s, never arena tensors; a training step reads its
//     loss before the next step resets the arena).
//   - Alloc returns UNINITIALIZED memory: callers must fully overwrite the
//     tensor (MatMulInto zeroes its output; row-fill loops and the graph
//     ops write every element) before reading it.
//   - Reset recycles the slabs without zeroing. Nothing handed out between
//     two Resets overlaps anything else handed out between them, so
//     distinct activations within one pass never alias each other.
type Arena struct {
	floats []float64
	ints   []int
	heads  []tensor.Tensor
	nodes  []Node
	ptrs   []*Node
	// Offsets of the next free element of each slab.
	nf, ni, nh, nn, np int
	// walk is the traversal storage of Backward from a root held here.
	walk walk
}

// take returns n elements of *slab from *off on. When the slab is short it
// is replaced by one at least twice as large, and of at least 64
// elements, so a new arena skips the smallest sizes and a steady-state
// shape settles into no allocation; what was handed out before keeps the
// old slab and stays valid until Reset.
func take[T any](slab *[]T, off *int, n int) []T {
	if *off+n > len(*slab) {
		*slab = make([]T, max(2*len(*slab), n, 64))
		*off = 0
	}
	s := (*slab)[*off : *off+n : *off+n]
	*off += n
	return s
}

// Alloc returns an uninitialized rows×cols tensor backed by the arena.
// The tensor is valid until the next Reset; see the aliasing rules above.
func (a *Arena) Alloc(rows, cols int) *tensor.Tensor {
	if rows <= 0 || cols <= 0 {
		panic("nn: Arena.Alloc of a non-positive shape")
	}
	h := &take(&a.heads, &a.nh, 1)[0]
	*h = tensor.Tensor{Rows: rows, Cols: cols, Data: a.Floats(rows * cols)}
	return h
}

// Floats returns n uninitialized float64s backed by the arena, under the
// same rules as Alloc but without a tensor header.
func (a *Arena) Floats(n int) []float64 { return take(&a.floats, &a.nf, n) }

// Const wraps t as a constant node held in the arena. Every op applied to
// it, and to what those ops return, takes its value, node and parent list
// from the arena as well (newNode, value), so one training step's graph
// lives in memory the next step's Reset reuses. The graph is valid until
// that Reset.
func (a *Arena) Const(t *tensor.Tensor) *Node {
	n := a.node()
	*n = Node{Value: t, arena: a}
	return n
}

// ConstRow copies the concatenation of parts into the arena as a 1×n
// constant node, valid until the next Reset.
func (a *Arena) ConstRow(parts ...[]float64) *Node {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	t := a.Alloc(1, n)
	d := t.Data
	for _, p := range parts {
		d = d[copy(d, p):]
	}
	return a.Const(t)
}

// node returns an uninitialized node slot; the caller overwrites it whole.
func (a *Arena) node() *Node { return &take(&a.nodes, &a.nn, 1)[0] }

// nodePtrs returns room for an op's n parents.
func (a *Arena) nodePtrs(n int) []*Node { return take(&a.ptrs, &a.np, n) }

// Reset recycles the arena for the next pass. Everything handed out since
// the previous Reset becomes invalid.
func (a *Arena) Reset() { a.nf, a.ni, a.nh, a.nn, a.np = 0, 0, 0, 0, 0 }
