// Package nn implements a small reverse-mode automatic-differentiation
// engine and the neural building blocks used by the LITE reproduction:
// dense layers, 1-D convolutions with max-pooling (the NECS code encoder),
// graph convolutions (the NECS scheduler encoder), LSTM and Transformer
// encoders (ablation baselines), the Adam optimizer, and a
// gradient-reversal operation used by Adaptive Model Update's adversarial
// fine-tuning.
//
// The engine is tensor-valued: every Node holds a matrix, and the backward
// pass propagates matrix-shaped gradients. Graphs are built dynamically per
// forward pass; only parameter nodes persist across steps. A graph grown
// from an Arena's Const keeps its values, nodes and parent lists in that
// arena, which the next step's Reset recycles; any other graph is freed by
// the garbage collector. The gradients of intermediate nodes live in one
// pooled buffer that Backward lends them for the duration of that call.
package nn

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lite/internal/tensor"
)

// Node is a vertex in the dynamically-built computation graph. Value holds
// the forward result; Grad accumulates ∂loss/∂Value during Backward.
type Node struct {
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	requiresGrad bool
	parents      []*Node
	backFn       func(grad *tensor.Tensor)
	name         string

	// gradSlot is this node's gradient storage in the arena of the
	// Backward call in progress; nil outside Backward and for leaves.
	gradSlot *tensor.Tensor
	// arena holds the node, its value and its parent list when the graph
	// was grown from Arena.Const; nil otherwise.
	arena *Arena
	// mark is the stamp of the last Backward walk that reached the node.
	mark uint64
}

// NewParam wraps t as a trainable parameter node.
func NewParam(t *tensor.Tensor, name string) *Node {
	return &Node{Value: t, requiresGrad: true, name: name}
}

// NewConst wraps t as a constant (non-trainable, no gradient) node.
func NewConst(t *tensor.Tensor) *Node {
	return &Node{Value: t}
}

// Name returns the diagnostic name assigned at construction, if any.
func (n *Node) Name() string { return n.name }

// Scalar returns the single element of a 1×1 node.
func (n *Node) Scalar() float64 {
	if n.Value.Size() != 1 {
		panic(fmt.Sprintf("nn: Scalar called on %dx%d node", n.Value.Rows, n.Value.Cols))
	}
	return n.Value.Data[0]
}

// ensureGrad lazily provides the gradient buffer, zeroed: the node's arena
// slot during Backward, a fresh tensor for a parameter.
func (n *Node) ensureGrad() *tensor.Tensor {
	if n.Grad == nil {
		if s := n.gradSlot; s != nil {
			clear(s.Data)
			n.Grad = s
		} else {
			n.Grad = tensor.New(n.Value.Rows, n.Value.Cols)
		}
	}
	return n.Grad
}

// accumGrad adds g into the node's gradient buffer.
func (n *Node) accumGrad(g *tensor.Tensor) {
	tensor.AddInPlace(n.ensureGrad(), g)
}

// newNode builds an op result node; requiresGrad is inherited from
// parents, and so is the arena: the node and its parent list go where
// the first parent that has an arena lives (see value). The node keeps a
// copy of parents, never the argument itself, so an op's variadic
// parent list stays on its caller's stack.
func newNode(v *tensor.Tensor, back func(grad *tensor.Tensor), parents ...*Node) *Node {
	return newNodeIn(arenaOf(parents...), v, back, parents...)
}

// newNodeIn is newNode with the arena named: the node and its parent list
// go in ar when it is set, on the heap otherwise. An op whose inputs
// cannot carry the arena (EmbeddingLookup reads a parameter) uses it.
func newNodeIn(ar *Arena, v *tensor.Tensor, back func(grad *tensor.Tensor), parents ...*Node) *Node {
	rg := false
	for _, p := range parents {
		if p.requiresGrad {
			rg = true
			break
		}
	}
	var n *Node
	if ar != nil {
		n = ar.node()
		ps := ar.nodePtrs(len(parents))
		copy(ps, parents)
		*n = Node{Value: v, parents: ps, arena: ar}
	} else {
		n = &Node{Value: v, parents: append([]*Node(nil), parents...)}
	}
	if rg {
		n.requiresGrad = true
		n.backFn = back
	}
	return n
}

// arenaOf returns the arena of the first of ps built in one, or nil.
func arenaOf(ps ...*Node) *Arena {
	for _, p := range ps {
		if p.arena != nil {
			return p.arena
		}
	}
	return nil
}

// value returns the storage of an op's rows×cols result: arena memory,
// which the op must overwrite in full, when ar is set, and a fresh zeroed
// tensor otherwise. Every op takes its result from here with the arena of
// its inputs (arenaOf), so one implementation serves both kinds of graph.
func value(ar *Arena, rows, cols int) *tensor.Tensor {
	if ar == nil {
		return tensor.New(rows, cols)
	}
	return ar.Alloc(rows, cols)
}

// floats is value for a scratch slice of n float64s: uninitialized arena
// memory when ar is set, zeroed heap memory otherwise.
func floats(ar *Arena, n int) []float64 {
	if ar == nil {
		return make([]float64, n)
	}
	return ar.Floats(n)
}

// Backward runs reverse-mode differentiation from root, which must be a
// scalar (1×1) node, seeding its gradient with 1. Gradients accumulate into
// every reachable node with requiresGrad set; call ZeroGrad on parameters
// between optimizer steps.
func Backward(root *Node) {
	if root.Value.Size() != 1 {
		panic("nn: Backward root must be scalar")
	}
	sc := backwardScratches.Get().(*backwardScratch)
	order := sc.topoSort(root)
	sc.lendGradSlots(order)
	root.ensureGrad().Data[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backFn != nil && n.Grad != nil {
			n.backFn(n.Grad)
		}
	}
	// Drop intermediate gradients so repeated forward passes that share
	// parameter nodes do not read stale gradients, then hand the scratch
	// back: no node refers to it any more, and it refers to no node.
	for _, n := range order {
		if len(n.parents) > 0 {
			n.Grad, n.gradSlot = nil, nil
		}
	}
	clear(order)
	clear(sc.stack[:cap(sc.stack)])
	backwardScratches.Put(sc)
}

// backwardScratch is the reusable storage of one Backward call: the
// gradient arena — one buffer that every intermediate node's gradient is
// a slice of, and one tensor header per node — and the traversal's order
// and stack. Scratches are pooled, so a training loop's steady state
// allocates nothing to differentiate; one is only ever lent to one call.
type backwardScratch struct {
	data  []float64
	heads []tensor.Tensor
	order []*Node
	stack []visit
}

// visit is one frame of topoSort's depth-first walk: a node and the index
// of the next parent to descend into.
type visit struct {
	n     *Node
	child int
}

var backwardScratches = sync.Pool{New: func() any { return new(backwardScratch) }}

// backwardStamps numbers Backward calls; a node's mark holds the stamp of
// the last walk that reached it, which is topoSort's visited set.
var backwardStamps atomic.Uint64

// lendGradSlots gives every intermediate node of order (one with parents)
// its slot in the scratch's gradient arena. A slot is zeroed only when
// ensureGrad first claims it, so a node that receives no gradient keeps a
// nil Grad and Backward still skips its backFn.
func (sc *backwardScratch) lendGradSlots(order []*Node) {
	size, count := 0, 0
	for _, n := range order {
		if len(n.parents) > 0 {
			size += n.Value.Size()
			count++
		}
	}
	if cap(sc.data) < size {
		sc.data = make([]float64, size)
	}
	if cap(sc.heads) < count {
		sc.heads = make([]tensor.Tensor, count)
	}
	data, heads := sc.data[:size], sc.heads[:count]
	for _, n := range order {
		if len(n.parents) == 0 {
			continue
		}
		sz := n.Value.Size()
		h := &heads[0]
		*h = tensor.Tensor{Rows: n.Value.Rows, Cols: n.Value.Cols, Data: data[:sz:sz]}
		n.gradSlot = h
		data, heads = data[sz:], heads[1:]
	}
}

// topoSort returns nodes in topological order (parents before children),
// restricted to the subgraph that requires gradients, in the scratch's
// order buffer. The walk is an iterative DFS, so long chains (an LSTM
// over hundreds of timesteps) cannot overflow the stack, and it marks the
// nodes it reaches with a fresh stamp instead of keeping a visited map.
func (sc *backwardScratch) topoSort(root *Node) []*Node {
	stamp := backwardStamps.Add(1)
	order, stack := sc.order[:0], append(sc.stack[:0], visit{n: root})
	root.mark = stamp
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.child < len(f.n.parents) {
			p := f.n.parents[f.child]
			f.child++
			if p.mark != stamp && p.requiresGrad {
				p.mark = stamp
				stack = append(stack, visit{n: p})
			}
			continue
		}
		order = append(order, f.n)
		stack = stack[:len(stack)-1]
	}
	sc.order, sc.stack = order, stack
	return order
}
