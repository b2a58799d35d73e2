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
// from an Arena's Const keeps its values, nodes, parent lists and
// gradients, and Backward its traversal buffers, in that arena, which the
// next step's Reset recycles; any other graph, gradients included, is
// freed by the garbage collector.
package nn

import (
	"fmt"
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

	// arena holds the node, its value, its parent list and its gradient
	// when the graph was grown from Arena.Const; nil otherwise.
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

// ensureGrad lazily provides the gradient buffer, zeroed, where the value
// lives: in the node's arena, or a heap tensor for a heap node, which a
// parameter keeps across steps.
func (n *Node) ensureGrad() *tensor.Tensor {
	if n.Grad == nil {
		n.Grad = value(n.arena, n.Value.Rows, n.Value.Cols)
		clear(n.Grad.Data)
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
	var n *Node
	if ar != nil {
		n = ar.node()
	} else {
		n = new(Node)
	}
	*n = Node{Value: v, parents: nodeList(ar, len(parents)), arena: ar}
	copy(n.parents, parents)
	for _, p := range parents {
		if p.requiresGrad {
			n.requiresGrad, n.backFn = true, back
			break
		}
	}
	return n
}

// nodeList returns room for n node pointers: in ar when it is set, and on
// the heap otherwise. An op that gathers a list of nodes to hand to
// newNode (a conv bank's parents, the CNN's pooled banks) takes it here,
// so a step's graph allocates none.
func nodeList(ar *Arena, n int) []*Node {
	if ar == nil {
		return make([]*Node, n)
	}
	return take(&ar.ptrs, &ar.np, n)
}

// constant wraps t as a constant node held in ar when it is set, and on
// the heap otherwise.
func constant(ar *Arena, t *tensor.Tensor) *Node {
	if ar == nil {
		return NewConst(t)
	}
	return ar.Const(t)
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

// ints is floats for an op's index scratch (argmax positions, flags).
func ints(ar *Arena, n int) []int {
	if ar == nil {
		return make([]int, n)
	}
	return take(&ar.ints, &ar.ni, n)
}

// Backward runs reverse-mode differentiation from root, which must be a
// scalar (1×1) node, seeding its gradient with 1. Gradients accumulate into
// every reachable node with requiresGrad set; call ZeroGrad on parameters
// between optimizer steps. The traversal's buffers, like the gradients,
// come from the root's arena when it has one.
func Backward(root *Node) {
	if root.Value.Size() != 1 {
		panic("nn: Backward root must be scalar")
	}
	w := new(walk)
	if ar := root.arena; ar != nil {
		// The graph has at most the arena's nodes plus the heap nodes
		// (parameters) in their parent lists: once the arena's slabs have
		// settled, a walk sized for that many does not grow.
		w = &ar.walk
		if n := ar.nn + ar.np; cap(w.order) < n {
			w.order, w.stack = make([]*Node, 0, n), make([]visit, 0, n)
		}
	}
	order := w.topoSort(root)
	root.ensureGrad().Data[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backFn != nil && n.Grad != nil {
			n.backFn(n.Grad)
		}
	}
	// Drop intermediate gradients so repeated forward passes that share
	// parameter nodes do not read stale gradients.
	for _, n := range order {
		if len(n.parents) > 0 {
			n.Grad = nil
		}
	}
}

// walk is the storage of Backward's traversal: the topological order and
// the depth-first stack. An Arena keeps one for the graphs grown in it.
type walk struct {
	order []*Node
	stack []visit
}

// visit is one frame of topoSort's depth-first walk: a node and the index
// of the next parent to descend into.
type visit struct {
	n     *Node
	child int
}

// backwardStamps numbers Backward calls; a node's mark holds the stamp of
// the last walk that reached it, which is topoSort's visited set.
var backwardStamps atomic.Uint64

// topoSort returns nodes in topological order (parents before children),
// restricted to the subgraph that requires gradients, in w's order
// buffer. The walk is an iterative DFS, so long chains (an LSTM over
// hundreds of timesteps) cannot overflow the stack, and it marks the
// nodes it reaches with a fresh stamp instead of keeping a visited map.
func (w *walk) topoSort(root *Node) []*Node {
	stamp := backwardStamps.Add(1)
	order, stack := w.order[:0], append(w.stack[:0], visit{n: root})
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
	w.order, w.stack = order, stack
	return order
}
