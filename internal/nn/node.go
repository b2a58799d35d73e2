// Package nn implements a small reverse-mode automatic-differentiation
// engine and the neural building blocks used by the LITE reproduction:
// dense layers, 1-D convolutions with max-pooling (the NECS code encoder),
// graph convolutions (the NECS scheduler encoder), LSTM and Transformer
// encoders (ablation baselines), Adam/SGD optimizers, and a
// gradient-reversal operation used by Adaptive Model Update's adversarial
// fine-tuning.
//
// The engine is tensor-valued: every Node holds a matrix, and the backward
// pass propagates matrix-shaped gradients. Graphs are built dynamically per
// forward pass and freed by the garbage collector; only parameter nodes
// persist across steps. The gradients of intermediate nodes live in one
// pooled buffer that Backward lends them for the duration of that call.
package nn

import (
	"fmt"
	"sync"

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

// newNode builds an op result node; requiresGrad is inherited from parents.
func newNode(v *tensor.Tensor, back func(grad *tensor.Tensor), parents ...*Node) *Node {
	rg := false
	for _, p := range parents {
		if p.requiresGrad {
			rg = true
			break
		}
	}
	n := &Node{Value: v, parents: parents}
	if rg {
		n.requiresGrad = true
		n.backFn = back
	}
	return n
}

// Backward runs reverse-mode differentiation from root, which must be a
// scalar (1×1) node, seeding its gradient with 1. Gradients accumulate into
// every reachable node with requiresGrad set; call ZeroGrad on parameters
// between optimizer steps.
func Backward(root *Node) {
	if root.Value.Size() != 1 {
		panic("nn: Backward root must be scalar")
	}
	order := topoSort(root)
	ar := lendGradSlots(order)
	root.ensureGrad().Data[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backFn != nil && n.Grad != nil {
			n.backFn(n.Grad)
		}
	}
	// Drop intermediate gradients so repeated forward passes that share
	// parameter nodes do not read stale gradients, then hand the arena
	// back: no node refers to it any more.
	for _, n := range order {
		if len(n.parents) > 0 {
			n.Grad, n.gradSlot = nil, nil
		}
	}
	gradArenas.Put(ar)
}

// gradArena is the gradient storage of one Backward call: one buffer that
// every intermediate node's gradient is a slice of, and one tensor header
// per node. Arenas are pooled, so a training loop's steady state allocates
// no intermediate gradients; an arena is only ever lent to one call.
type gradArena struct {
	data  []float64
	heads []tensor.Tensor
}

var gradArenas = sync.Pool{New: func() any { return new(gradArena) }}

// lendGradSlots takes an arena from the pool and gives every intermediate
// node of order (one with parents) its slot. A slot is zeroed only when
// ensureGrad first claims it, so a node that receives no gradient keeps a
// nil Grad and Backward still skips its backFn.
func lendGradSlots(order []*Node) *gradArena {
	size, count := 0, 0
	for _, n := range order {
		if len(n.parents) > 0 {
			size += n.Value.Size()
			count++
		}
	}
	ar := gradArenas.Get().(*gradArena)
	if cap(ar.data) < size {
		ar.data = make([]float64, size)
	}
	if cap(ar.heads) < count {
		ar.heads = make([]tensor.Tensor, count)
	}
	data, heads := ar.data[:size], ar.heads[:count]
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
	return ar
}

// topoSort returns nodes in topological order (parents before children),
// restricted to the subgraph that requires gradients.
func topoSort(root *Node) []*Node {
	var order []*Node
	seen := map[*Node]bool{}
	// Iterative DFS to avoid deep recursion on long chains (LSTM over
	// hundreds of timesteps).
	type frame struct {
		n     *Node
		child int
	}
	stack := []frame{{n: root}}
	seen[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.child < len(f.n.parents) {
			p := f.n.parents[f.child]
			f.child++
			if !seen[p] && p.requiresGrad {
				seen[p] = true
				stack = append(stack, frame{n: p})
			}
			continue
		}
		order = append(order, f.n)
		stack = stack[:len(stack)-1]
	}
	return order
}
