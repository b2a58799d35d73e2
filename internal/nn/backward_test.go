package nn

// Backward keeps an arena graph's gradients and traversal in its arena.
// These tests pin that the arena changes where they live and nothing
// else: the bits of the same graph on the heap, the same nil-gradient
// skip, and no gradient left behind.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lite/internal/tensor"
)

// sharedHiddenGrads builds one hidden layer over fixed inputs, in ar (on
// the heap when it is nil), then runs a backward pass from several
// different heads over those same hidden nodes, returning the parameter
// gradients after each pass.
func sharedHiddenGrads(t *testing.T, ar *Arena, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	x := constant(ar, tensor.Randn(5, 7, 1, rng))
	w1 := NewParam(tensor.Randn(7, 6, 1, rng), "w1")
	w2 := NewParam(tensor.Randn(6, 3, 1, rng), "w2")
	hidden := ReLU(MatMul(x, w1))
	var out [][]float64
	for pass := 0; pass < 4; pass++ {
		head := Sum(Mul(Sigmoid(MatMul(hidden, w2)), constant(ar, tensor.Randn(5, 3, 1, rng))))
		Backward(head)
		if hidden.Grad != nil || head.Grad != nil {
			t.Error("an intermediate gradient outlived Backward")
		}
		out = append(out, append(append([]float64(nil), w1.Grad.Data...), w2.Grad.Data...))
	}
	return out
}

func TestBackwardOverSharedHiddenMatchesReference(t *testing.T) {
	got := sharedHiddenGrads(t, dirtyArena(), 5)
	want := sharedHiddenGrads(t, nil, 5)
	for pass := range want {
		requireSameBits(t, "parameter gradients after pass", got[pass], want[pass])
	}
}

// Concurrent backward passes over graphs in distinct arenas must produce
// the gradients of a serial run on the heap.
func TestBackwardConcurrentMatchesSerial(t *testing.T) {
	want := sharedHiddenGrads(t, nil, 11)
	var wg sync.WaitGroup
	results := make([][][]float64, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = sharedHiddenGrads(t, new(Arena), 11)
		}(i)
	}
	wg.Wait()
	for _, got := range results {
		for pass := range want {
			requireSameBits(t, "concurrent parameter gradients", got[pass], want[pass])
		}
	}
}

// A node whose children send it no gradient keeps a nil Grad, and its
// backFn does not run, on the heap and in an arena.
func TestBackwardSkipsNodesWithoutGradient(t *testing.T) {
	for _, ar := range []*Arena{nil, dirtyArena()} {
		p := NewParam(tensor.FromRow([]float64{1, 2}), "p")
		ran := false
		mid := newNodeIn(ar, tensor.FromRow([]float64{3, 4}), func(*tensor.Tensor) { ran = true }, p)
		var midGrad *tensor.Tensor
		root := newNodeIn(ar, tensor.FromRow([]float64{5}), func(*tensor.Tensor) { midGrad = mid.Grad }, mid)
		Backward(root)
		if ran || midGrad != nil || p.Grad != nil {
			t.Fatalf("arena=%t: a node that received no gradient: backFn ran %v, Grad %v, parent Grad %v", ar != nil, ran, midGrad, p.Grad)
		}
		if root.Grad != nil {
			t.Fatalf("arena=%t: Backward left a gradient on an intermediate node", ar != nil)
		}
	}
}

// The LSTM and Transformer encoders, in a dirty arena, give the heap
// graph's value and every parameter's gradient bit for bit, over two
// steps that reuse the arena, on sequences with repeated ids and padding.
func TestSequenceEncodersArenaMatchesHeapBitwise(t *testing.T) {
	ids := []int{1, 4, 2, -1, 4, 6, 1, 1}
	type encoder struct {
		forward func(*Arena, []int) *Node
		params  []*Node
	}
	build := map[string]func() encoder{
		"lstm": func() encoder {
			e := NewLSTMEncoder(8, 3, 4, 16, rand.New(rand.NewSource(14)))
			return encoder{e.Forward, e.Params()}
		},
		"transformer": func() encoder {
			e := NewTransformerEncoder(8, 4, 2, 6, 10, rand.New(rand.NewSource(15)))
			return encoder{e.Forward, e.Params()}
		},
	}
	for name, newEnc := range build {
		heap, arena := newEnc(), newEnc()
		w := tensor.Randn(1, heap.forward(nil, ids).Value.Cols, 1, rand.New(rand.NewSource(3)))
		ar := dirtyArena()
		for step := 0; step < 2; step++ {
			ar.Reset()
			want, got := heap.forward(nil, ids), arena.forward(ar, ids)
			requireSameBits(t, fmt.Sprintf("%s step %d: value", name, step), got.Value.Data, want.Value.Data)
			Backward(weightedSum(want, w))
			Backward(weightedSum(got, w))
			for i, p := range arena.params {
				requireSameBits(t, fmt.Sprintf("%s step %d: %s grad", name, step, p.Name()), p.Grad.Data, heap.params[i].Grad.Data)
			}
		}
	}
}
