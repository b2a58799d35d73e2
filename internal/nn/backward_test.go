package nn

// Backward lends intermediate nodes gradient storage from one pooled
// arena per call. These tests pin that the arena changes where gradients
// live and nothing else: the same bits as a Backward that allocates every
// gradient, the same nil-gradient skip, and no gradient left behind.

import (
	"math/rand"
	"sync"
	"testing"

	"lite/internal/tensor"
)

// refBackward is Backward as it was before the arena: every intermediate
// gradient freshly allocated by ensureGrad.
func refBackward(root *Node) {
	order := new(backwardScratch).topoSort(root)
	root.ensureGrad().Data[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backFn != nil && n.Grad != nil {
			n.backFn(n.Grad)
		}
	}
	for _, n := range order {
		if len(n.parents) > 0 {
			n.Grad = nil
		}
	}
}

// sharedHiddenGrads builds one hidden layer over fixed inputs, then — as
// DomainAccuracy does with NECS's hidden embeddings — runs a backward pass
// from several different heads over those same hidden nodes, returning the
// parameter gradients after each pass.
func sharedHiddenGrads(t *testing.T, backward func(*Node), seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	x := NewConst(tensor.Randn(5, 7, 1, rng))
	w1 := NewParam(tensor.Randn(7, 6, 1, rng), "w1")
	w2 := NewParam(tensor.Randn(6, 3, 1, rng), "w2")
	hidden := ReLU(MatMul(x, w1))
	var out [][]float64
	for pass := 0; pass < 4; pass++ {
		head := Sum(Mul(Sigmoid(MatMul(hidden, w2)), NewConst(tensor.Randn(5, 3, 1, rng))))
		backward(head)
		if hidden.Grad != nil || head.Grad != nil {
			t.Error("an intermediate gradient outlived Backward")
		}
		out = append(out, append(append([]float64(nil), w1.Grad.Data...), w2.Grad.Data...))
	}
	return out
}

func TestBackwardOverSharedHiddenMatchesReference(t *testing.T) {
	got := sharedHiddenGrads(t, Backward, 5)
	want := sharedHiddenGrads(t, refBackward, 5)
	for pass := range want {
		requireSameBits(t, "parameter gradients after pass", got[pass], want[pass])
	}
}

// Concurrent backward passes take distinct arenas: goroutines training
// their own graphs at once must produce the gradients of a serial run.
func TestBackwardConcurrentMatchesSerial(t *testing.T) {
	want := sharedHiddenGrads(t, refBackward, 11)
	var wg sync.WaitGroup
	results := make([][][]float64, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = sharedHiddenGrads(t, Backward, 11)
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
// backFn does not run — exactly as when every gradient was allocated on
// first use.
func TestBackwardSkipsNodesWithoutGradient(t *testing.T) {
	p := NewParam(tensor.FromRow([]float64{1, 2}), "p")
	ran := false
	mid := newNode(tensor.FromRow([]float64{3, 4}), func(*tensor.Tensor) { ran = true }, p)
	var midGrad *tensor.Tensor
	root := newNode(tensor.FromRow([]float64{5}), func(*tensor.Tensor) { midGrad = mid.Grad }, mid)
	Backward(root)
	if ran || midGrad != nil || p.Grad != nil {
		t.Fatalf("a node that received no gradient: backFn ran %v, Grad %v, parent Grad %v", ran, midGrad, p.Grad)
	}
	if root.Grad != nil || mid.gradSlot != nil || root.gradSlot != nil {
		t.Fatal("Backward left a gradient or arena slot on an intermediate node")
	}
}
