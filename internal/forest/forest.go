// Package forest implements CART regression trees and Random Forest
// Regression. LITE's Adaptive Candidate Generation (paper §IV-A) uses an
// RFR per knob to map (datasize, application) to the center of the
// promising search region; the "RFR" competitor of Table VIII uses the same
// model as a point-prediction tuner.
package forest

import (
	"math"
	"math/rand"
	"sort"
)

// TreeParams controls CART growth.
type TreeParams struct {
	MaxDepth       int
	MinSamplesLeaf int
	// MaxFeatures is the number of features examined per split; 0 means
	// all features (plain CART), otherwise a random subset (forest mode).
	MaxFeatures int
}

// node is one vertex of a regression tree.
type node struct {
	feature  int
	thresh   float64
	left     *node
	right    *node
	value    float64
	leaf     bool
	nSamples int
}

// Tree is a CART regression tree.
type Tree struct {
	root   *node
	params TreeParams
}

// FitTree grows a regression tree on X (rows of features) and y.
func FitTree(x [][]float64, y []float64, params TreeParams, rng *rand.Rand) *Tree {
	if len(x) == 0 || len(x) != len(y) {
		panic("forest: empty or mismatched training data")
	}
	if params.MaxDepth <= 0 {
		params.MaxDepth = 12
	}
	if params.MinSamplesLeaf <= 0 {
		params.MinSamplesLeaf = 1
	}
	t := &Tree{params: params}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.grow(x, y, idx, 0, rng)
	return t
}

func mean(y []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func sse(y []float64, idx []int) float64 {
	m := mean(y, idx)
	var s float64
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s
}

func (t *Tree) grow(x [][]float64, y []float64, idx []int, depth int, rng *rand.Rand) *node {
	n := &node{value: mean(y, idx), nSamples: len(idx)}
	if depth >= t.params.MaxDepth || len(idx) < 2*t.params.MinSamplesLeaf {
		n.leaf = true
		return n
	}
	parentSSE := sse(y, idx)
	if parentSSE < 1e-12 {
		n.leaf = true
		return n
	}

	nf := len(x[0])
	features := make([]int, nf)
	for i := range features {
		features[i] = i
	}
	if t.params.MaxFeatures > 0 && t.params.MaxFeatures < nf {
		rng.Shuffle(nf, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:t.params.MaxFeatures]
	}

	bestGain := 0.0
	bestFeat := -1
	bestThresh := 0.0
	sorted := make([]int, len(idx))
	for _, f := range features {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, b int) bool { return x[sorted[a]][f] < x[sorted[b]][f] })
		// Prefix sums for O(n) split evaluation.
		var sumL, sumSqL float64
		var sumR, sumSqR float64
		for _, i := range sorted {
			sumR += y[i]
			sumSqR += y[i] * y[i]
		}
		for k := 0; k < len(sorted)-1; k++ {
			i := sorted[k]
			sumL += y[i]
			sumSqL += y[i] * y[i]
			sumR -= y[i]
			sumSqR -= y[i] * y[i]
			if x[sorted[k]][f] == x[sorted[k+1]][f] {
				continue
			}
			nL := float64(k + 1)
			nR := float64(len(sorted) - k - 1)
			if int(nL) < t.params.MinSamplesLeaf || int(nR) < t.params.MinSamplesLeaf {
				continue
			}
			sseL := sumSqL - sumL*sumL/nL
			sseR := sumSqR - sumR*sumR/nR
			gain := parentSSE - sseL - sseR
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (x[sorted[k]][f] + x[sorted[k+1]][f]) / 2
			}
		}
	}
	if bestFeat < 0 {
		n.leaf = true
		return n
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if x[i][bestFeat] <= bestThresh {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		n.leaf = true
		return n
	}
	n.feature = bestFeat
	n.thresh = bestThresh
	n.left = t.grow(x, y, leftIdx, depth+1, rng)
	n.right = t.grow(x, y, rightIdx, depth+1, rng)
	return n
}

// Predict returns the tree's estimate for one feature row.
func (t *Tree) Predict(row []float64) float64 {
	n := t.root
	for !n.leaf {
		if row[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// MaxFeature returns the largest feature index a split of the tree reads,
// or −1 for a single leaf: Predict needs rows at least one wider.
func (t *Tree) MaxFeature() int {
	m := -1
	stack := []*node{t.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.leaf {
			continue
		}
		m = max(m, n.feature)
		stack = append(stack, n.left, n.right)
	}
	return m
}

// Depth returns the maximum depth of the tree.
func (t *Tree) Depth() int { return depthOf(t.root) }

func depthOf(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Forest is a bagged ensemble of regression trees.
type Forest struct {
	Trees []*Tree
}

// ForestParams controls random-forest training.
type ForestParams struct {
	NumTrees int
	Tree     TreeParams
	// SubsampleRatio is the bootstrap fraction per tree (default 1.0 with
	// replacement).
	SubsampleRatio float64
}

// FitForest trains a random forest regressor.
func FitForest(x [][]float64, y []float64, params ForestParams, rng *rand.Rand) *Forest {
	if params.NumTrees <= 0 {
		params.NumTrees = 50
	}
	if params.SubsampleRatio <= 0 {
		params.SubsampleRatio = 1.0
	}
	if params.Tree.MaxFeatures == 0 && len(x) > 0 {
		// Default to the sqrt(features) rule.
		params.Tree.MaxFeatures = int(math.Max(1, math.Sqrt(float64(len(x[0])))))
	}
	f := &Forest{}
	n := len(x)
	m := int(params.SubsampleRatio * float64(n))
	if m < 1 {
		m = 1
	}
	for t := 0; t < params.NumTrees; t++ {
		bx := make([][]float64, m)
		by := make([]float64, m)
		for i := 0; i < m; i++ {
			j := rng.Intn(n)
			bx[i] = x[j]
			by[i] = y[j]
		}
		f.Trees = append(f.Trees, FitTree(bx, by, params.Tree, rng))
	}
	return f
}

// Predict averages the trees' estimates.
func (f *Forest) Predict(row []float64) float64 {
	var s float64
	for _, t := range f.Trees {
		s += t.Predict(row)
	}
	return s / float64(len(f.Trees))
}

// MaxFeature returns the largest Tree.MaxFeature over the forest.
func (f *Forest) MaxFeature() int {
	m := -1
	for _, t := range f.Trees {
		m = max(m, t.MaxFeature())
	}
	return m
}
