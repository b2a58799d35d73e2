// Package gbm implements histogram-based gradient-boosted regression trees
// — the "LightGBM" family baseline used in the ranking ablation of
// Table VII. Trees are grown leaf-wise on binned features with L2 loss,
// shrinkage, and optional feature/row subsampling.
package gbm

import (
	"math"
	"math/rand"
	"sort"
)

// Params controls boosting.
type Params struct {
	NumRounds    int
	LearningRate float64
	MaxDepth     int
	MinLeaf      int
	// NumBins caps the histogram bins per feature; at most 256, so a bin
	// index fits the byte Fit stores it in.
	NumBins int
	// FeatureFraction and RowFraction enable stochastic boosting.
	FeatureFraction float64
	RowFraction     float64
}

// DefaultParams returns sensible defaults for the Table VII baseline.
func DefaultParams() Params {
	return Params{
		NumRounds:       120,
		LearningRate:    0.08,
		MaxDepth:        6,
		MinLeaf:         5,
		NumBins:         32,
		FeatureFraction: 0.9,
		RowFraction:     0.9,
	}
}

// Model is a trained boosted ensemble.
type Model struct {
	base   float64
	trees  []*tree
	lr     float64
	edges  [][]float64 // bin edges per feature
	params Params
}

type tree struct {
	feature []int
	thresh  []float64
	left    []int
	right   []int
	value   []float64
	leaf    []bool
}

func (t *tree) predictBinned(row []float64) float64 {
	n := 0
	for !t.leaf[n] {
		if row[t.feature[n]] <= t.thresh[n] {
			n = t.left[n]
		} else {
			n = t.right[n]
		}
	}
	return t.value[n]
}

// Fit trains the model on X (feature rows) and targets y.
func Fit(x [][]float64, y []float64, params Params, rng *rand.Rand) *Model {
	if len(x) == 0 || len(x) != len(y) {
		panic("gbm: empty or mismatched training data")
	}
	if params.NumRounds <= 0 {
		params = DefaultParams()
	}
	if params.NumBins > 256 {
		panic("gbm: NumBins above 256")
	}
	m := &Model{lr: params.LearningRate, params: params}
	m.edges = computeBinEdges(x, params.NumBins)
	g := newGrower(x, m.edges, params)

	// Base prediction: mean target.
	for _, v := range y {
		m.base += v
	}
	m.base /= float64(len(y))

	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = m.base
	}
	residual := make([]float64, len(y))
	for round := 0; round < params.NumRounds; round++ {
		for i := range y {
			residual[i] = y[i] - pred[i]
		}
		rows := sampleRows(len(y), params.RowFraction, rng)
		t := g.growTree(residual, rows, rng)
		m.trees = append(m.trees, t)
		for i := range y {
			pred[i] += m.lr * t.predictBinned(x[i])
		}
	}
	return m
}

// Predict returns the boosted estimate for one feature row.
func (m *Model) Predict(row []float64) float64 {
	out := m.base
	for _, t := range m.trees {
		out += m.lr * t.predictBinned(row)
	}
	return out
}

// NumTrees reports the ensemble size.
func (m *Model) NumTrees() int { return len(m.trees) }

func computeBinEdges(x [][]float64, bins int) [][]float64 {
	nf := len(x[0])
	edges := make([][]float64, nf)
	vals := make([]float64, len(x))
	for f := 0; f < nf; f++ {
		for i := range x {
			vals[i] = x[i][f]
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		var e []float64
		for b := 1; b < bins; b++ {
			q := sorted[b*len(sorted)/bins]
			if len(e) == 0 || q > e[len(e)-1] {
				e = append(e, q)
			}
		}
		edges[f] = e
	}
	return edges
}

func sampleRows(n int, frac float64, rng *rand.Rand) []int {
	if frac >= 1 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	k := int(frac * float64(n))
	if k < 1 {
		k = 1
	}
	return rng.Perm(n)[:k]
}

type growNode struct {
	idx   []int
	depth int
	id    int
}

// grower grows one Fit's trees. Every feature is binned once, up front:
// bins[f*n+i] is binOf(x[i][f], edges[f]), column-major so a histogram
// pass over one feature reads one contiguous column, and the two
// histogram buffers are reused across features, nodes and rounds.
//
// A split sends row i left when its bin is ≤ bestBin, which is x ≤
// edges[bestBin]: the edges of a feature rise strictly, so binOf(v) ≤ b
// exactly when v ≤ edges[b], and a NaN value takes the last bin and goes
// right either way. The trees are the ones a per-row binary search grows.
type grower struct {
	bins             []uint8
	n                int
	edges            [][]float64
	params           Params
	histSum, histCnt []float64
}

func newGrower(x [][]float64, edges [][]float64, params Params) *grower {
	n := len(x)
	g := &grower{bins: make([]uint8, n*len(edges)), n: n, edges: edges, params: params}
	width := 1
	for f, e := range edges {
		col := g.bins[f*n : (f+1)*n]
		for i, row := range x {
			col[i] = uint8(binOf(row[f], e))
		}
		width = max(width, len(e)+1)
	}
	g.histSum, g.histCnt = make([]float64, width), make([]float64, width)
	return g
}

func (g *grower) growTree(residual []float64, rows []int, rng *rand.Rand) *tree {
	params := g.params
	t := &tree{}
	newNode := func() int {
		t.feature = append(t.feature, -1)
		t.thresh = append(t.thresh, 0)
		t.left = append(t.left, -1)
		t.right = append(t.right, -1)
		t.value = append(t.value, 0)
		t.leaf = append(t.leaf, true)
		return len(t.leaf) - 1
	}
	rootID := newNode()
	queue := []growNode{{idx: rows, depth: 0, id: rootID}}

	nf := len(g.edges)
	nFeat := nf
	if params.FeatureFraction < 1 {
		nFeat = int(params.FeatureFraction * float64(nf))
		if nFeat < 1 {
			nFeat = 1
		}
	}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		sum := 0.0
		for _, i := range cur.idx {
			sum += residual[i]
		}
		t.value[cur.id] = sum / float64(len(cur.idx))
		if cur.depth >= params.MaxDepth || len(cur.idx) < 2*params.MinLeaf {
			continue
		}

		feats := rng.Perm(nf)[:nFeat]
		bestGain := 1e-10
		bestFeat, bestBin := -1, -1
		parentSum := sum
		parentCnt := float64(len(cur.idx))
		for _, f := range feats {
			e := g.edges[f]
			if len(e) == 0 {
				continue
			}
			// Histogram of residual sums per bin.
			histSum, histCnt := g.histSum[:len(e)+1], g.histCnt[:len(e)+1]
			clear(histSum)
			clear(histCnt)
			col := g.bins[f*g.n : (f+1)*g.n]
			for _, i := range cur.idx {
				b := col[i]
				histSum[b] += residual[i]
				histCnt[b]++
			}
			var cumSum, cumCnt float64
			for b := 0; b < len(e); b++ {
				cumSum += histSum[b]
				cumCnt += histCnt[b]
				if cumCnt < float64(params.MinLeaf) || parentCnt-cumCnt < float64(params.MinLeaf) {
					continue
				}
				// Variance-gain proxy: sum²/count improvement.
				gain := cumSum*cumSum/cumCnt + (parentSum-cumSum)*(parentSum-cumSum)/(parentCnt-cumCnt) - parentSum*parentSum/parentCnt
				if gain > bestGain {
					bestGain = gain
					bestFeat = f
					bestBin = b
				}
			}
		}
		if bestFeat < 0 {
			continue
		}
		col, split := g.bins[bestFeat*g.n:(bestFeat+1)*g.n], uint8(bestBin)
		var li, ri []int
		for _, i := range cur.idx {
			if col[i] <= split {
				li = append(li, i)
			} else {
				ri = append(ri, i)
			}
		}
		if len(li) == 0 || len(ri) == 0 {
			continue
		}
		lid, rid := newNode(), newNode()
		t.leaf[cur.id] = false
		t.feature[cur.id] = bestFeat
		t.thresh[cur.id] = g.edges[bestFeat][bestBin]
		t.left[cur.id] = lid
		t.right[cur.id] = rid
		queue = append(queue, growNode{idx: li, depth: cur.depth + 1, id: lid}, growNode{idx: ri, depth: cur.depth + 1, id: rid})
	}
	return t
}

func binOf(v float64, edges []float64) int {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// RMSE computes root-mean-squared error of the model on a dataset.
func (m *Model) RMSE(x [][]float64, y []float64) float64 {
	var s float64
	for i := range x {
		d := m.Predict(x[i]) - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)))
}
