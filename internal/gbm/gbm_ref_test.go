package gbm

// Fit bins every feature once and splits on bin indices; the trees must be
// the ones the per-node binary search grew. That growTree is kept here as
// the reference, and every comparison is on math.Float64bits.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refFit is Fit as it stood before the pre-binning: it hands the raw rows
// to refGrowTree every round.
func refFit(x [][]float64, y []float64, params Params, rng *rand.Rand) *Model {
	m := &Model{lr: params.LearningRate, params: params}
	m.edges = computeBinEdges(x, params.NumBins)
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
		t := refGrowTree(x, residual, rows, m.edges, params, rng)
		m.trees = append(m.trees, t)
		for i := range y {
			pred[i] += m.lr * t.predictBinned(x[i])
		}
	}
	return m
}

// refGrowTree is growTree before the pre-binning: every (node, feature,
// row) value is binary-searched into its bin, each histogram is freshly
// allocated, and a split compares raw values with the threshold.
func refGrowTree(x [][]float64, residual []float64, rows []int, edges [][]float64, params Params, rng *rand.Rand) *tree {
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
	nf := len(x[0])
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
			e := edges[f]
			if len(e) == 0 {
				continue
			}
			histSum := make([]float64, len(e)+1)
			histCnt := make([]float64, len(e)+1)
			for _, i := range cur.idx {
				b := binOf(x[i][f], e)
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
		thresh := edges[bestFeat][bestBin]
		var li, ri []int
		for _, i := range cur.idx {
			if x[i][bestFeat] <= thresh {
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
		t.thresh[cur.id] = thresh
		t.left[cur.id] = lid
		t.right[cur.id] = rid
		queue = append(queue, growNode{idx: li, depth: cur.depth + 1, id: lid}, growNode{idx: ri, depth: cur.depth + 1, id: rid})
	}
	return t
}

// sameBits reports whether two float slices hold the same bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFitMatchesReferenceTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	datasets := map[string]func(n, nf int) [][]float64{
		"continuous": func(n, nf int) [][]float64 {
			x := make([][]float64, n)
			for i := range x {
				x[i] = make([]float64, nf)
				for f := range x[i] {
					x[i][f] = rng.NormFloat64()
				}
			}
			return x
		},
		// Few distinct values: ties at bin edges, collapsed edges, and a
		// constant column with no edges at all.
		"ties": func(n, nf int) [][]float64 {
			x := make([][]float64, n)
			for i := range x {
				x[i] = make([]float64, nf)
				for f := range x[i] {
					x[i][f] = float64(rng.Intn(f + 1))
				}
				x[i][0] = 3
			}
			return x
		},
		// ±Inf and NaN among finite values, rare enough that no NaN is
		// drawn as an edge: a NaN value takes the last bin and goes right.
		"nonfinite": func(n, nf int) [][]float64 {
			x := make([][]float64, n)
			for i := range x {
				x[i] = make([]float64, nf)
				for f := range x[i] {
					x[i][f] = rng.NormFloat64()
					switch rng.Intn(80) {
					case 0:
						x[i][f] = math.Inf(1)
					case 1:
						x[i][f] = math.Inf(-1)
					case 2:
						x[i][f] = math.NaN()
					}
				}
			}
			return x
		},
	}
	for name, gen := range datasets {
		for _, p := range []Params{DefaultParams(), {NumRounds: 30, LearningRate: 0.2, MaxDepth: 4, MinLeaf: 2, NumBins: 8, FeatureFraction: 1, RowFraction: 1}} {
			x := gen(300, 6)
			y := make([]float64, len(x))
			for i := range y {
				y[i] = rng.NormFloat64() + float64(i%7)
			}
			got := Fit(x, y, p, rand.New(rand.NewSource(5)))
			want := refFit(x, y, p, rand.New(rand.NewSource(5)))
			label := fmt.Sprintf("%s/bins=%d", name, p.NumBins)
			if math.Float64bits(got.base) != math.Float64bits(want.base) || len(got.trees) != len(want.trees) {
				t.Fatalf("%s: base or tree count differs", label)
			}
			for k, g := range got.trees {
				w := want.trees[k]
				if !equalInts(g.feature, w.feature) || !sameBits(g.thresh, w.thresh) ||
					!equalInts(g.left, w.left) || !equalInts(g.right, w.right) || !sameBits(g.value, w.value) {
					t.Fatalf("%s: tree %d differs from the reference", label, k)
				}
				for n := range g.leaf {
					if g.leaf[n] != w.leaf[n] {
						t.Fatalf("%s: tree %d node %d leaf flag differs", label, k, n)
					}
				}
			}
		}
	}
}
