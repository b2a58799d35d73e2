package forest

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func makeData(n int, f func([]float64) float64, rng *rand.Rand) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = f(x[i])
	}
	return x, y
}

func TestTreeFitsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := makeData(50, func([]float64) float64 { return 3.5 }, rng)
	tree := FitTree(x, y, TreeParams{}, rng)
	if got := tree.Predict([]float64{0.5, 0.5, 0.5}); math.Abs(got-3.5) > 1e-9 {
		t.Fatalf("constant prediction = %v", got)
	}
	if tree.Depth() != 0 {
		t.Fatalf("constant target should give a stump, depth %d", tree.Depth())
	}
}

func TestTreeFitsStepFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := makeData(200, func(v []float64) float64 {
		if v[0] > 0.5 {
			return 10
		}
		return -10
	}, rng)
	tree := FitTree(x, y, TreeParams{MaxDepth: 3}, rng)
	if p := tree.Predict([]float64{0.9, 0, 0}); math.Abs(p-10) > 0.5 {
		t.Fatalf("right side = %v", p)
	}
	if p := tree.Predict([]float64{0.1, 0, 0}); math.Abs(p+10) > 0.5 {
		t.Fatalf("left side = %v", p)
	}
}

func TestTreeRespectsMinSamplesLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := makeData(40, func(v []float64) float64 { return v[0] }, rng)
	tree := FitTree(x, y, TreeParams{MaxDepth: 20, MinSamplesLeaf: 20}, rng)
	if tree.Depth() > 1 {
		t.Fatalf("min-leaf constraint violated, depth %d", tree.Depth())
	}
}

func TestTreePanicsOnEmptyData(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FitTree(nil, nil, TreeParams{}, rand.New(rand.NewSource(1)))
}

func TestForestRegressionAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	target := func(v []float64) float64 { return 3*v[0] + v[1]*v[1] - 2*v[2] }
	x, y := makeData(400, target, rng)
	f := FitForest(x, y, ForestParams{NumTrees: 40, Tree: TreeParams{MaxDepth: 10}}, rng)
	var mse float64
	n := 100
	for i := 0; i < n; i++ {
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		d := f.Predict(p) - target(p)
		mse += d * d
	}
	mse /= float64(n)
	if mse > 0.1 {
		t.Fatalf("forest MSE too high: %v", mse)
	}
}

func TestForestBetterThanSingleTreeOnNoisyData(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	target := func(v []float64) float64 { return math.Sin(6*v[0]) + v[1] }
	x := make([][]float64, 300)
	y := make([]float64, 300)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = target(x[i]) + 0.3*rng.NormFloat64()
	}
	tree := FitTree(x, y, TreeParams{MaxDepth: 14}, rng)
	f := FitForest(x, y, ForestParams{NumTrees: 50, Tree: TreeParams{MaxDepth: 14}}, rng)
	var mseTree, mseForest float64
	for i := 0; i < 200; i++ {
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		dt := tree.Predict(p) - target(p)
		df := f.Predict(p) - target(p)
		mseTree += dt * dt
		mseForest += df * df
	}
	if mseForest >= mseTree {
		t.Fatalf("bagging should reduce variance: forest %v vs tree %v", mseForest, mseTree)
	}
}

func TestForestDeterministicGivenSeed(t *testing.T) {
	x, y := makeData(100, func(v []float64) float64 { return v[0] }, rand.New(rand.NewSource(7)))
	f1 := FitForest(x, y, ForestParams{NumTrees: 10}, rand.New(rand.NewSource(42)))
	f2 := FitForest(x, y, ForestParams{NumTrees: 10}, rand.New(rand.NewSource(42)))
	p := []float64{0.3, 0.3, 0.3}
	if f1.Predict(p) != f2.Predict(p) {
		t.Fatal("forest not deterministic under fixed seed")
	}
}

func TestForestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x, y := makeData(150, func(v []float64) float64 { return 2*v[0] - v[1] + v[2]*v[2] }, rng)
	f := FitForest(x, y, ForestParams{NumTrees: 12, Tree: TreeParams{MaxDepth: 8}}, rng)
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var g Forest
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if f.Predict(p) != g.Predict(p) {
			t.Fatal("prediction changed across JSON round trip")
		}
	}
}

func TestForestUnmarshalRejectsEmpty(t *testing.T) {
	var g Forest
	if err := json.Unmarshal([]byte("[]"), &g); err == nil {
		t.Fatal("expected error for empty forest")
	}
}

func TestTreeUnmarshalRejectsCorrupt(t *testing.T) {
	var tr Tree
	if err := json.Unmarshal([]byte(`{"feature":[0],"thresh":[1],"left":[5],"right":[6],"value":[0],"leaf":[false]}`), &tr); err == nil {
		t.Fatal("expected error for out-of-range children")
	}
}

// flatten writes nodes in pre-order, so a split's children follow it and
// every node but the root has exactly one parent; anything else would
// make Predict loop or walk a shared subtree, and is rejected at decode.
func TestTreeUnmarshalRejectsNonPreorder(t *testing.T) {
	for name, js := range map[string]string{
		"child is its parent":  `{"feature":[0,0,0],"thresh":[1,0,0],"left":[0,-1,-1],"right":[2,-1,-1],"value":[0,1,2],"leaf":[false,true,true]}`,
		"child precedes split": `{"feature":[0,0,0],"thresh":[1,1,0],"left":[1,0,-1],"right":[2,2,-1],"value":[0,1,2],"leaf":[false,false,true]}`,
		"shared child":         `{"feature":[0,0],"thresh":[1,0],"left":[1,-1],"right":[1,-1],"value":[0,1],"leaf":[false,true]}`,
		"orphan node":          `{"feature":[0,0,0,0],"thresh":[1,0,0,0],"left":[1,-1,-1,-1],"right":[2,-1,-1,-1],"value":[0,1,2,3],"leaf":[false,true,true,true]}`,
		"negative feature":     `{"feature":[-1,0,0],"thresh":[1,0,0],"left":[1,-1,-1],"right":[2,-1,-1],"value":[0,1,2],"leaf":[false,true,true]}`,
	} {
		var tr Tree
		if err := json.Unmarshal([]byte(js), &tr); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	var f Forest
	if err := json.Unmarshal([]byte(`[null]`), &f); err == nil {
		t.Error("a forest holding a null tree decoded without error")
	}
}

func TestMaxFeature(t *testing.T) {
	var tr Tree
	if err := json.Unmarshal([]byte(`{"feature":[2,0,5,0,0],"thresh":[1,0,1,0,0],"left":[1,-1,3,-1,-1],"right":[2,-1,4,-1,-1],"value":[0,1,2,3,4],"leaf":[false,true,false,true,true]}`), &tr); err != nil {
		t.Fatal(err)
	}
	if got := tr.MaxFeature(); got != 5 {
		t.Fatalf("MaxFeature = %d, want 5", got)
	}
	var leaf Tree
	if err := json.Unmarshal([]byte(`{"feature":[0],"thresh":[0],"left":[-1],"right":[-1],"value":[3],"leaf":[true]}`), &leaf); err != nil {
		t.Fatal(err)
	}
	f := Forest{Trees: []*Tree{&leaf, &tr}}
	if leaf.MaxFeature() != -1 || f.MaxFeature() != 5 {
		t.Fatalf("MaxFeature: leaf %d, forest %d; want -1 and 5", leaf.MaxFeature(), f.MaxFeature())
	}
}
