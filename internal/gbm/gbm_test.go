package gbm

import (
	"math"
	"math/rand"
	"testing"
)

func TestFitsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 500
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = 4*x[i][0] - 2*x[i][1] + 1
	}
	m := Fit(x, y, DefaultParams(), rng)
	if rmse := m.RMSE(x, y); rmse > 0.3 {
		t.Fatalf("training RMSE too high: %v", rmse)
	}
}

func TestFitsNonlinearInteraction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 800
	x := make([][]float64, n)
	y := make([]float64, n)
	target := func(v []float64) float64 { return math.Sin(5*v[0]) * (1 + v[1]) }
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = target(x[i])
	}
	m := Fit(x, y, DefaultParams(), rng)
	var mse float64
	for i := 0; i < 200; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		d := m.Predict(p) - target(p)
		mse += d * d
	}
	mse /= 200
	if mse > 0.05 {
		t.Fatalf("test MSE too high: %v", mse)
	}
}

func TestBoostingImprovesWithRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 300
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64()}
		y[i] = x[i][0] * x[i][0] * 10
	}
	few := DefaultParams()
	few.NumRounds = 5
	many := DefaultParams()
	many.NumRounds = 150
	mFew := Fit(x, y, few, rand.New(rand.NewSource(4)))
	mMany := Fit(x, y, many, rand.New(rand.NewSource(4)))
	if mMany.RMSE(x, y) >= mFew.RMSE(x, y) {
		t.Fatalf("more rounds should fit better: %v vs %v", mMany.RMSE(x, y), mFew.RMSE(x, y))
	}
}

func TestNumTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0, 1, 2, 3}
	p := DefaultParams()
	p.NumRounds = 17
	m := Fit(x, y, p, rng)
	if m.NumTrees() != 17 {
		t.Fatalf("NumTrees = %d", m.NumTrees())
	}
}

func TestConstantTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := [][]float64{{0, 1}, {1, 0}, {0.5, 0.5}, {0.2, 0.8}, {0.9, 0.4}, {0.3, 0.1}}
	y := []float64{7, 7, 7, 7, 7, 7}
	m := Fit(x, y, DefaultParams(), rng)
	if got := m.Predict([]float64{0.4, 0.6}); math.Abs(got-7) > 1e-6 {
		t.Fatalf("constant prediction = %v", got)
	}
}

func TestPanicsOnEmptyData(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Fit(nil, nil, DefaultParams(), rand.New(rand.NewSource(1)))
}

func TestBinOf(t *testing.T) {
	edges := []float64{1, 2, 3}
	cases := []struct {
		v    float64
		want int
	}{{0.5, 0}, {1, 0}, {1.5, 1}, {2, 1}, {2.5, 2}, {3, 2}, {4, 3}}
	for _, c := range cases {
		if got := binOf(c.v, edges); got != c.want {
			t.Fatalf("binOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	x := [][]float64{{0}, {0.2}, {0.4}, {0.6}, {0.8}, {1}}
	y := []float64{0, 1, 2, 3, 4, 5}
	m1 := Fit(x, y, DefaultParams(), rand.New(rand.NewSource(9)))
	m2 := Fit(x, y, DefaultParams(), rand.New(rand.NewSource(9)))
	if m1.Predict([]float64{0.5}) != m2.Predict([]float64{0.5}) {
		t.Fatal("gbm not deterministic under fixed seed")
	}
}

// BenchmarkGBMFit measures one Fit with the default parameters (120
// rounds, 32 bins) on 1000 rows of 24 features, near the Table VII
// baseline's training set.
func BenchmarkGBMFit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([][]float64, 1000)
	y := make([]float64, len(x))
	for i := range x {
		x[i] = make([]float64, 24)
		for f := range x[i] {
			x[i][f] = rng.Float64()
		}
		y[i] = 4*x[i][0] - 2*x[i][1]*x[i][2] + rng.NormFloat64()*0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fit(x, y, DefaultParams(), rand.New(rand.NewSource(1)))
	}
}
