package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDescriptiveStats(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Variance(xs) != 4 {
		t.Fatalf("Variance = %v", Variance(xs))
	}
	if StdDev(xs) != 2 {
		t.Fatalf("StdDev = %v", StdDev(xs))
	}
	if Min(xs) != 2 || Max(xs) != 9 {
		t.Fatalf("Min/Max wrong")
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-input stats should be 0")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max should be ±Inf")
	}
}

func TestArgsort(t *testing.T) {
	idx := Argsort([]float64{3, 1, 2})
	want := []int{1, 2, 0}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("Argsort = %v", idx)
		}
	}
}

func TestArgsortIsPermutationAndSorted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		idx := Argsort(xs)
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			if idx[i] < 0 || idx[i] >= n || seen[idx[i]] {
				return false
			}
			seen[idx[i]] = true
			if i > 0 && xs[idx[i-1]] > xs[idx[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k, d := 8, 3
	pts := LatinHypercube(k, d, rng)
	if len(pts) != k {
		t.Fatalf("got %d points", len(pts))
	}
	// Each dimension must hit each stratum [i/k,(i+1)/k) exactly once.
	for j := 0; j < d; j++ {
		hit := make([]bool, k)
		for i := 0; i < k; i++ {
			v := pts[i][j]
			if v < 0 || v >= 1 {
				t.Fatalf("point outside unit cube: %v", v)
			}
			s := int(v * float64(k))
			if hit[s] {
				t.Fatalf("stratum %d hit twice in dim %d", s, j)
			}
			hit[s] = true
		}
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if math.Abs(Pearson(xs, ys)-1) > 1e-12 {
		t.Fatalf("Pearson = %v", Pearson(xs, ys))
	}
	neg := []float64{8, 6, 4, 2}
	if math.Abs(Pearson(xs, neg)+1) > 1e-12 {
		t.Fatalf("negative Pearson = %v", Pearson(xs, neg))
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125} // monotone but nonlinear
	if math.Abs(Spearman(xs, ys)-1) > 1e-12 {
		t.Fatalf("Spearman = %v", Spearman(xs, ys))
	}
}

func TestWilcoxonIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3}
	_, p := WilcoxonSignedRank(a, a)
	if p != 1 {
		t.Fatalf("identical samples p = %v, want 1", p)
	}
}

func TestWilcoxonDetectsConsistentShift(t *testing.T) {
	a := make([]float64, 20)
	b := make([]float64, 20)
	rng := rand.New(rand.NewSource(3))
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = a[i] + 1.0 + 0.01*rng.NormFloat64() // b consistently larger
	}
	_, p := WilcoxonSignedRank(a, b)
	if p > 0.01 {
		t.Fatalf("consistent shift not detected: p = %v", p)
	}
}

func TestWilcoxonExactSmallSample(t *testing.T) {
	// n=5 pairs, all positive differences → W = 0,
	// exact p = 2/2^5 = 0.0625 two-sided.
	a := []float64{5, 6, 7, 8, 9}
	b := []float64{1, 2, 3, 4, 5}
	w, p := WilcoxonSignedRank(a, b)
	if w != 0 {
		t.Fatalf("W = %v, want 0", w)
	}
	if math.Abs(p-0.0625) > 1e-12 {
		t.Fatalf("p = %v, want 0.0625", p)
	}
}

func TestWilcoxonPanicsOnUnequalLengths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WilcoxonSignedRank([]float64{1}, []float64{1, 2})
}

func TestNormalCDFAndPDF(t *testing.T) {
	if math.Abs(NormalCDF(0)-0.5) > 1e-12 {
		t.Fatalf("Φ(0) = %v", NormalCDF(0))
	}
	if math.Abs(NormalCDF(1.96)-0.975) > 1e-3 {
		t.Fatalf("Φ(1.96) = %v", NormalCDF(1.96))
	}
	if math.Abs(NormalPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Fatalf("φ(0) = %v", NormalPDF(0))
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := []int{1, 2, 3, 4, 5}
	Shuffle(xs, rng)
	sum := 0
	for _, x := range xs {
		sum += x
	}
	if sum != 15 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}
