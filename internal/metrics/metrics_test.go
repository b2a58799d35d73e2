package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHRAtKPerfect(t *testing.T) {
	gold := []int{3, 1, 4, 0, 2}
	if HRAtK(gold, gold, 5) != 1 {
		t.Fatal("perfect ranking should give HR=1")
	}
	if HRAtK(gold, gold, 3) != 1 {
		t.Fatal("perfect prefix should give HR=1")
	}
}

func TestHRAtKDisjoint(t *testing.T) {
	pred := []int{5, 6, 7}
	gold := []int{0, 1, 2}
	if HRAtK(pred, gold, 3) != 0 {
		t.Fatal("disjoint top-K should give HR=0")
	}
}

func TestHRAtKPartial(t *testing.T) {
	pred := []int{0, 9, 1}
	gold := []int{0, 1, 2}
	got := HRAtK(pred, gold, 3)
	if math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("HR = %v, want 2/3", got)
	}
}

func TestHRAtKOrderInvariantWithinTopK(t *testing.T) {
	gold := []int{0, 1, 2, 3, 4}
	a := HRAtK([]int{2, 0, 1}, gold, 3)
	b := HRAtK([]int{0, 1, 2}, gold, 3)
	if a != b {
		t.Fatal("HR@K should ignore order within top-K")
	}
}

func TestNDCGPerfectIsOne(t *testing.T) {
	gold := []int{3, 1, 4, 0, 2}
	if math.Abs(NDCGAtK(gold, gold, 5)-1) > 1e-12 {
		t.Fatalf("perfect NDCG = %v", NDCGAtK(gold, gold, 5))
	}
}

func TestNDCGPenalizesSwaps(t *testing.T) {
	gold := []int{0, 1, 2, 3, 4}
	swapped := []int{1, 0, 2, 3, 4}
	perfect := NDCGAtK(gold, gold, 5)
	withSwap := NDCGAtK(swapped, gold, 5)
	if withSwap >= perfect {
		t.Fatalf("swap should reduce NDCG: %v >= %v", withSwap, perfect)
	}
	if withSwap <= 0 {
		t.Fatal("one swap should not zero NDCG")
	}
}

func TestNDCGOrderSensitive(t *testing.T) {
	gold := []int{0, 1, 2}
	// Best item ranked last vs first.
	worst := NDCGAtK([]int{2, 1, 0}, gold, 3)
	best := NDCGAtK([]int{0, 1, 2}, gold, 3)
	if worst >= best {
		t.Fatalf("NDCG must be order sensitive: %v >= %v", worst, best)
	}
}

func TestNDCGBoundedZeroOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(10)
		gold := rng.Perm(n)
		pred := rng.Perm(n)
		v := NDCGAtK(pred, gold, 5)
		return v >= 0 && v <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHRBoundedZeroOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(10)
		gold := rng.Perm(n)
		pred := rng.Perm(n)
		v := HRAtK(pred, gold, 5)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRankByScoreAscending(t *testing.T) {
	ranked := RankByScore([]float64{30, 10, 20})
	want := []int{1, 2, 0}
	for i := range want {
		if ranked[i] != want[i] {
			t.Fatalf("RankByScore = %v", ranked)
		}
	}
}

func TestETRDefinition(t *testing.T) {
	// Method found the best-known time → ETR = 1.
	if ETR(100, 40, 40) != 1 {
		t.Fatal("best method should have ETR 1")
	}
	// No improvement → ETR = 0.
	if ETR(100, 100, 40) != 0 {
		t.Fatal("no improvement should have ETR 0")
	}
	// Halfway between default and best → 0.5.
	if math.Abs(ETR(100, 70, 40)-0.5) > 1e-12 {
		t.Fatalf("ETR = %v, want 0.5", ETR(100, 70, 40))
	}
	// Degenerate: default already optimal.
	if ETR(40, 40, 40) != 1 {
		t.Fatal("default==min and method==default should be 1")
	}
	if ETR(40, 50, 40) != 0 {
		t.Fatal("regression past optimal default should be 0")
	}
}

func TestKLargerThanLists(t *testing.T) {
	pred := []int{0, 1}
	gold := []int{1, 0}
	if HRAtK(pred, gold, 10) != 1 {
		t.Fatal("K beyond list length should clamp")
	}
	v := NDCGAtK(pred, gold, 10)
	if v <= 0 || v > 1 {
		t.Fatalf("clamped NDCG out of range: %v", v)
	}
}
