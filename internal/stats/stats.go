// Package stats provides the statistical utilities the LITE reproduction
// needs: descriptive statistics, sampling helpers (including Latin
// Hypercube Sampling used by the AutoTune-style baseline), and the Wilcoxon
// signed-rank test the paper uses to report significance of Adaptive Model
// Update improvements (Table IX).
package stats

import (
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs (+Inf for empty input).
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs (−Inf for empty input).
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Argsort returns indices that would sort xs ascending.
func Argsort(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx
}

// Shuffle permutes xs in place using rng.
func Shuffle[T any](xs []T, rng *rand.Rand) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// LatinHypercube returns k points in the unit hypercube [0,1)^d using Latin
// Hypercube Sampling: each dimension is divided into k strata and each
// stratum is hit exactly once.
func LatinHypercube(k, d int, rng *rand.Rand) [][]float64 {
	pts := make([][]float64, k)
	for i := range pts {
		pts[i] = make([]float64, d)
	}
	for j := 0; j < d; j++ {
		perm := rng.Perm(k)
		for i := 0; i < k; i++ {
			pts[i][j] = (float64(perm[i]) + rng.Float64()) / float64(k)
		}
	}
	return pts
}

// Pearson returns the Pearson correlation coefficient of xs and ys.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation of xs and ys.
func Spearman(xs, ys []float64) float64 {
	return Pearson(ranks(xs), ranks(ys))
}

func ranks(xs []float64) []float64 {
	idx := Argsort(xs)
	r := make([]float64, len(xs))
	i := 0
	for i < len(idx) {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// WilcoxonSignedRank performs the two-sided Wilcoxon signed-rank test on
// paired samples and returns the W statistic and an approximate p-value
// using the normal approximation with continuity correction (ties in
// |differences| receive average ranks; zero differences are dropped,
// following Wilcoxon's original treatment). The paper reports this test for
// Table IX.
func WilcoxonSignedRank(a, b []float64) (w float64, p float64) {
	if len(a) != len(b) {
		panic("stats: Wilcoxon requires paired samples of equal length")
	}
	var diffs []float64
	for i := range a {
		if d := a[i] - b[i]; d != 0 {
			diffs = append(diffs, d)
		}
	}
	n := len(diffs)
	if n == 0 {
		return 0, 1
	}
	abs := make([]float64, n)
	for i, d := range diffs {
		abs[i] = math.Abs(d)
	}
	r := ranks(abs)
	var wPlus, wMinus float64
	for i, d := range diffs {
		if d > 0 {
			wPlus += r[i]
		} else {
			wMinus += r[i]
		}
	}
	w = math.Min(wPlus, wMinus)
	if n < 10 {
		// Exact two-sided p-value by enumerating all 2^n sign assignments.
		var rankSum float64
		for i := 0; i < n; i++ {
			rankSum += r[i]
		}
		count := 0
		total := 1 << n
		for mask := 0; mask < total; mask++ {
			var wp float64
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					wp += r[i]
				}
			}
			if math.Min(wp, rankSum-wp) <= w {
				count++
			}
		}
		return w, float64(count) / float64(total)
	}
	mean := float64(n*(n+1)) / 4
	sd := math.Sqrt(float64(n*(n+1)*(2*n+1)) / 24)
	z := (w - mean + 0.5) / sd
	return w, 2 * normalCDF(z)
}

// normalCDF returns P(Z ≤ z) for a standard normal variable.
func normalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalCDF exposes the standard normal CDF (used by the BO baseline's
// Expected Improvement acquisition).
func NormalCDF(z float64) float64 { return normalCDF(z) }

// NormalPDF returns the standard normal density at z.
func NormalPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}
