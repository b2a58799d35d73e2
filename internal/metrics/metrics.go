// Package metrics implements the evaluation metrics the paper reports:
// HR@K and NDCG@K for configuration-ranking quality (§V-C) and Execution
// Time Reduction (ETR) for end-to-end tuning quality (§V-B).
package metrics

import (
	"math"

	"lite/internal/stats"
)

// HRAtK computes Hit Ratio@K between a predicted ranking and a
// gold-standard ranking of the same candidate set. Both arguments are
// candidate indices ordered best-first. The hit ratio is the fraction of
// the gold top-K that also appears in the predicted top-K.
func HRAtK(predicted, gold []int, k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > len(gold) {
		k = len(gold)
	}
	kp := k
	if kp > len(predicted) {
		kp = len(predicted)
	}
	goldTop := make(map[int]bool, k)
	for _, id := range gold[:k] {
		goldTop[id] = true
	}
	hits := 0
	for _, id := range predicted[:kp] {
		if goldTop[id] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// NDCGAtK computes Normalized Discounted Cumulative Gain@K. Relevance of a
// candidate is graded by its position in the gold ranking: the gold-best
// candidate has relevance K, the second K−1, …, candidates outside the gold
// top-K have relevance 0. This matches the graded-relevance NDCG used in IR
// evaluation of top-K configuration ranking.
func NDCGAtK(predicted, gold []int, k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > len(gold) {
		k = len(gold)
	}
	rel := make(map[int]float64, k)
	for pos, id := range gold[:k] {
		rel[id] = float64(k - pos)
	}
	kp := k
	if kp > len(predicted) {
		kp = len(predicted)
	}
	var dcg float64
	for pos, id := range predicted[:kp] {
		if r, ok := rel[id]; ok {
			dcg += (math.Pow(2, r) - 1) / math.Log2(float64(pos)+2)
		}
	}
	var idcg float64
	for pos := 0; pos < k; pos++ {
		r := float64(k - pos)
		idcg += (math.Pow(2, r) - 1) / math.Log2(float64(pos)+2)
	}
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}

// RankByScore returns candidate indices ordered by ascending score
// (execution time: lower is better first). NaN scores rank last — a
// candidate a broken estimator cannot score must never be declared best.
func RankByScore(scores []float64) []int {
	for _, s := range scores {
		if math.IsNaN(s) {
			clean := make([]float64, len(scores))
			for i, v := range scores {
				if math.IsNaN(v) {
					clean[i] = math.Inf(1)
				} else {
					clean[i] = v
				}
			}
			return stats.Argsort(clean)
		}
	}
	return stats.Argsort(scores)
}

// ETR computes Execution Time Reduction as defined in §V-B of the paper:
//
//	ETR = (t_default − t_method) / (t_default − t_min)
//
// where t_min is the minimal execution time achieved by any tuning method
// for the application. ETR = 1 means the method found the best-known
// configuration; ETR = 0 means no improvement over the default. Times
// longer than the cap (7200 s in the paper) should be clamped by the
// caller before calling ETR.
func ETR(tDefault, tMethod, tMin float64) float64 {
	denom := tDefault - tMin
	if denom <= 0 {
		// Default already optimal: any non-regression counts as full credit.
		if tMethod <= tDefault {
			return 1
		}
		return 0
	}
	return (tDefault - tMethod) / denom
}
