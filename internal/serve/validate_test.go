package serve

import (
	"bytes"
	"math"
	"testing"

	"lite/internal/core"
	"lite/internal/metrics"
)

// scoreEach is validator.score as it stood before each case became one
// batched pass: one ScoreChecked per candidate.
func scoreEach(v *validator, t *core.Tuner) (s valScore) {
	for _, c := range v.cases {
		scorer := t.Model.NewAppScorer(c.app.Spec, c.data, c.env)
		preds := make([]float64, len(c.cands))
		for i, cand := range c.cands {
			pred, finite := scorer.ScoreChecked(cand)
			preds[i] = pred
			if !finite || math.IsNaN(pred) || math.IsInf(pred, 0) {
				s.NonFinite++
			}
		}
		rank := metrics.RankByScore(preds)
		s.NDCG += metrics.NDCGAtK(rank, c.gold, valTopK)
		best := c.truth[c.gold[0]]
		picked := c.truth[rank[0]]
		if best > 0 {
			s.Regret += math.Min((picked-best)/best, regretCap)
		} else if picked > best {
			s.Regret += regretCap
		}
	}
	n := float64(len(v.cases))
	s.NDCG /= n
	s.Regret /= n
	return s
}

// TestValidatorScoreMatchesPerCandidate: scoring each validation case in
// one batched pass gives the gate the score the per-candidate loop gave —
// NDCG and regret to the bit, and the same count of non-finite
// predictions on a NaN-poisoned clone, which reads none of its parent's
// stage representations.
func TestValidatorScoreMatchesPerCandidate(t *testing.T) {
	shared, _ := testTuner(t)
	v := newValidator(shared, ValidationOptions{Enable: true}.withDefaults(), 101)
	// A copy with an Encoder of its own: other tests score on the shared
	// one, poisoned clones included.
	var buf bytes.Buffer
	if err := shared.Save(&buf); err != nil {
		t.Fatal(err)
	}
	tuner, err := core.LoadTuner(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	v.score(tuner)
	poisoned := tuner.CloneForUpdate(2)
	chaosCorrupt(poisoned)
	if n := poisoned.Model.StageRepEntries(); n != 0 {
		t.Fatalf("a corrupted clone reads %d of its parent's stage representations", n)
	}
	for _, tc := range []struct {
		name  string
		tuner *core.Tuner
	}{{"healthy", tuner.CloneForUpdate(1)}, {"poisoned", poisoned}} {
		got, want := v.score(tc.tuner), scoreEach(v, tc.tuner)
		if math.Float64bits(got.NDCG) != math.Float64bits(want.NDCG) ||
			math.Float64bits(got.Regret) != math.Float64bits(want.Regret) || got.NonFinite != want.NonFinite {
			t.Fatalf("%s: batched score %+v, per-candidate %+v", tc.name, got, want)
		}
		t.Logf("%s: %+v", tc.name, got)
	}
	if s := v.score(poisoned); s.NonFinite != len(v.cases)*valCandidates {
		t.Fatalf("poisoned clone: %d non-finite predictions, want all %d", s.NonFinite, len(v.cases)*valCandidates)
	}
}
