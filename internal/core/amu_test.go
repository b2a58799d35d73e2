package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// requireSameWeights fails unless got and want hold the same bits in every
// parameter.
func requireSameWeights(t *testing.T, what string, got, want *NECS) {
	t.Helper()
	pw := want.Params()
	for i, p := range got.Params() {
		for j, v := range p.Value.Data {
			if math.Float64bits(v) != math.Float64bits(pw[i].Value.Data[j]) {
				t.Fatalf("%s: %s[%d] = %v, per-update path %v", what, p.Name(), j, v, pw[i].Value.Data[j])
			}
		}
	}
}

// requireFreshRows fails unless m's frozen tower inputs for xs are what
// running m's own CNN and GCN over each row gives.
func requireFreshRows(t *testing.T, what string, m *NECS, xs []*Encoded) {
	t.Helper()
	in := m.frozenInputs(xs)
	for i, x := range xs {
		want := append(append(append([]float64(nil), x.Dense...), m.Code.Infer(x.TokenIDs).Data...), m.DAG.Infer(x.AHat, x.NodeFeats).Data...)
		for j, v := range in.RowView(i) {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				t.Fatalf("%s: row %d column %d = %v, the model's own encoders give %v", what, i, j, v, want[j])
			}
		}
	}
}

// TestAMUSourceRowsMatch: consecutive retrains, each on a clone of the
// last, read the source sample's stage encodings from the Encoder's
// stage-rep table and train the weights the per-update encoding trains,
// bit for bit; a model whose encoder weights differ — another
// initialisation, or one weight one ulp away — encodes with its own
// weights instead of reading another setting's entries.
func TestAMUSourceRowsMatch(t *testing.T) {
	m, data := refFixture(t)
	m.Fit(data, rand.New(rand.NewSource(97)))
	source, target := data[:len(data)/2], data[len(data)/2:]
	t1, t2 := target[:len(target)/2], target[len(target)/2:]
	enc := m.Encoder
	cfg := DefaultAMUConfig()

	// The per-update path: the table is emptied before every retrain, so
	// each encodes its rows itself.
	ref1 := m.Clone()
	dropStageReps(enc)
	AdaptiveModelUpdate(ref1, source, t1, cfg, rand.New(rand.NewSource(101)))
	ref2 := ref1.Clone()
	dropStageReps(enc)
	AdaptiveModelUpdate(ref2, source, t2, cfg, rand.New(rand.NewSource(103)))

	dropStageReps(enc)
	gen1 := m.Clone()
	AdaptiveModelUpdate(gen1, source, t1, cfg, rand.New(rand.NewSource(101)))
	built := enc.rep(gen1, source[0].TokenIDs, source[0].AHat, source[0].NodeFeats)
	gen2 := gen1.Clone()
	_, misses0 := gen2.StageRepStats()
	AdaptiveModelUpdate(gen2, source, t2, cfg, rand.New(rand.NewSource(103)))
	_, misses1 := gen2.StageRepStats()
	read := enc.rep(gen2, source[0].TokenIDs, source[0].AHat, source[0].NodeFeats)
	if &read[0] != &built[0] || misses1-misses0 > uint64(distinctStageCount(t2)) {
		t.Fatalf("the second retrain ran the encoders %d times for %d feedback stages: it rebuilt the source sample's encodings",
			misses1-misses0, distinctStageCount(t2))
	}
	requireSameWeights(t, "first retrain", gen1, ref1)
	requireSameWeights(t, "second retrain", gen2, ref2)

	// Another initialisation of the encoders shares the Encoder but not
	// the weights: its retrain must encode with its own.
	other := NewNECS(m.Encoder, m.Cfg, rand.New(rand.NewSource(107)))
	otherRef := other.Clone()
	dropStageReps(enc)
	AdaptiveModelUpdate(otherRef, source, t1, cfg, rand.New(rand.NewSource(109)))
	dropStageReps(enc)
	AdaptiveModelUpdate(gen2.Clone(), source, t1, cfg, rand.New(rand.NewSource(109))) // the table now holds gen2's rows
	AdaptiveModelUpdate(other, source, t1, cfg, rand.New(rand.NewSource(109)))
	requireSameWeights(t, "retrain of another initialisation", other, otherRef)
	if other.StageRepEntries() == 0 || other.fp == gen2.fp {
		t.Fatal("the retrain of another initialisation did not encode under its own weights")
	}
	requireFreshRows(t, "another initialisation", other.Clone(), source)

	// One embedding weight one ulp away is other weights too.
	nudged := gen2.Clone()
	w := nudged.Code.Embedding.Value.Data
	w[0] = math.Nextafter(w[0], math.Inf(1))
	nudged.RefreshFingerprint()
	requireFreshRows(t, "one ulp", nudged, source)
	requireFreshRows(t, "back to the retrained weights", gen2.Clone(), source)
}

// distinctStageCount is how many stages xs holds (stageSlots).
func distinctStageCount(xs []*Encoded) int {
	_, stages := stageSlots(xs)
	return len(stages)
}

// Concurrent updates share the Encoder's table: models with two settings
// of the encoder weights, retrained at once on several goroutines, train
// what each trains alone.
func TestAMUConcurrentMemo(t *testing.T) {
	m, data := refFixture(t)
	m.Fit(data, rand.New(rand.NewSource(113)))
	other := NewNECS(m.Encoder, m.Cfg, rand.New(rand.NewSource(127)))
	source, target := data[:len(data)/2], data[len(data)/2:]
	cfg := DefaultAMUConfig()
	bases := []*NECS{m, other, m, other}
	want := make([]*NECS, len(bases))
	for i, b := range bases {
		want[i] = b.Clone()
		dropStageReps(m.Encoder)
		AdaptiveModelUpdate(want[i], source, target, cfg, rand.New(rand.NewSource(int64(131+i))))
	}
	dropStageReps(m.Encoder)
	got := make([]*NECS, len(bases))
	var wg sync.WaitGroup
	for i, b := range bases {
		got[i] = b.Clone()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			AdaptiveModelUpdate(got[i], source, target, cfg, rand.New(rand.NewSource(int64(131+i))))
		}(i)
	}
	wg.Wait()
	for i := range bases {
		requireSameWeights(t, fmt.Sprintf("concurrent update %d", i), got[i], want[i])
	}
}
