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
// last, read the source sample's stage encodings from the Encoder's memo
// and train the weights the per-update encoding trains, bit for bit; a
// model whose encoder weights differ — another initialisation, or one
// weight one ulp away — rebuilds the memo instead of reading it.
func TestAMUSourceRowsMatch(t *testing.T) {
	m, data := refFixture(t)
	m.Fit(data, rand.New(rand.NewSource(97)))
	source, target := data[:len(data)/2], data[len(data)/2:]
	t1, t2 := target[:len(target)/2], target[len(target)/2:]
	frozen := &m.Encoder.frozen
	cfg := DefaultAMUConfig()

	// The per-update path: the memo is emptied before every retrain, so
	// each encodes its rows itself.
	ref1 := m.Clone()
	frozen.reps = nil
	AdaptiveModelUpdate(ref1, source, t1, cfg, rand.New(rand.NewSource(101)))
	ref2 := ref1.Clone()
	frozen.reps = nil
	AdaptiveModelUpdate(ref2, source, t2, cfg, rand.New(rand.NewSource(103)))

	frozen.reps = nil
	gen1 := m.Clone()
	AdaptiveModelUpdate(gen1, source, t1, cfg, rand.New(rand.NewSource(101)))
	built := frozen.reps[keyOf(source[0])]
	gen2 := gen1.Clone()
	AdaptiveModelUpdate(gen2, source, t2, cfg, rand.New(rand.NewSource(103)))
	if read := frozen.reps[keyOf(source[0])]; len(read) == 0 || &read[0] != &built[0] {
		t.Fatal("the second retrain rebuilt the source sample's encodings instead of reading the memo")
	}
	requireSameWeights(t, "first retrain", gen1, ref1)
	requireSameWeights(t, "second retrain", gen2, ref2)

	// Another initialisation of the encoders shares the Encoder but not
	// the weights: its retrain must encode with its own.
	other := NewNECS(m.Encoder, m.Cfg, rand.New(rand.NewSource(107)))
	otherRef := other.Clone()
	frozen.reps = nil
	AdaptiveModelUpdate(otherRef, source, t1, cfg, rand.New(rand.NewSource(109)))
	AdaptiveModelUpdate(gen2.Clone(), source, t1, cfg, rand.New(rand.NewSource(109))) // the memo now holds gen2's rows
	AdaptiveModelUpdate(other, source, t1, cfg, rand.New(rand.NewSource(109)))
	requireSameWeights(t, "retrain of another initialisation", other, otherRef)
	if frozen.weights != encoderFingerprint(other) {
		t.Fatal("the memo does not hold the last retrained model's encoder weights")
	}
	requireFreshRows(t, "another initialisation", other.Clone(), source)

	// One embedding weight one ulp away is other weights too.
	nudged := gen2.Clone()
	w := nudged.Code.Embedding.Value.Data
	w[0] = math.Nextafter(w[0], math.Inf(1))
	requireFreshRows(t, "one ulp", nudged, source)
	requireFreshRows(t, "back to the retrained weights", gen2.Clone(), source)
}

// Concurrent updates share the Encoder's memo: models with two settings
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
		m.Encoder.frozen.reps = nil
		AdaptiveModelUpdate(want[i], source, target, cfg, rand.New(rand.NewSource(int64(131+i))))
	}
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
