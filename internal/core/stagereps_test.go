package core

// Tests for the per-model stage-representation cache (NECS.stageRep,
// DESIGN.md §12). The contract: a model's memoized h_code ‖ h_DAG always
// matches its current weights, so a warmed model scores bitwise like a
// fresh Clone of itself — after every in-place weight mutator, across
// clones, and when many scorers fill a cold cache at once.

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"lite/internal/instrument"
	"lite/internal/sparksim"
	"lite/internal/workload"
)

// repFixture is one trained tuner plus a fixed scoring problem on it.
type repFixture struct {
	tuner  *Tuner
	source []*Encoded
	app    *workload.App
	data   sparksim.DataSpec
	env    sparksim.Environment
	cands  []sparksim.Config
}

func newRepFixture(t *testing.T) *repFixture {
	t.Helper()
	tuner, ds := batchTestTrain(t)
	f := &repFixture{tuner: tuner, app: workload.ByName("PageRank"), env: sparksim.ClusterC}
	f.source = EncodeAll(tuner.Model.Encoder, ds.Instances)
	f.data = f.app.Spec.MakeData(f.app.Sizes.Test)
	f.cands = batchTestCandidates(t, tuner, f.app, f.data, f.env, 16)
	return f
}

// scores builds a scorer on m (warming its cache) and scores the fixture's
// candidates.
func (f *repFixture) scores(m *NECS) []float64 {
	preds := make([]float64, len(f.cands))
	m.NewAppScorer(f.app.Spec, f.data, f.env).ScoreBatch(f.cands, preds, nil)
	return preds
}

func bitsEqual(a, b []float64) bool {
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

// assertFresh fails unless the (warmed) model scores bitwise like a fresh
// clone of its current weights, and differently from how it scored before
// the mutation under test — a mutation that moved nothing proves nothing.
func (f *repFixture) assertFresh(t *testing.T, m *NECS, before []float64) {
	t.Helper()
	got, want := f.scores(m), f.scores(m.Clone())
	if !bitsEqual(got, want) {
		t.Fatalf("warmed model serves stale stage representations:\n got  %v\n want %v", got, want)
	}
	if bitsEqual(got, before) {
		t.Fatal("the mutation did not change any score; the staleness check is vacuous")
	}
}

// TestStageRepsDroppedByEveryMutator warms a model, runs one in-place
// weight mutator, and requires the model to score like a fresh clone.
func TestStageRepsDroppedByEveryMutator(t *testing.T) {
	f := newRepFixture(t)
	target := f.tuner.EncodeRun(instrument.Run(f.app.Spec, f.data, f.env, sparksim.DefaultConfig()))

	mutators := map[string]func(m *NECS){
		"Fit": func(m *NECS) {
			m.Cfg.Epochs = 1
			m.Fit(f.source, rand.New(rand.NewSource(3)))
		},
		"AdaptiveModelUpdate": func(m *NECS) {
			cfg := DefaultAMUConfig()
			cfg.Epochs = 1
			AdaptiveModelUpdate(m, f.source, target, cfg, rand.New(rand.NewSource(4)))
		},
		"BestEpochRollback": func(m *NECS) {
			other := NewNECS(m.Encoder, m.Cfg, rand.New(rand.NewSource(5)))
			m.restoreParams(other.snapshotParams())
		},
	}
	for name, mutate := range mutators {
		t.Run(name, func(t *testing.T) {
			m := f.tuner.Model.Clone()
			before := f.scores(m)
			if m.StageRepEntries() == 0 {
				t.Fatal("scoring did not warm the cache")
			}
			mutate(m)
			f.assertFresh(t, m, before)
		})
	}
}

// TestStageRepsAcrossCollectFeedback: the in-place update CollectFeedback
// triggers under the tuner's write lock leaves no stale representation.
func TestStageRepsAcrossCollectFeedback(t *testing.T) {
	f := newRepFixture(t)
	tuner := f.tuner.CloneForUpdate(7)
	tuner.UpdateBatch = 2
	tuner.AMU.Epochs = 1
	before := f.scores(tuner.Model)
	updated := false
	for i := 0; i < 3 && !updated; i++ {
		run := instrument.Run(f.app.Spec, f.data, f.env, sparksim.DefaultConfig())
		updated = tuner.CollectFeedback(run, f.source)
	}
	if !updated {
		t.Fatal("feedback did not trigger an update")
	}
	f.assertFresh(t, tuner.Model, before)
	// The public read path agrees with a fresh clone too.
	rec := tuner.RecommendFrom(f.app.Spec, f.data, f.env, f.cands)
	want := tuner.CloneForUpdate(7).RecommendFrom(f.app.Spec, f.data, f.env, f.cands)
	if math.Float64bits(rec.PredictedSeconds) != math.Float64bits(want.PredictedSeconds) || rec.Config != want.Config {
		t.Fatalf("Recommend after in-place update: %v (%v s), fresh clone says %v (%v s)",
			rec.Config, rec.PredictedSeconds, want.Config, want.PredictedSeconds)
	}
}

// TestStageRepsNotInheritedByCloneOrLoad: Clone, CloneForUpdate and
// LoadTuner start with an empty cache, so a new generation never sees its
// predecessor's representations, and retraining the copy leaves the
// original's cache and scores alone.
func TestStageRepsNotInheritedByCloneOrLoad(t *testing.T) {
	f := newRepFixture(t)
	parent := f.tuner.Model
	parentScores := f.scores(parent)
	warmed := parent.StageRepEntries()
	if warmed == 0 {
		t.Fatal("scoring did not warm the cache")
	}

	var buf bytes.Buffer
	if err := f.tuner.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTuner(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	copies := map[string]*NECS{
		"Clone":          parent.Clone(),
		"CloneForUpdate": f.tuner.CloneForUpdate(1).Model,
		"LoadTuner":      loaded.Model,
	}
	for name, c := range copies {
		t.Run(name, func(t *testing.T) {
			if n := c.StageRepEntries(); n != 0 {
				t.Fatalf("copy starts with %d memoized representations", n)
			}
			if got := f.scores(c); !bitsEqual(got, parentScores) {
				t.Fatalf("copy of the same weights scores differently:\n got  %v\n want %v", got, parentScores)
			}
			c.Cfg.Epochs = 1
			c.Fit(f.source, rand.New(rand.NewSource(11)))
			f.assertFresh(t, c, parentScores)
			if parent.StageRepEntries() != warmed || !bitsEqual(f.scores(parent), parentScores) {
				t.Fatal("retraining a copy disturbed the original's cache or scores")
			}
		})
	}
}

// TestStageRepsAfterDirectWeightWrite: code that writes Params() itself
// must call ResetStageReps (poisonModel does); the poisoned model then
// reports every candidate as un-rankable, which is what the serve layer's
// validation gate rejects on.
func TestStageRepsAfterDirectWeightWrite(t *testing.T) {
	f := newRepFixture(t)
	m := f.tuner.Model.Clone()
	f.scores(m)
	poisonModel(m)
	if n := m.StageRepEntries(); n != 0 {
		t.Fatalf("%d representations survived a direct weight write", n)
	}
	scorer, fresh := m.NewAppScorer(f.app.Spec, f.data, f.env), m.Clone().NewAppScorer(f.app.Spec, f.data, f.env)
	for si := range scorer.stages {
		if !bitsEqual(scorer.stages[si].rep, fresh.stages[si].rep) {
			t.Fatalf("stage %d still carries its pre-poison representation", scorer.stages[si].index)
		}
	}
	if _, ok := scorer.ScoreChecked(f.cands[0]); ok {
		t.Fatal("poisoned model scored a candidate finitely")
	}
}

// TestStageRepsConcurrentColdFill: 16 goroutines build scorers for one app
// on a cold cache (run under -race). All of them get bitwise the same
// representations a serial build computes, the cache ends with one entry
// per unique stage, and a later build is served entirely from it, sharing
// the memoized slices instead of copying them.
func TestStageRepsConcurrentColdFill(t *testing.T) {
	f := newRepFixture(t)
	want := f.tuner.Model.Clone().NewAppScorer(f.app.Spec, f.data, f.env)
	m := f.tuner.Model.Clone()

	const n = 16
	scorers := make([]*AppScorer, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range scorers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			scorers[i] = m.NewAppScorer(f.app.Spec, f.data, f.env)
		}(i)
	}
	close(start)
	wg.Wait()

	for i, s := range scorers {
		if len(s.stages) != len(want.stages) {
			t.Fatalf("scorer %d has %d stages, want %d", i, len(s.stages), len(want.stages))
		}
		for si := range s.stages {
			if !bitsEqual(s.stages[si].rep, want.stages[si].rep) {
				t.Fatalf("scorer %d stage %d: representation differs from the serial build", i, si)
			}
		}
	}
	if got := m.StageRepEntries(); got != len(want.stages) {
		t.Fatalf("cache holds %d entries for %d unique stages", got, len(want.stages))
	}

	hits0, misses0 := m.StageRepStats()
	again := m.NewAppScorer(f.app.Spec, f.data, f.env)
	hits1, misses1 := m.StageRepStats()
	if hits1-hits0 != uint64(len(want.stages)) || misses1 != misses0 {
		t.Fatalf("warm build: %d hits, %d misses; want %d hits and no miss",
			hits1-hits0, misses1-misses0, len(want.stages))
	}
	for si := range again.stages {
		if &again.stages[si].rep[0] != &scorers[0].stages[si].rep[0] {
			t.Fatalf("stage %d: warm build copied the representation instead of sharing it", si)
		}
	}
}
