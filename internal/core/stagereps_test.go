package core

// Tests for the stage-representation table (Encoder.reps, DESIGN.md
// §12.6). The contract: an entry is keyed by its stage and by the
// fingerprint of the encoder weights it was computed under, so a model
// reads only entries of its own weights and scores bitwise like a copy of
// itself on an Encoder of its own — after every trainer, across clones and
// hot-swaps, and when many scorers fill the table at once. A model that has
// scored is never trained: training it panics.

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
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

// uncached returns a copy of m on an Encoder of its own, same
// vocabularies, whose stage-rep table is empty: it computes every
// representation from its own weights.
func uncached(m *NECS) *NECS {
	c := m.Clone()
	c.Encoder = NewEncoderFromVocabs(m.Encoder.Vocab, m.Encoder.OpVocab, m.Encoder.cfg)
	return c
}

// dropStageReps empties e's stage-rep table.
func dropStageReps(e *Encoder) {
	e.reps.Range(func(k, _ any) bool {
		e.reps.Delete(k)
		return true
	})
}

// assertFresh fails unless the model scores bitwise like an uncached copy
// of its current weights, and differently from how its parent scored
// before the training under test — training that moved nothing proves
// nothing.
func (f *repFixture) assertFresh(t *testing.T, m *NECS, before []float64) {
	t.Helper()
	got, want := f.scores(m), f.scores(uncached(m))
	if !bitsEqual(got, want) {
		t.Fatalf("warmed model serves stale stage representations:\n got  %v\n want %v", got, want)
	}
	if bitsEqual(got, before) {
		t.Fatal("the mutation did not change any score; the staleness check is vacuous")
	}
}

// trainers are every writer of a model's weights, each run on an unscored
// model.
func (f *repFixture) trainers() map[string]func(m *NECS) {
	target := f.tuner.EncodeRun(instrument.Run(f.app.Spec, f.data, f.env, sparksim.DefaultConfig()))
	return map[string]func(m *NECS){
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
}

// TestStageRepsDroppedByEveryMutator trains an unscored clone, whose
// parent has filled the table, with each weight writer, then scores it:
// its scores must match an uncached copy of the trained weights.
func TestStageRepsDroppedByEveryMutator(t *testing.T) {
	f := newRepFixture(t)
	before := f.scores(f.tuner.Model)
	for name, train := range f.trainers() {
		t.Run(name, func(t *testing.T) {
			m := f.tuner.Model.Clone()
			train(m)
			f.assertFresh(t, m, before)
		})
	}
}

// TestTrainingAScoredModelPanics: Fit and AdaptiveModelUpdate refuse a
// model that has computed a stage representation, before writing a weight,
// and name the rule.
func TestTrainingAScoredModelPanics(t *testing.T) {
	f := newRepFixture(t)
	trainers := f.trainers()
	// BestEpochRollback runs only inside Fit, after Fit's own check.
	for _, name := range []string{"Fit", "AdaptiveModelUpdate"} {
		train := trainers[name]
		t.Run(name, func(t *testing.T) {
			m := f.tuner.Model.Clone()
			f.scores(m)
			sum := weightChecksum(m)
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "train a Clone") {
					t.Fatalf("training a scored model: recovered %v, want a panic naming the rule", r)
				}
				if weightChecksum(m) != sum {
					t.Fatal("the refused trainer wrote weights before panicking")
				}
			}()
			train(m)
		})
	}
}

// TestStageRepsAcrossUpdateSwap: a generation is scored while its
// successor trains on a clone; the swapped-in successor reads its
// predecessor's entries — its first scores run no CNN or GCN — and
// scores, and recommends, bit for bit like an uncached copy of itself.
func TestStageRepsAcrossUpdateSwap(t *testing.T) {
	f := newRepFixture(t)
	var live atomic.Pointer[Tuner]
	live.Store(f.tuner.CloneForUpdate(7))
	before := f.scores(live.Load().Model)

	next := live.Load().CloneForUpdate(8)
	cfg := next.AMU
	cfg.Epochs = 1
	target := next.EncodeRun(instrument.Run(f.app.Spec, f.data, f.env, sparksim.DefaultConfig()))
	AdaptiveModelUpdate(next.Model, f.source, target, cfg, rand.New(rand.NewSource(9)))
	live.Store(next)

	pub := live.Load()
	_, misses0 := pub.Model.StageRepStats()
	f.assertFresh(t, pub.Model, before)
	if _, misses1 := pub.Model.StageRepStats(); misses1 != misses0 {
		t.Fatalf("the swapped-in generation ran the encoders %d times on stages its predecessor had scored", misses1-misses0)
	}
	// The public read path agrees with an uncached copy too.
	rec := pub.RecommendFrom(f.app.Spec, f.data, f.env, f.cands)
	fresh := pub.CloneForUpdate(7)
	fresh.Model = uncached(pub.Model)
	want := fresh.RecommendFrom(f.app.Spec, f.data, f.env, f.cands)
	if math.Float64bits(rec.PredictedSeconds) != math.Float64bits(want.PredictedSeconds) || rec.Config != want.Config {
		t.Fatalf("Recommend after the swap: %v (%v s), uncached copy says %v (%v s)",
			rec.Config, rec.PredictedSeconds, want.Config, want.PredictedSeconds)
	}
}

// TestStageRepsNotInheritedByCloneOrLoad: a copy never reads
// representations of weights other than its own. Clone and CloneForUpdate
// share the original's setting, so they read its entries — no CNN or GCN
// runs — and score bit for bit like it; a loaded copy has an Encoder and
// a table of its own; a fitted or NaN-poisoned copy has another
// fingerprint and reads none of the original's entries. Training or
// poisoning a copy leaves the original's entries and scores alone.
func TestStageRepsNotInheritedByCloneOrLoad(t *testing.T) {
	f := newRepFixture(t)
	parent := f.tuner.Model
	parentScores := f.scores(parent)
	warmed := parent.StageRepEntries()
	if warmed == 0 {
		t.Fatal("scoring did not warm the table")
	}

	var buf bytes.Buffer
	if err := f.tuner.Save(&buf); err != nil {
		t.Fatal(err)
	}
	copies := map[string]struct {
		copyOf func(t *testing.T) *NECS
		shares bool
	}{
		"Clone":          {func(*testing.T) *NECS { return parent.Clone() }, true},
		"CloneForUpdate": {func(*testing.T) *NECS { return f.tuner.CloneForUpdate(1).Model }, true},
		"LoadTuner": {func(t *testing.T) *NECS {
			loaded, err := LoadTuner(bytes.NewReader(buf.Bytes()), 1)
			if err != nil {
				t.Fatal(err)
			}
			return loaded.Model
		}, false},
	}
	for name, tc := range copies {
		t.Run(name, func(t *testing.T) {
			c := tc.copyOf(t)
			wantEntries := 0
			if tc.shares {
				wantEntries = warmed
			}
			if n := c.StageRepEntries(); n != wantEntries {
				t.Fatalf("copy starts with %d readable representations, want %d", n, wantEntries)
			}
			_, misses0 := c.StageRepStats()
			if got := f.scores(c); !bitsEqual(got, parentScores) {
				t.Fatalf("copy of the same weights scores differently:\n got  %v\n want %v", got, parentScores)
			}
			if _, misses1 := c.StageRepStats(); tc.shares && misses1 != misses0 {
				t.Fatalf("a copy sharing the original's weights ran the encoders %d times", misses1-misses0)
			}

			trained := tc.copyOf(t)
			trained.Cfg.Epochs = 1
			trained.Fit(f.source, rand.New(rand.NewSource(11)))
			if trained.fp == parent.fp {
				t.Fatal("a fitted copy reads the original's representations")
			}
			f.assertFresh(t, trained, parentScores)

			poisoned := tc.copyOf(t)
			poisonModel(poisoned)
			if poisoned.fp == parent.fp {
				t.Fatal("a poisoned copy reads the original's representations")
			}
			if _, ok := poisoned.NewAppScorer(f.app.Spec, f.data, f.env).ScoreChecked(f.cands[0]); ok {
				t.Fatal("a poisoned copy scored a candidate finitely")
			}
			if parent.StageRepEntries() != warmed || !bitsEqual(f.scores(parent), parentScores) {
				t.Fatal("training a copy disturbed the original's entries or scores")
			}
		})
	}
}

// TestStageRepsAfterDirectWeightWrite: code that writes Params() itself
// does so before the model's first score and then refreshes its
// fingerprint (poisonModel poisons an unscored clone, as serve's
// chaosCorrupt does); the poisoned model then computes its
// representations from the poisoned weights and reports every candidate
// as un-rankable, which is what the serve layer's validation gate
// rejects on. Refreshing a scored model's fingerprint panics.
func TestStageRepsAfterDirectWeightWrite(t *testing.T) {
	f := newRepFixture(t)
	f.scores(f.tuner.Model)
	m := f.tuner.Model.Clone()
	poisonModel(m)
	scorer, fresh := m.NewAppScorer(f.app.Spec, f.data, f.env), uncached(m).NewAppScorer(f.app.Spec, f.data, f.env)
	for si := range scorer.stages {
		if !bitsEqual(scorer.stages[si].rep, fresh.stages[si].rep) {
			t.Fatalf("stage %d carries a representation of other weights", scorer.stages[si].index)
		}
	}
	if _, ok := scorer.ScoreChecked(f.cands[0]); ok {
		t.Fatal("poisoned model scored a candidate finitely")
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "train a Clone") {
			t.Fatalf("RefreshFingerprint on a scored model: recovered %q, want a panic naming the rule", msg)
		}
	}()
	m.RefreshFingerprint()
}

// TestStageRepsConcurrentColdFill: 16 goroutines build scorers for one app
// on an empty table (run under -race). All of them get bitwise the same
// representations a serial build on another Encoder computes, the table
// ends with one entry per unique stage, and a later build is served
// entirely from it, sharing the memoized slices instead of copying them.
func TestStageRepsConcurrentColdFill(t *testing.T) {
	f := newRepFixture(t)
	want := uncached(f.tuner.Model).NewAppScorer(f.app.Spec, f.data, f.env)
	m := uncached(f.tuner.Model)
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
		t.Fatalf("table holds %d entries for %d unique stages", got, len(want.stages))
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
