package core

// Tests for the per-model stage-representation cache (NECS.stageRep,
// DESIGN.md §12.6). The contract: a model's weights are written only before
// its first score, so its memoized h_code ‖ h_DAG always matches them and a
// warmed model scores bitwise like a fresh Clone of itself — after every
// trainer, across clones and hot-swaps, and when many scorers fill a cold
// cache at once. Training a model that has scored panics.

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

// assertFresh fails unless the model scores bitwise like a fresh clone of
// its current weights, and differently from how its parent scored before
// the training under test — training that moved nothing proves nothing.
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

// TestStageRepsDroppedByEveryMutator trains an unscored clone with each
// weight writer, then scores it: its first scores must match a fresh clone
// of the trained weights.
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
// successor trains on a clone; the swapped-in successor scores, and
// recommends, bit for bit like its own Clone().
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
	f.assertFresh(t, pub.Model, before)
	// The public read path agrees with a fresh clone too.
	rec := pub.RecommendFrom(f.app.Spec, f.data, f.env, f.cands)
	want := pub.CloneForUpdate(7).RecommendFrom(f.app.Spec, f.data, f.env, f.cands)
	if math.Float64bits(rec.PredictedSeconds) != math.Float64bits(want.PredictedSeconds) || rec.Config != want.Config {
		t.Fatalf("Recommend after the swap: %v (%v s), fresh clone says %v (%v s)",
			rec.Config, rec.PredictedSeconds, want.Config, want.PredictedSeconds)
	}
}

// TestStageRepsNotInheritedByCloneOrLoad: Clone, CloneForUpdate and
// LoadTuner start with an empty cache, so a new generation never sees its
// predecessor's representations; a copy scores like the original, and
// training another copy leaves the original's cache and scores alone.
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
	copies := map[string]func(t *testing.T) *NECS{
		"Clone":          func(*testing.T) *NECS { return parent.Clone() },
		"CloneForUpdate": func(*testing.T) *NECS { return f.tuner.CloneForUpdate(1).Model },
		"LoadTuner": func(t *testing.T) *NECS {
			loaded, err := LoadTuner(bytes.NewReader(buf.Bytes()), 1)
			if err != nil {
				t.Fatal(err)
			}
			return loaded.Model
		},
	}
	for name, copyOf := range copies {
		t.Run(name, func(t *testing.T) {
			c := copyOf(t)
			if n := c.StageRepEntries(); n != 0 {
				t.Fatalf("copy starts with %d memoized representations", n)
			}
			if got := f.scores(c); !bitsEqual(got, parentScores) {
				t.Fatalf("copy of the same weights scores differently:\n got  %v\n want %v", got, parentScores)
			}
			trained := copyOf(t)
			trained.Cfg.Epochs = 1
			trained.Fit(f.source, rand.New(rand.NewSource(11)))
			f.assertFresh(t, trained, parentScores)
			if parent.StageRepEntries() != warmed || !bitsEqual(f.scores(parent), parentScores) {
				t.Fatal("training a copy disturbed the original's cache or scores")
			}
		})
	}
}

// TestStageRepsAfterDirectWeightWrite: code that writes Params() itself
// does so before the model's first score (poisonModel poisons an unscored
// clone, as serve's chaosCorrupt does); the poisoned model then computes
// its representations from the poisoned weights and reports every
// candidate as un-rankable, which is what the serve layer's validation
// gate rejects on.
func TestStageRepsAfterDirectWeightWrite(t *testing.T) {
	f := newRepFixture(t)
	f.scores(f.tuner.Model)
	m := f.tuner.Model.Clone()
	poisonModel(m)
	scorer, fresh := m.NewAppScorer(f.app.Spec, f.data, f.env), m.Clone().NewAppScorer(f.app.Spec, f.data, f.env)
	for si := range scorer.stages {
		if !bitsEqual(scorer.stages[si].rep, fresh.stages[si].rep) {
			t.Fatalf("stage %d carries a representation of other weights", scorer.stages[si].index)
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
