package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"lite/internal/instrument"
	"lite/internal/metrics"
	"lite/internal/sparksim"
	"lite/internal/workload"
)

// concurrencyTuner trains a deliberately tiny tuner so the -race hammer
// tests stay fast (the race detector slows execution ~10x).
func concurrencyTuner(t *testing.T) (*Tuner, *Dataset) {
	t.Helper()
	apps := []*workload.App{workload.ByName("WordCount"), workload.ByName("KMeans")}
	opts := DefaultTrainOptions()
	opts.Collect.ConfigsPerInstance = 2
	opts.Collect.Sizes = []int{0}
	opts.Collect.Clusters = []sparksim.Environment{sparksim.ClusterC}
	opts.NECS.Epochs = 2
	tuner, ds := Train(apps, opts)
	tuner.NumCandidates = 6
	return tuner, ds
}

// TestRecommendConcurrentRace hammers every read path from 16 goroutines.
// Run with -race: the point is that concurrent recommendation shares no
// mutable state (encoder caches and the candidate RNG are the only shared
// writes, and both are guarded).
func TestRecommendConcurrentRace(t *testing.T) {
	tuner, _ := concurrencyTuner(t)
	app := workload.ByName("WordCount")
	env := sparksim.ClusterC

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			data := app.Spec.MakeData(app.Sizes.Train[0] * float64(1+g%3))
			for i := 0; i < 3; i++ {
				rec := tuner.Recommend(app.Spec, data, env)
				if !sparksim.Feasible(rec.Config, env) {
					t.Errorf("goroutine %d: infeasible recommendation", g)
				}
				sr, err := tuner.RecommendSafe(app.Spec, data, env)
				if err != nil {
					t.Errorf("goroutine %d: RecommendSafe: %v", g, err)
				}
				if sr.Tier == "" {
					t.Errorf("goroutine %d: empty tier", g)
				}
				// Exercise PredictApp and ranking helpers concurrently too.
				scores := []float64{
					tuner.Model.PredictApp(app.Spec, data, env, sparksim.DefaultConfig()),
					tuner.Model.PredictApp(app.Spec, data, env, rec.Config),
				}
				metrics.RankByScore(scores)
			}
		}(g)
	}
	wg.Wait()
}

// publishUpdates is the writer of the update-and-swap tests, the way
// internal/serve retrains: each round clones the published tuner, trains
// the clone on freshly executed feedback runs with Adaptive Model Update,
// and publishes it. It fails the test unless no published model's weights
// change once published and every published model stays finite.
func publishUpdates(t *testing.T, live *atomic.Pointer[Tuner], source []*Encoded, app *workload.App, data sparksim.DataSpec, env sparksim.Environment, rounds, runs int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type published struct {
		m   *NECS
		sum uint64
	}
	var gens []published
	for r := 0; r < rounds; r++ {
		cur := live.Load()
		gens = append(gens, published{cur.Model, weightChecksum(cur.Model)})
		next := cur.CloneForUpdate(seed + int64(r))
		var target []*Encoded
		for i := 0; i < runs; i++ {
			cfg := ForceFeasible(sparksim.RandomConfig(rng), env)
			target = append(target, next.EncodeRun(instrument.Run(app.Spec, data, env, cfg))...)
		}
		amu := next.AMU
		amu.Epochs = 1
		AdaptiveModelUpdate(next.Model, source, target, amu, rng)
		if !next.Model.paramsFinite() {
			t.Errorf("round %d: trained weights went non-finite", r)
			return
		}
		live.Store(next)
	}
	for i, g := range gens {
		if weightChecksum(g.m) != g.sum {
			t.Errorf("generation %d: published weights changed after publication", i)
		}
	}
}

// TestUpdateSwapConcurrentWithRecommend overlaps readers of the published
// tuner with a writer that trains clones on feedback and swaps them in.
// Run with -race: a published model is read-only, so the two share no
// mutable state but the candidate RNG.
func TestUpdateSwapConcurrentWithRecommend(t *testing.T) {
	tuner, ds := concurrencyTuner(t)
	app := workload.ByName("WordCount")
	env := sparksim.ClusterC
	data := app.Spec.MakeData(app.Sizes.Train[0])
	source := EncodeAll(tuner.Model.Encoder, ds.Instances[:20])
	var live atomic.Pointer[Tuner]
	live.Store(tuner)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := live.Load().RecommendSafe(app.Spec, data, env); err != nil {
					t.Errorf("RecommendSafe: %v", err)
				}
			}
		}()
	}
	publishUpdates(t, &live, source, app, data, env, 2, 3, 9)
	wg.Wait()
	if live.Load() == tuner {
		t.Fatal("no update was published")
	}
}

// Two clones trained at once share the pooled gradient arenas of
// nn.Backward (each call takes its own): both must end with the weights of
// the same training run done alone. Run with -race.
func TestConcurrentFitMatchesSerial(t *testing.T) {
	tuner, ds := concurrencyTuner(t)
	encoded := EncodeAll(tuner.Model.Encoder, ds.Instances)
	fit := func() uint64 {
		m := tuner.Model.Clone()
		m.Fit(encoded, rand.New(rand.NewSource(7)))
		return weightChecksum(m)
	}
	want := fit()
	var got [2]uint64
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = fit()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("concurrent Fit %d: weight checksum %#016x, serial run %#016x", i, g, want)
		}
	}
}
