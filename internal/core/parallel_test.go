package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"lite/internal/sparksim"
	"lite/internal/workload"
)

// --- pool primitives -------------------------------------------------------

func TestSetScoreWorkersAndStats(t *testing.T) {
	defer SetScoreWorkers(0)

	SetScoreWorkers(4)
	if got := ScoreWorkers(); got != 4 {
		t.Fatalf("ScoreWorkers() = %d, want 4", got)
	}
	st := ScorePoolStats()
	if st.Workers != 4 || st.Busy != 0 {
		t.Fatalf("idle stats = %+v", st)
	}

	SetScoreWorkers(1)
	st = ScorePoolStats()
	if st.Workers != 1 || st.Utilization != 0 {
		t.Fatalf("serial stats = %+v", st)
	}

	SetScoreWorkers(0)
	if ScoreWorkers() < 1 {
		t.Fatalf("default pool width %d < 1", ScoreWorkers())
	}
}

func TestParallelDoCoversEveryIndexOnce(t *testing.T) {
	defer SetScoreWorkers(0)
	for _, workers := range []int{1, 2, 8} {
		SetScoreWorkers(workers)
		const n = 257
		hits := make([]int, n)
		ParallelDoCtx(context.Background(), n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
}

func TestParallelDoCountsItems(t *testing.T) {
	defer SetScoreWorkers(0)
	SetScoreWorkers(3)
	before := ScorePoolStats().Items
	ParallelDoCtx(context.Background(), 10, func(int) {})
	ParallelDoCtx(context.Background(), 7, func(int) {})
	if got := ScorePoolStats().Items - before; got != 17 {
		t.Fatalf("Items advanced by %d, want 17", got)
	}
}

// Nested fan-out must not deadlock: inner calls degrade to inline execution
// when no helper slot is free (a helper that itself fans out, as a training
// replica's caller scoring candidates would).
func TestParallelDoNestedDoesNotDeadlock(t *testing.T) {
	defer SetScoreWorkers(0)
	SetScoreWorkers(2)
	var mu sync.Mutex
	total := 0
	ParallelDoCtx(context.Background(), 4, func(int) {
		ParallelDoCtx(context.Background(), 8, func(int) {
			mu.Lock()
			total++
			mu.Unlock()
		})
	})
	if total != 32 {
		t.Fatalf("nested work executed %d times, want 32", total)
	}
}

// A panic inside a worker must surface on the calling goroutine so callers'
// recover guards (tryNECSTier's degradation chain) keep working.
func TestParallelDoPropagatesPanic(t *testing.T) {
	defer SetScoreWorkers(0)
	SetScoreWorkers(4)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic from worker was swallowed")
		}
	}()
	ParallelDoCtx(context.Background(), 16, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

// --- deterministic parallel ranking ---------------------------------------

func parallelTestModel(t *testing.T) (*NECS, *Dataset) {
	t.Helper()
	apps := []*workload.App{workload.ByName("WordCount"), workload.ByName("KMeans")}
	ds := smallDataset(t, apps, 2, 11)
	cfg := fastConfig()
	cfg.Epochs = 2
	rng := rand.New(rand.NewSource(11))
	enc := NewEncoder(ds.Instances, cfg)
	model := NewNECS(enc, cfg, rng)
	model.Fit(EncodeAll(enc, ds.Instances), rng)
	return model, ds
}

// TestRecommendFromParallelMatchesSerial is the regression test for ranking
// determinism: the pool width must not change Ranked — neither the scores
// nor the order, even with duplicate candidates whose predictions tie
// exactly (the stable index tie-break, not goroutine completion order,
// decides).
func TestRecommendFromParallelMatchesSerial(t *testing.T) {
	defer SetScoreWorkers(0)
	model, _ := parallelTestModel(t)
	// RecommendFrom ranks caller-supplied candidates, so no ACG is needed.
	tuner := &Tuner{Model: model, NumCandidates: 16, AMU: DefaultAMUConfig()}
	app := workload.ByName("WordCount")
	data := app.Spec.MakeData(app.Sizes.Train[0])
	env := sparksim.ClusterC

	// 20 candidates with deliberate exact duplicates to force score ties.
	rng := rand.New(rand.NewSource(3))
	var cands []sparksim.Config
	for i := 0; i < 10; i++ {
		c := ForceFeasible(sparksim.RandomConfig(rng), env)
		cands = append(cands, c, c)
	}

	SetScoreWorkers(1)
	serial := tuner.RecommendFrom(app.Spec, data, env, cands)

	for _, workers := range []int{2, 8} {
		SetScoreWorkers(workers)
		for rep := 0; rep < 3; rep++ {
			par := tuner.RecommendFrom(app.Spec, data, env, cands)
			if len(par.Ranked) != len(serial.Ranked) {
				t.Fatalf("workers=%d: ranked %d vs %d", workers, len(par.Ranked), len(serial.Ranked))
			}
			for i := range serial.Ranked {
				if par.Ranked[i].Predicted != serial.Ranked[i].Predicted {
					t.Fatalf("workers=%d rep=%d: rank %d predicted %v != serial %v",
						workers, rep, i, par.Ranked[i].Predicted, serial.Ranked[i].Predicted)
				}
				if fmt.Sprint(par.Ranked[i].Config) != fmt.Sprint(serial.Ranked[i].Config) {
					t.Fatalf("workers=%d rep=%d: rank %d config order diverged", workers, rep, i)
				}
			}
			if par.PredictedSeconds != serial.PredictedSeconds {
				t.Fatalf("workers=%d: winner %v != %v", workers, par.PredictedSeconds, serial.PredictedSeconds)
			}
		}
	}
}

// The AppScorer fast path must agree bit-for-bit with the historical
// stage-by-stage PredictApp contract at any pool width.
func TestAppScorerMatchesPredictApp(t *testing.T) {
	defer SetScoreWorkers(0)
	model, _ := parallelTestModel(t)
	app := workload.ByName("KMeans")
	data := app.Spec.MakeData(app.Sizes.Valid)
	env := sparksim.ClusterA
	rng := rand.New(rand.NewSource(17))
	scorer := model.NewAppScorer(app.Spec, data, env)
	for i := 0; i < 8; i++ {
		cfg := sparksim.RandomConfig(rng)
		if got, want := scorer.Score(cfg), model.PredictApp(app.Spec, data, env, cfg); got != want {
			t.Fatalf("Score %v != PredictApp %v", got, want)
		}
	}
}

// --- race coverage under the pool -----------------------------------------

// TestPoolConcurrentRecommendAndUpdateRace overlaps pooled recommendations
// on the published tuner, a pool resize, and adaptive updates trained on
// clones and swapped in. Run with -race.
func TestPoolConcurrentRecommendAndUpdateRace(t *testing.T) {
	defer SetScoreWorkers(0)
	SetScoreWorkers(4)
	tuner, ds := concurrencyTuner(t)
	app := workload.ByName("WordCount")
	env := sparksim.ClusterC
	data := app.Spec.MakeData(app.Sizes.Train[0])
	source := EncodeAll(tuner.Model.Encoder, ds.Instances[:16])
	var live atomic.Pointer[Tuner]
	live.Store(tuner)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if g == 0 && i == 1 {
					SetScoreWorkers(2 + g%3) // resize mid-flight
				}
				if _, err := live.Load().RecommendSafe(app.Spec, data, env); err != nil {
					t.Errorf("RecommendSafe: %v", err)
				}
			}
		}(g)
	}
	publishUpdates(t, &live, source, app, data, env, 2, 2, 5)
	wg.Wait()
	if live.Load() == tuner {
		t.Fatal("no update was published")
	}
}
