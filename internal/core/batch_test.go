package core

// Tests for the batched one-GEMM scoring kernel (batch.go). The contracts
// under test are the ones DESIGN.md §12 promises:
//
//   - batched scoring is BITWISE identical to the historical per-candidate
//     autograd path (scoreGraph), at any batch size and any scoring-pool
//     width;
//   - per-request arenas never leak state across concurrent passes
//     (scribble-and-check under -race).

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"lite/internal/sparksim"
	"lite/internal/workload"
)

// batchTestTuner trains a tiny tuner for kernel-equivalence tests.
func batchTestTuner(t *testing.T) *Tuner {
	t.Helper()
	tuner, _ := batchTestTrain(t)
	return tuner
}

// batchTestTrain is batchTestTuner plus its training set. It trains just
// long enough that predictions leave the zero-seconds clamp: an
// under-trained model scores every candidate 0, and bitwise comparisons of
// zeros prove nothing about the kernel.
func batchTestTrain(t *testing.T) (*Tuner, *Dataset) {
	t.Helper()
	apps := []*workload.App{workload.ByName("WordCount"), workload.ByName("PageRank")}
	opts := DefaultTrainOptions()
	opts.Collect.ConfigsPerInstance = 4
	opts.Collect.Sizes = []int{0}
	opts.Collect.Clusters = []sparksim.Environment{sparksim.ClusterC}
	opts.NECS.Epochs = 12
	return Train(apps, opts)
}

// batchTestCandidates samples a deterministic candidate set.
func batchTestCandidates(t *testing.T, tuner *Tuner, app *workload.App, data sparksim.DataSpec, env sparksim.Environment, n int) []sparksim.Config {
	t.Helper()
	cands := tuner.sampleFeasible(app.Spec.Name, data, env, n)
	if len(cands) != n {
		t.Fatalf("sampled %d candidates, want %d", len(cands), n)
	}
	return cands
}

// TestScoreBatchBitwiseGolden pins the central kernel contract: the batched
// float64 path returns BITWISE the same aggregate prediction as the
// historical autograd graph path, for every candidate, across apps and
// environments. Any numeric drift here is a kernel bug, not tolerance noise.
func TestScoreBatchBitwiseGolden(t *testing.T) {
	tuner := batchTestTuner(t)
	for _, name := range []string{"WordCount", "PageRank"} {
		app := workload.ByName(name)
		for _, env := range []sparksim.Environment{sparksim.ClusterC, sparksim.ClusterA} {
			data := app.Spec.MakeData(app.Sizes.Test)
			cands := batchTestCandidates(t, tuner, app, data, env, 32)
			scorer := tuner.Model.NewAppScorer(app.Spec, data, env)

			preds := make([]float64, len(cands))
			oks := make([]bool, len(cands))
			scorer.ScoreBatch(cands, preds, oks)
			if slices.Max(preds) == 0 {
				t.Fatalf("%s/%s: every prediction is clamped to 0; the fixture cannot tell kernels apart", name, env.Name)
			}

			for i, c := range cands {
				want, wantOK := scorer.scoreGraph(c)
				if math.Float64bits(preds[i]) != math.Float64bits(want) {
					t.Fatalf("%s/%s cand %d: batched %v != graph %v (bitwise)", name, env.Name, i, preds[i], want)
				}
				if oks[i] != wantOK {
					t.Fatalf("%s/%s cand %d: batched ok=%v, graph ok=%v", name, env.Name, i, oks[i], wantOK)
				}
				// The batch-of-one path (ScoreChecked) must agree too.
				got, gotOK := scorer.ScoreChecked(c)
				if math.Float64bits(got) != math.Float64bits(want) || gotOK != wantOK {
					t.Fatalf("%s/%s cand %d: ScoreChecked %v/%v != graph %v/%v", name, env.Name, i, got, gotOK, want, wantOK)
				}
				// And PredictApp, the historical public entry point.
				pa := tuner.Model.PredictApp(app.Spec, data, env, c)
				if math.Float64bits(pa) != math.Float64bits(want) {
					t.Fatalf("%s/%s cand %d: PredictApp %v != graph %v", name, env.Name, i, pa, want)
				}
			}
		}
	}
}

// TestScoreBatchCtxWidthInvariant verifies chunked pool fan-out is a pure
// scheduling decision: ScoreBatchCtx returns bitwise-identical results at
// every pool width, including widths that do not divide the batch size.
func TestScoreBatchCtxWidthInvariant(t *testing.T) {
	defer SetScoreWorkers(0)
	tuner := batchTestTuner(t)
	app := workload.ByName("WordCount")
	env := sparksim.ClusterC
	data := app.Spec.MakeData(app.Sizes.Test)
	cands := batchTestCandidates(t, tuner, app, data, env, 17)
	scorer := tuner.Model.NewAppScorer(app.Spec, data, env)

	SetScoreWorkers(1)
	want := make([]float64, len(cands))
	wantOK := make([]bool, len(cands))
	if err := scorer.ScoreBatchCtx(context.Background(), cands, want, wantOK); err != nil {
		t.Fatalf("serial ScoreBatchCtx: %v", err)
	}
	for _, w := range []int{2, 3, 8, 64} {
		SetScoreWorkers(w)
		got := make([]float64, len(cands))
		gotOK := make([]bool, len(cands))
		if err := scorer.ScoreBatchCtx(context.Background(), cands, got, gotOK); err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		for i := range cands {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) || gotOK[i] != wantOK[i] {
				t.Fatalf("width %d cand %d: %v/%v != serial %v/%v", w, i, got[i], gotOK[i], want[i], wantOK[i])
			}
		}
	}
}

// TestScoreBatchArenaRace is the scribble-and-check test for the pooled
// arenas: many goroutines run batched passes on shared scorers at once, and
// every pass's output is compared bitwise to the precomputed serial answer.
// If a recycled arena ever leaked state between concurrent passes — an
// aliasing bug in Alloc/Reset or a pool misuse — some pass would read
// another's activations and the comparison (or -race) would catch it.
func TestScoreBatchArenaRace(t *testing.T) {
	tuner := batchTestTuner(t)
	env := sparksim.ClusterC
	type workItem struct {
		scorer *AppScorer
		cands  []sparksim.Config
		want   []float64
	}
	var work []workItem
	for _, name := range []string{"WordCount", "PageRank"} {
		app := workload.ByName(name)
		data := app.Spec.MakeData(app.Sizes.Test)
		cands := batchTestCandidates(t, tuner, app, data, env, 16)
		scorer := tuner.Model.NewAppScorer(app.Spec, data, env)
		want := make([]float64, len(cands))
		scorer.ScoreBatch(cands, want, nil)
		work = append(work, workItem{scorer, cands, want})
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := work[g%len(work)]
			preds := make([]float64, len(w.cands))
			for it := 0; it < 8; it++ {
				w.scorer.ScoreBatch(w.cands, preds, nil)
				for i := range preds {
					if math.Float64bits(preds[i]) != math.Float64bits(w.want[i]) {
						t.Errorf("goroutine %d iter %d cand %d: %v != %v (arena contamination?)", g, it, i, preds[i], w.want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
