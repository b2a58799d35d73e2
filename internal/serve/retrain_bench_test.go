package serve

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lite/internal/core"
	"lite/internal/instrument"
	"lite/internal/sparksim"
	"lite/internal/wal"
	"lite/internal/workload"
)

var (
	retrainBenchOnce   sync.Once
	retrainBenchTuner  *core.Tuner
	retrainBenchSource []*core.Encoded
)

// retrainBenchModel trains the model the repo benchmark (./benchmark)
// serves: all 15 apps, 3 configs per instance, the two smallest training
// sizes, seed 1, and a 256-row source sample.
func retrainBenchModel() (*core.Tuner, []*core.Encoded) {
	retrainBenchOnce.Do(func() {
		opts := core.DefaultTrainOptions()
		opts.Collect.ConfigsPerInstance = 3
		opts.Collect.Sizes = []int{0, 1}
		opts.Seed = 1
		tuner, ds := core.Train(workload.All(), opts)
		encoded := core.EncodeAll(tuner.Model.Encoder, ds.Instances)
		source := make([]*core.Encoded, 256)
		for i, j := range rand.New(rand.NewSource(14)).Perm(len(encoded))[:len(source)] {
			source[i] = encoded[j]
		}
		retrainBenchTuner, retrainBenchSource = tuner, source
	})
	return retrainBenchTuner, retrainBenchSource
}

// BenchmarkRetrain measures one retrain of the update loop phase by phase,
// as Server.retrain runs them on liteserve's defaults (a batch of 8
// feedback runs, a 6-case validation gate, a snapshot file): clone the
// live tuner and fold the batch in with Adaptive Model Update (amu_ms),
// score the clone on the validation set and judge it against the live
// score, which the server caches per generation (gate_ms), and persist it
// atomically, fsyncs included, to a temp dir (persist_ms). Generation 0
// is scored and persisted first, as Start does, so every iteration is a
// retrain of a warm server.
func BenchmarkRetrain(b *testing.B) {
	tuner, source := retrainBenchModel()
	live := tuner.CloneForUpdate(1)
	v := newValidator(live, ValidationOptions{Enable: true, Cases: 6}.withDefaults(), 101)
	liveScore := v.score(live)
	path := filepath.Join(b.TempDir(), "snapshot.json")
	if err := wal.WriteFileAtomic(wal.OSFS{}, path, live.Save); err != nil {
		b.Fatal(err)
	}
	var runs []instrument.AppInstance
	for i, app := range workload.All()[:8] {
		env := sparksim.AllClusters[i%len(sparksim.AllClusters)]
		runs = append(runs, instrument.Run(app.Spec, app.Spec.MakeData(app.Sizes.Test), env, sparksim.DefaultConfig()))
	}

	var amu, gate, persist time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		clone := live.CloneForUpdate(int64(i) + 2)
		var target []*core.Encoded
		for _, run := range runs {
			target = append(target, clone.EncodeRun(run)...)
		}
		core.AdaptiveModelUpdate(clone.Model, source, target, clone.AMU, rand.New(rand.NewSource(int64(i)+7919)))
		trained := time.Now()
		v.judge(v.score(clone), liveScore)
		judged := time.Now()
		if err := wal.WriteFileAtomic(wal.OSFS{}, path, clone.Save); err != nil {
			b.Fatal(err)
		}
		amu += trained.Sub(start)
		gate += judged.Sub(trained)
		persist += time.Since(judged)
	}
	perOp := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
	b.ReportMetric(perOp(amu), "amu_ms")
	b.ReportMetric(perOp(gate), "gate_ms")
	b.ReportMetric(perOp(persist), "persist_ms")
}
