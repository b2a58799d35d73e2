// Benchmarks for the parallel scoring engine, the training step and the
// serving hit path (see DESIGN.md §7, §12.8 and §8). These are what
// scripts/bench.sh runs to produce BENCH_parallel.json: recommend latency
// at several pool widths and under concurrent misses, Fit and AMU cost,
// the snapshot write after an update, the tower GEMM shapes, and the work
// of one cache hit through the handler and through the client. A small
// dedicated fixture keeps them fast enough for a CI smoke run
// (-benchtime=1x); the paper-scale benchmarks live in bench_test.go. Run
// with:
//
//	go test -run '^$' -bench 'BenchmarkRecommend|BenchmarkFit|BenchmarkAMU|BenchmarkTunerSave|BenchmarkTowerGEMM|BenchmarkHandlerHit' -benchtime 3x
package lite

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lite/internal/core"
	"lite/internal/feature"
	"lite/internal/serve"
	"lite/internal/sparksim"
	"lite/internal/tensor"
	"lite/internal/workload"
	"lite/pkg/api"
	"lite/pkg/client"
)

var (
	parBenchOnce  sync.Once
	parBenchTuner *core.Tuner
	parBenchData  *core.Dataset
)

// parBench trains one small tuner shared by all parallel benchmarks (the
// point is scoring/fit throughput, not model quality).
func parBench() (*core.Tuner, *core.Dataset) {
	parBenchOnce.Do(func() {
		apps := []*workload.App{
			workload.ByName("WordCount"),
			workload.ByName("KMeans"),
			workload.ByName("PageRank"),
		}
		opts := core.DefaultTrainOptions()
		opts.Collect.ConfigsPerInstance = 2
		opts.Collect.Sizes = []int{0}
		opts.Collect.Clusters = []sparksim.Environment{sparksim.ClusterC}
		opts.NECS.Epochs = 2
		parBenchTuner, parBenchData = core.Train(apps, opts)
		parBenchTuner.NumCandidates = 64
	})
	return parBenchTuner, parBenchData
}

// BenchmarkRecommend measures one online recommendation (sample 64
// candidates from the ACG region, score each with NECS, rank) at several
// scoring-pool widths. The serial/1 case is the pre-pool baseline. After
// the first iteration the model's stage-representation cache is warm, as
// it is for every request but an app's first on a serving generation;
// BenchmarkRecommendColdReps measures that first one.
func BenchmarkRecommend(b *testing.B) {
	tuner, _ := parBench()
	app := workload.ByName("WordCount")
	data := app.Spec.MakeData(app.Sizes.Train[0])
	env := sparksim.ClusterC

	widths := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		widths = append(widths, n)
	}
	for _, w := range widths {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			core.SetScoreWorkers(w)
			defer core.SetScoreWorkers(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := tuner.Recommend(app.Spec, data, env)
				if len(rec.Ranked) != 64 {
					b.Fatalf("ranked %d candidates, want 64", len(rec.Ranked))
				}
			}
		})
	}

	// concurrent runs one miss per goroutine (GOMAXPROCS of them) on the
	// one tuner at the default pool width, keys spread over the fixture's
	// apps and their sizes: the shape of a serving process's closed loop,
	// where misses contend on what the tuner shares, the candidate RNG's
	// lock above all.
	b.Run("concurrent", func(b *testing.B) {
		type key struct {
			app  *sparksim.AppSpec
			data sparksim.DataSpec
		}
		var keys []key
		for _, name := range []string{"WordCount", "KMeans", "PageRank"} {
			a := workload.ByName(name)
			for _, mb := range append(append([]float64(nil), a.Sizes.Train...), a.Sizes.Valid, a.Sizes.Test) {
				keys = append(keys, key{a.Spec, a.Spec.MakeData(mb)})
			}
		}
		var next atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(next.Add(1))
			for pb.Next() {
				k := keys[i%len(keys)]
				i++
				if rec := tuner.Recommend(k.app, k.data, env); len(rec.Ranked) != 64 {
					b.Errorf("ranked %d candidates, want 64", len(rec.Ranked))
					return
				}
			}
		})
	})
}

// TestRecommendMissAllocs pins the allocations of one warm miss on the
// benchmark fixture, through Recommend (BenchmarkRecommend/workers=1) and
// through RecommendSafe (the serving path). The candidate's dense
// features are written straight into the tower input and the prediction
// slots are pooled, so what remains is per request — candidates, scorer,
// arena headers, the ranking — and none of it grows with the candidates.
func TestRecommendMissAllocs(t *testing.T) {
	tuner, _ := parBench()
	app := workload.ByName("WordCount")
	data := app.Spec.MakeData(app.Sizes.Train[0])
	env := sparksim.ClusterC
	core.SetScoreWorkers(1)
	defer core.SetScoreWorkers(0)
	for _, tc := range []struct {
		name string
		miss func()
	}{
		{"Recommend", func() { tuner.Recommend(app.Spec, data, env) }},
		{"RecommendSafe", func() {
			if sr, err := tuner.RecommendSafe(app.Spec, data, env); err != nil || sr.Tier != core.TierNECS {
				t.Fatalf("RecommendSafe: tier %q, err %v", sr.Tier, err)
			}
		}},
	} {
		tc.miss() // warm the stage-rep cache, the arena and the slot pools
		if got := testing.AllocsPerRun(20, tc.miss); got > 40 {
			t.Errorf("%s: %.0f allocs per miss, want ≤ 40", tc.name, got)
		} else {
			t.Logf("%s: %.0f allocs per miss", tc.name, got)
		}
	}
}

// BenchmarkRecommendColdReps is BenchmarkRecommend/workers=1 on a new
// generation every iteration, taken with the timer stopped, so each
// recommendation is its generation's first:
//
//   - swapped is a CloneForUpdate, as a retrained generation is. It keeps
//     its parent's CNN and GCN weights and reads their stage
//     representations from the Encoder's table, so its first
//     recommendation costs a warm miss.
//   - fresh-encoder is the same weights on an Encoder of its own, as a
//     generation loaded from a snapshot is: its first recommendation
//     tokenizes every stage and pays the CNN and GCN forward for each —
//     the encoder hoist's cost (DESIGN.md §12), which the warm benchmark
//     no longer shows.
func BenchmarkRecommendColdReps(b *testing.B) {
	tuner, _ := parBench()
	app := workload.ByName("WordCount")
	data := app.Spec.MakeData(app.Sizes.Train[0])
	env := sparksim.ClusterC
	tuner.Recommend(app.Spec, data, env) // the parent has served the key

	for _, tc := range []struct {
		name string
		gen  func() *core.Tuner
	}{
		{"swapped", func() *core.Tuner { return tuner.CloneForUpdate(1) }},
		{"fresh-encoder", func() *core.Tuner {
			gen := tuner.CloneForUpdate(1)
			enc := tuner.Model.Encoder
			gen.Model.Encoder = core.NewEncoderFromVocabs(enc.Vocab, enc.OpVocab, tuner.Model.Cfg)
			return gen
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			core.SetScoreWorkers(1)
			defer core.SetScoreWorkers(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				gen := tc.gen()
				b.StartTimer()
				rec := gen.Recommend(app.Spec, data, env)
				if len(rec.Ranked) != 64 {
					b.Fatalf("ranked %d candidates, want 64", len(rec.Ranked))
				}
			}
		})
	}
}

// BenchmarkFit measures NECS training throughput over the shared dataset:
// two epochs of minibatched Fit from a fresh initialisation. stages/inst is
// distinct stages ÷ rows per minibatch — the share of CNN and GCN forwards
// the minibatched step still runs (DESIGN.md §12.8).
func BenchmarkFit(b *testing.B) {
	tuner, ds := parBench()
	encoded := core.EncodeAll(tuner.Model.Encoder, ds.Instances)
	cfg := tuner.Model.Cfg
	cfg.Epochs = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(1))
		m := core.NewNECS(tuner.Model.Encoder, cfg, rng)
		b.StartTimer()
		m.Fit(encoded, rng)
	}
	b.ReportMetric(float64(len(encoded)*cfg.Epochs*b.N)/b.Elapsed().Seconds(), "inst/s")
	b.ReportMetric(stagesPerInst(encoded, cfg.BatchSize), "stages/inst")
}

// BenchmarkAMU measures one Adaptive Model Update — the retrain behind
// every feedback batch — on a clone of the fixture model: 64 source and 16
// target instances (the fixture's encoded set, cycled), default epochs.
// stages/update is how many distinct stages the update runs the frozen CNN
// and GCN encoders over, once each, before its tower-only epochs.
func BenchmarkAMU(b *testing.B) {
	tuner, ds := parBench()
	encoded := core.EncodeAll(tuner.Model.Encoder, ds.Instances)
	batch := make([]*core.Encoded, 80)
	for i := range batch {
		batch[i] = encoded[i%len(encoded)]
	}
	source, target := batch[:64], batch[64:]
	cfg := core.DefaultAMUConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := tuner.Model.Clone()
		b.StartTimer()
		core.AdaptiveModelUpdate(m, source, target, cfg, rand.New(rand.NewSource(1)))
	}
	b.ReportMetric(float64(distinctStages(batch)), "stages/update")
}

// TestFitAllocs pins the allocations of one Fit on BenchmarkFit's inputs.
// Each minibatch's graph — values, nodes, parent lists, gradients, the conv
// and pooling scratch, Backward's traversal — lives in the model's step
// arena, so what is left is per Fit — Adam's moments, the epoch orders, the
// best-epoch snapshots, the arena's slabs — and per step the ops' backward
// closures and the batch's stage map. Nothing is pooled, so the pin holds
// under -race as well.
func TestFitAllocs(t *testing.T) {
	tuner, ds := parBench()
	encoded := core.EncodeAll(tuner.Model.Encoder, ds.Instances)
	cfg := tuner.Model.Cfg
	cfg.Epochs = 2
	const runs = 5
	models := make([]*core.NECS, runs+1) // AllocsPerRun calls once more to warm up
	for i := range models {
		models[i] = core.NewNECS(tuner.Model.Encoder, cfg, rand.New(rand.NewSource(1)))
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		models[next].Fit(encoded, rand.New(rand.NewSource(1)))
		next++
	})
	if got > 1100 {
		t.Errorf("%.0f allocs per Fit, want ≤ 1100", got)
	} else {
		t.Logf("%.0f allocs per Fit", got)
	}
}

// TestAMUAllocs pins the allocations of one Adaptive Model Update on
// BenchmarkAMU's inputs. A minibatch step's graph, its gradients and its
// traversal live in the discriminator's arena, and the source sample's
// stage encodings come from the Encoder's memo after the first update, so
// what is left is per update — the tower inputs, the discriminator, its
// arena's slabs and Adam's moments, the rng — and one backward closure per
// op per step. Nothing is pooled, so the pin holds under -race as well.
func TestAMUAllocs(t *testing.T) {
	tuner, ds := parBench()
	encoded := core.EncodeAll(tuner.Model.Encoder, ds.Instances)
	batch := make([]*core.Encoded, 80)
	for i := range batch {
		batch[i] = encoded[i%len(encoded)]
	}
	source, target := batch[:64], batch[64:]
	cfg := core.DefaultAMUConfig()
	const runs = 5
	models := make([]*core.NECS, runs+1) // AllocsPerRun calls once more to warm up
	for i := range models {
		models[i] = tuner.Model.Clone()
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		core.AdaptiveModelUpdate(models[next], source, target, cfg, rand.New(rand.NewSource(1)))
		next++
	})
	if got > 640 {
		t.Errorf("%.0f allocs per update, want ≤ 640", got)
	} else {
		t.Logf("%.0f allocs per update", got)
	}
}

// BenchmarkTunerSave measures the snapshot write that follows every
// accepted update: Save of a second-generation tuner (CloneForUpdate of the
// fixture), whose ACG the first generation's save has already encoded, as
// a server's generation 0 is persisted at start.
func BenchmarkTunerSave(b *testing.B) {
	tuner, _ := parBench()
	if err := tuner.Save(io.Discard); err != nil {
		b.Fatal(err)
	}
	gen := tuner.CloneForUpdate(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gen.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// stagesPerInst is distinct stages ÷ rows, summed over the minibatches of
// one shuffled pass over xs.
func stagesPerInst(xs []*core.Encoded, batchSize int) float64 {
	perm := rand.New(rand.NewSource(1)).Perm(len(xs))
	distinct := 0
	for start := 0; start < len(perm); start += batchSize {
		var batch []*core.Encoded
		for _, i := range perm[start:min(start+batchSize, len(perm))] {
			batch = append(batch, xs[i])
		}
		distinct += distinctStages(batch)
	}
	return float64(distinct) / float64(len(xs))
}

// distinctStages counts the stages of xs. Rows share a stage when they
// share the encoder's memoized token ids and DAG matrices, as Forward and
// AdaptiveModelUpdate group them.
func distinctStages(xs []*core.Encoded) int {
	type stage struct {
		toks *int
		aHat *tensor.Tensor
	}
	seen := map[stage]bool{}
	for _, x := range xs {
		seen[stage{&x.TokenIDs[0], x.AHat}] = true
	}
	return len(seen)
}

// BenchmarkTowerGEMM measures tensor.MatMulInto at the three shapes one
// 64-candidate recommendation puts through the tower's hidden layers
// (rows = candidates × unique stages, here 257), with the second layer's
// input half zeros as it is after a ReLU. Their random rows share no
// prefix, so they measure what MatMulInto's shared-prefix lookahead costs
// where it never fires. The /prefix case is layer 1 in the serving layout:
// rows in runs of four that repeat their first feature.DenseWidth (34)
// columns, as a candidate's stage rows do. MAC/s counts every
// multiply-add of the dense product, skipped, shared or not.
func BenchmarkTowerGEMM(b *testing.B) {
	for _, sh := range []struct {
		m, k, n int
		zeros   float64
		prefix  int
	}{{257, 66, 64, 0, 0}, {257, 64, 32, 0.5, 0}, {257, 32, 16, 0, 0}, {257, 66, 64, 0, feature.DenseWidth}} {
		name := fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n)
		if sh.prefix > 0 {
			name += "/prefix"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := tensor.Randn(sh.m, sh.k, 1, rng)
			for i := range x.Data {
				if rng.Float64() < sh.zeros {
					x.Data[i] = 0
				}
			}
			for r := 0; r < sh.m; r++ {
				if r%4 != 0 {
					copy(x.RowView(r)[:sh.prefix], x.RowView(r-1))
				}
			}
			w := tensor.Randn(sh.k, sh.n, 1, rng)
			out := tensor.New(sh.m, sh.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMulInto(out, x, w)
			}
			b.ReportMetric(float64(sh.m*sh.k*sh.n)*float64(b.N)/b.Elapsed().Seconds(), "MAC/s")
		})
	}
}

// hitServer starts a server on the fixture tuner with default options and
// returns it with a request whose answer is already cached.
func hitServer(b *testing.B) (*serve.Server, api.RecommendRequest) {
	tuner, _ := parBench()
	s := serve.New(tuner.CloneForUpdate(1), serve.Options{})
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Shutdown(nil) })
	req := api.RecommendRequest{App: "WordCount", SizeMB: 700, Cluster: "C"}
	if _, err := s.Recommend(req); err != nil {
		b.Fatal(err)
	}
	return s, req
}

// BenchmarkHandlerHit measures one cache hit through the server's HTTP
// handler — routing, instrumentation, request decoding, the cache and the
// response encoding — into a fresh httptest.ResponseRecorder, with no
// network in between.
func BenchmarkHandlerHit(b *testing.B) {
	s, req := hitServer(b)
	h := s.Handler()
	body, _ := json.Marshal(req)
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v1/recommend", rd) // rewound per hit
	hit := func() {
		rd.Reset(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < warmHits; i++ {
		hit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
}

// BenchmarkHandlerUnseen measures one unseen-app request through the
// server's HTTP handler: a 2 kB body whose code is KMeans' stage code with
// its identifiers renamed and a line appended, read, decoded, embedded and
// answered from the retrieval tier. The app name and one identifier carry
// the iteration number, so every request is a cache miss, as on the
// benchmark's unseen_app workload.
func BenchmarkHandlerUnseen(b *testing.B) {
	s, _ := hitServer(b)
	h := s.Handler()
	var code strings.Builder
	var ops []string
	for _, st := range workload.ByName("KMeans").Spec.Stages {
		code.WriteString(strings.NewReplacer("points", "samples_1f", "centroids", "centers_2e").Replace(st.Code))
		code.WriteString("\n")
		ops = append(ops, st.Ops...)
	}
	for code.Len() < 1900 {
		code.WriteString(`val aux = stage.mapPartitions(it => it.filter(keep)).map(x => (x, "tag"))` + "\n")
	}
	code.WriteString("val probe_000000000 = sc.longAccumulator\n")
	body, err := json.Marshal(api.RecommendRequest{App: "Unseen_000000000", SizeMB: 2048, Cluster: "C",
		Features: &api.AppFeatures{Code: code.String(), Ops: ops}})
	if err != nil {
		b.Fatal(err)
	}
	// The two counters are rewritten in place each iteration.
	var at []int
	for i := 0; i+9 <= len(body); i++ {
		if string(body[i:i+9]) == "000000000" {
			at = append(at, i)
			i += 8
		}
	}
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v1/recommend", rd)
	n := 0
	miss := func() {
		n++
		for _, i := range at {
			for j, v := 8, n; j >= 0; j, v = j-1, v/10 {
				body[i+j] = byte('0' + v%10)
			}
		}
		rd.Reset(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < warmHits; i++ {
		miss()
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss()
	}
}

// warmHits is how many hits run before the timer starts: enough for the
// one-off work of a fresh server, handler and connection (series, pools,
// buffers) to be done, so allocs/op does not depend on -benchtime.
const warmHits = 10

// BenchmarkRecommendHit measures one cache hit end to end through
// pkg/client over a loopback keep-alive connection: request encoding, both
// HTTP stacks, the handler, and response decoding. Allocations count both
// sides, since they share the process.
func BenchmarkRecommendHit(b *testing.B) {
	s, req := hitServer(b)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cl := client.New(srv.URL)
	ctx := context.Background()
	hit := func() {
		resp, err := cl.Recommend(ctx, req)
		if err != nil || !resp.Cached {
			b.Fatalf("resp %+v, err %v", resp, err)
		}
	}
	for i := 0; i < warmHits; i++ {
		hit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
	b.StopTimer() // before the deferred Close tears the connection down
}
