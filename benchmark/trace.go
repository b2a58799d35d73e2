package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lite/internal/core"
	"lite/internal/feature"
	"lite/internal/fleet"
	"lite/internal/instrument"
	"lite/internal/nn"
	"lite/internal/retrieval"
	"lite/internal/serve"
	"lite/internal/session"
	"lite/internal/sparksim"
	"lite/internal/tensor"
	"lite/internal/wal"
	"lite/pkg/api"
	"lite/pkg/client"
)

// The traced run times calls into each layer's public functions from
// outside the program. Spans nest by replay: a request is sent through the
// client, then the same request is handed to the HTTP handler directly,
// then to Server.RecommendCtx, then to Tuner.RecommendSafeCtx, and so on
// inwards. A level's self time is its median minus the medians of the
// levels below it (stats.go). Nothing inside the program is instrumented.

// spanParents gives each workload's levels, child → parent. The root of
// each tree is what a client sees; reconciliation is checked against it.
var spanParents = map[string]map[string]string{
	"hot_zipf": {
		"client.roundtrip": "",
		"serve.handler":    "client.roundtrip",
		"serve.recommend":  "serve.handler",
	},
	"cold_miss": {
		"client.roundtrip":    "",
		"serve.handler":       "client.roundtrip",
		"serve.recommend":     "serve.handler",
		"core.recommend_safe": "serve.recommend",
		"core.acg_sample":     "core.recommend_safe",
		"core.scorer_build":   "core.recommend_safe",
		"core.score_batch":    "core.recommend_safe",
		"nn.infer_batch":      "core.score_batch",
		"tensor.gemm":         "nn.infer_batch",
	},
	"unseen_app": {
		"client.roundtrip":    "",
		"serve.handler":       "client.roundtrip",
		"serve.recommend":     "serve.handler",
		"retrieval.embed":     "serve.recommend",
		"core.recommend_cold": "serve.recommend",
		"retrieval.lookup":    "core.recommend_cold",
		"retrieval.adapt":     "core.recommend_cold",
	},
	"feedback_swap": {
		"client.roundtrip":   "",
		"serve.handler":      "client.roundtrip",
		"serve.feedback_ack": "serve.handler",
		"wal.append":         "serve.feedback_ack",
		// The update is timed whole (eighth ack → verdict) and in the parts
		// that have a public entry point. Validation scoring and snapshot
		// persistence have none, so this tree is reported, not reconciled.
		"serve.update":    "",
		"core.encode_run": "serve.update",
		"core.amu_update": "serve.update",
		// Each feedback is executed on the simulator as it is absorbed, so
		// all but the last run before the eighth ack: beside the update, not
		// inside it.
		"sparksim.simulate": "",
	},
}

// reconcileTolerance is how far the parts may be from the whole.
const reconcileTolerance = 0.15

type tracer struct {
	t0    time.Time
	spans map[string][]span // by workload
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: map[string][]span{}} }

// time records one span around fn.
func (t *tracer) time(workload string, req int, name string, fn func()) {
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.spans[workload] = append(t.spans[workload], span{
		Req: req, Name: name, Parent: spanParents[workload][name],
		Start: start.Nanoseconds(), End: end.Nanoseconds(),
	})
}

// write emits every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, wl := range workloads {
		for _, s := range t.spans[wl.name] {
			line := struct {
				Workload string `json:"workload"`
				span
			}{wl.name, s}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers is what the traced replay measured, beyond the spans themselves.
type layers struct {
	medians map[string]map[string]float64 // workload → span name → µs

	gemmL1Us, gemmMACsPerSec      float64
	cnnInferUs, gcnInferUs        float64
	recommendAllocs, recommendKB  float64
	retrievalHitShare             float64
	walAppendSyncUs               float64
	sessCreateUs, sessProposeUs   float64
	sessReportUs                  float64
	routeOverheadUs, ringLookupNs float64
	overheadShare                 float64

	attempted, failed int
	firstErr          error
	reconciled        bool
	reconcileLines    []string
}

// serveJSON hands one POST to a handler in-process.
func serveJSON(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec
}

// us is a duration in microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// replay is the state the per-workload replays share.
type replay struct {
	m    *model
	seed int64
	n    int // requests replayed per workload
	keys []key
	ctx  context.Context
	tr   *tracer
	ly   *layers

	// hot serves with liteserve's defaults, miss with the cache disabled.
	hot, miss *target
	// tuner is hot's generation-0 snapshot; the levels below the server are
	// timed on it directly.
	tuner *core.Tuner
}

func (r *replay) fail(err error) {
	r.ly.failed++
	if r.ly.firstErr == nil {
		r.ly.firstErr = err
	}
}

// checked sends one request through the client and checks the answer.
func (r *replay) checked(tg *target, ck *checker, req api.RecommendRequest) {
	resp, err := tg.cl.Recommend(r.ctx, req)
	r.ly.attempted++
	if err == nil {
		_, err = ck.check(req, resp)
	}
	if err != nil {
		r.fail(err)
	}
}

// handled serves one request body to the server's handler in-process.
func (r *replay) handled(tg *target, path string, body []byte) {
	if rec := serveJSON(tg.handler, path, body); rec.Code != http.StatusOK {
		r.fail(fmt.Errorf("handler %s: status %d: %s", path, rec.Code, rec.Body.String()))
	}
}

// runLayers replays n seeded requests of each workload one layer at a time
// and writes the spans to tracePath.
func runLayers(m *model, seed int64, n int, tracePath string) (*layers, error) {
	// Layer timings are single-threaded costs: with a wider scoring pool,
	// score_batch runs its chunks in parallel and a level's children,
	// replayed serially, would take longer than the level itself.
	core.SetScoreWorkers(1)
	defer core.SetScoreWorkers(0)

	hot, err := boot(m, "trace-hot", nil)
	if err != nil {
		return nil, err
	}
	defer hot.close()
	miss, err := boot(m, "trace-miss", func(o *serve.Options) { o.DisableCache = true })
	if err != nil {
		return nil, err
	}
	defer miss.close()

	r := &replay{
		m: m, seed: seed, n: n, keys: keyspace(seed), ctx: context.Background(),
		tr: newTracer(), ly: &layers{medians: map[string]map[string]float64{}},
		hot: hot, miss: miss, tuner: hot.srv.Snapshot().Tuner,
	}
	r.hotZipf()
	r.coldMiss()
	r.unseenApp()
	if err := r.feedbackSwap(); err != nil {
		return nil, err
	}
	if err := r.sessions(); err != nil {
		return nil, err
	}
	r.reconcileAll()
	if err := r.tr.write(tracePath); err != nil {
		return nil, fmt.Errorf("writing %s: %w", tracePath, err)
	}
	return r.ly, nil
}

// hotZipf: every level is a cache hit. Tracing overhead, the fleet router's
// overhead and the ring lookup are measured on the same requests.
func (r *replay) hotZipf() {
	w := workloadByName("hot_zipf")
	st, ck := w.reader(r.seed, r.keys, 0), w.newChecker()
	reqs := make([]api.RecommendRequest, r.n)
	for i := range reqs {
		reqs[i], _ = st.next()
		r.checked(r.hot, ck, reqs[i]) // fill the cache
	}
	for i, req := range reqs {
		body, _ := json.Marshal(req)
		r.tr.time(w.name, i, "client.roundtrip", func() { r.checked(r.hot, ck, req) })
		r.tr.time(w.name, i, "serve.handler", func() { r.handled(r.hot, "/v1/recommend", body) })
		r.tr.time(w.name, i, "serve.recommend", func() {
			if resp, err := r.hot.srv.RecommendCtx(r.ctx, req); err != nil || !resp.Cached {
				r.fail(fmt.Errorf("RecommendCtx on a warmed key: cached=%v err=%v", resp.Cached, err))
			}
		})
	}

	// Tracing overhead: the same round trips without and with a span around
	// each, alternating so drift hits both sides alike.
	scratch := newTracer()
	var bare, traced time.Duration
	for i, req := range reqs {
		t0 := time.Now()
		r.checked(r.hot, ck, req)
		t1 := time.Now()
		scratch.time(w.name, i, "client.roundtrip", func() { r.checked(r.hot, ck, req) })
		bare += t1.Sub(t0)
		traced += time.Since(t1)
	}
	r.ly.overheadShare = float64(traced-bare) / float64(bare)

	// The same cache-hit requests through a fleet router in front of this
	// one shard, against the direct round trips above.
	rt := fleet.NewRouter(fleet.Options{Logf: func(string, ...any) {}})
	rt.AddShard("shard0", r.hot.http.URL)
	front := httptest.NewServer(rt.Handler())
	routed := &target{cl: client.New(front.URL)}
	var viaRouter []float64
	for _, req := range reqs {
		t0 := time.Now()
		r.checked(routed, ck, req)
		viaRouter = append(viaRouter, us(time.Since(t0)))
	}
	front.Close()
	r.ly.routeOverheadUs = median(viaRouter) - spanMedians(r.tr.spans[w.name])["client.roundtrip"]

	ring := fleet.NewRing(0)
	for _, id := range []string{"shard0", "shard1", "shard2"} {
		ring.Add(id)
	}
	routing := make([]string, len(reqs))
	for i, req := range reqs {
		routing[i], _ = serve.RoutingKey(req.App, req.SizeMB, req.Cluster)
	}
	const reps = 200
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, k := range routing {
			if _, ok := ring.Lookup(k); !ok {
				r.fail(fmt.Errorf("ring lookup missed"))
			}
		}
	}
	r.ly.ringLookupNs = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(routing))
}

// coldMiss: every level recomputes, down to the tower's GEMMs.
func (r *replay) coldMiss() {
	w := workloadByName("cold_miss")
	st, ck := w.reader(r.seed, r.keys, 0), w.newChecker()
	tuner, model := r.tuner, r.tuner.Model
	rng := subRNG(r.seed, "trace/acg")
	arena := new(nn.Arena)
	var gemmUs, gemmMACs float64
	var l1, cnn, gcn []float64
	var mallocs, bytes uint64
	for i := 0; i < r.n; i++ {
		req, k := st.next()
		body, _ := json.Marshal(req)
		env, _ := serve.ClusterByName(k.cluster)
		spec := k.tmpl.Spec
		data := spec.MakeData(k.sizeMB)

		r.tr.time(w.name, i, "client.roundtrip", func() { r.checked(r.miss, ck, req) })
		r.tr.time(w.name, i, "serve.handler", func() { r.handled(r.miss, "/v1/recommend", body) })
		r.tr.time(w.name, i, "serve.recommend", func() {
			if _, err := r.miss.srv.RecommendCtx(r.ctx, req); err != nil {
				r.fail(err)
			}
		})
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		r.tr.time(w.name, i, "core.recommend_safe", func() {
			if sr, err := tuner.RecommendSafeCtx(r.ctx, spec, data, env); err != nil || sr.Tier != core.TierNECS {
				r.fail(fmt.Errorf("RecommendSafeCtx: tier=%q err=%v", sr.Tier, err))
			}
		})
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
		r.tr.time(w.name, i, "core.recommend", func() {
			if _, err := tuner.RecommendCtx(r.ctx, spec, data, env); err != nil {
				r.fail(err)
			}
		})

		var cands []sparksim.Config
		r.tr.time(w.name, i, "core.acg_sample", func() {
			cands = tuner.ACG.SampleFeasible(spec.Name, data, env, tuner.NumCandidates, rng)
		})
		var scorer *core.AppScorer
		r.tr.time(w.name, i, "core.scorer_build", func() { scorer = model.NewAppScorer(spec, data, env) })
		preds, oks := make([]float64, len(cands)), make([]bool, len(cands))
		r.tr.time(w.name, i, "core.score_batch", func() {
			if err := scorer.ScoreBatchCtx(r.ctx, cands, preds, oks); err != nil {
				r.fail(err)
			}
		})

		// The tower over this request's real input: MatMulInto skips zero
		// operands, and post-ReLU representations and activations are
		// sparse, so the cost depends on the values, not only the shape.
		x := towerInput(model, spec, data, env, cands, &cnn, &gcn)
		tower := model.Tower.Layers
		arena.Reset()
		r.tr.time(w.name, i, "nn.infer_batch", func() { model.Tower.InferBatch(arena, x) })
		// Each layer's GEMM on the activations that layer really sees.
		ins, outs := layerInputs(tower, x)
		r.tr.time(w.name, i, "tensor.gemm", func() {
			for j, l := range tower {
				tensor.MatMulInto(outs[j], ins[j], l.W.Value)
			}
		})
		t0 := time.Now()
		tensor.MatMulInto(outs[0], x, tower[0].W.Value)
		d := us(time.Since(t0))
		l1 = append(l1, d)
		gemmUs += d
		gemmMACs += float64(x.Rows * tower[0].W.Value.Rows * tower[0].W.Value.Cols)
	}
	r.ly.gemmL1Us = median(l1)
	r.ly.gemmMACsPerSec = gemmMACs / (gemmUs / 1e6)
	r.ly.recommendAllocs = float64(mallocs) / float64(r.n)
	r.ly.recommendKB = float64(bytes) / 1024 / float64(r.n)
	r.ly.cnnInferUs, r.ly.gcnInferUs = median(cnn), median(gcn)
}

// unseenApp: the retrieval tier.
func (r *replay) unseenApp() {
	w := workloadByName("unseen_app")
	st, ck := w.reader(r.seed, r.keys, 0), w.newChecker()
	hits := 0
	for i := 0; i < r.n; i++ {
		req, k := st.next()
		env, _ := serve.ClusterByName(k.cluster)
		// A repeated payload would hit the cache, so each level gets the
		// same code under its own app name (the name is part of the key).
		variant := func(level string) api.RecommendRequest {
			v := req
			v.App = req.App + "_" + level
			return v
		}
		viaClient, viaHandler, viaServer := variant("rt"), variant("hd"), variant("rc")
		body, _ := json.Marshal(viaHandler)
		r.tr.time(w.name, i, "client.roundtrip", func() { r.checked(r.hot, ck, viaClient) })
		r.tr.time(w.name, i, "serve.handler", func() { r.handled(r.hot, "/v1/recommend", body) })
		r.tr.time(w.name, i, "serve.recommend", func() {
			if _, err := r.hot.srv.RecommendCtx(r.ctx, viaServer); err != nil {
				r.fail(err)
			}
		})
		var emb []float64
		r.tr.time(w.name, i, "retrieval.embed", func() { emb = retrieval.EmbedCode(req.Features.Code, req.Features.Ops) })
		r.tr.time(w.name, i, "core.recommend_cold", func() {
			if _, err := r.tuner.RecommendColdCtx(r.ctx, emb, req.SizeMB, env); err != nil {
				r.fail(err)
			}
		})
		var res retrieval.Result
		var ok bool
		r.tr.time(w.name, i, "retrieval.lookup", func() {
			res, ok = r.tuner.Retrieval.Lookup(retrieval.Query{Embedding: emb, SizeMB: req.SizeMB, EnvFP: retrieval.EnvFingerprint(env)})
		})
		if ok {
			hits++
		}
		r.tr.time(w.name, i, "retrieval.adapt", func() { retrieval.Adapt(res.Config, res.SizeMB, req.SizeMB) })
	}
	r.ly.retrievalHitShare = float64(hits) / float64(r.n)
}

// feedbackSwap: the write path — the ack chain, then whole updates and the
// parts of one that have a public entry point.
func (r *replay) feedbackSwap() error {
	w := workloadByName("feedback_swap")
	fk := feedbackKeys(r.seed, r.keys)
	ck := &checker{}

	// What the writer would post: served configs for seeded keys.
	var fbs []api.FeedbackRequest
	var fbKeys []key
	for i := 0; i < r.n; i++ {
		req, k := fk.next()
		resp, err := r.hot.cl.Recommend(r.ctx, req)
		r.ly.attempted++
		if err == nil {
			_, err = ck.check(req, resp)
		}
		if err != nil {
			r.fail(err)
			continue
		}
		fbs = append(fbs, api.FeedbackRequest{App: req.App, SizeMB: req.SizeMB, Cluster: req.Cluster, Config: resp.Config})
		fbKeys = append(fbKeys, k)
	}

	dir, err := os.MkdirTemp(outDir, "trace-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// No automatic fsync: Append is timed alone, Append+Sync explicitly.
	log, _, _, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), SyncEvery: 1 << 30, SyncInterval: -1})
	if err != nil {
		return err
	}
	defer log.Close()
	// A follower acknowledges and WAL-logs feedback without queueing it, so
	// n acks can be timed back to back with no retrain running beside them.
	follower, err := boot(r.m, "trace-follower", func(o *serve.Options) { o.Follower = true })
	if err != nil {
		return err
	}
	defer follower.close()
	var syncUs []float64
	for i, fb := range fbs {
		body, _ := json.Marshal(fb)
		r.tr.time(w.name, i, "client.roundtrip", func() {
			if _, err := follower.cl.Feedback(r.ctx, fb); err != nil {
				r.fail(err)
			}
		})
		r.tr.time(w.name, i, "serve.handler", func() { r.handled(follower, "/v1/feedback", body) })
		r.tr.time(w.name, i, "serve.feedback_ack", func() {
			if _, err := follower.srv.FeedbackCtx(r.ctx, fb); err != nil {
				r.fail(err)
			}
		})
		r.tr.time(w.name, i, "wal.append", func() {
			if _, err := log.Append(body); err != nil {
				r.fail(err)
			}
		})
		if i%8 == 7 { // liteserve's -wal-sync-every
			t0 := time.Now()
			_, aerr := log.Append(body)
			serr := log.Sync()
			syncUs = append(syncUs, us(time.Since(t0)))
			if aerr != nil || serr != nil {
				r.fail(fmt.Errorf("wal append+sync: %v %v", aerr, serr))
			}
		}
	}
	r.ly.walAppendSyncUs = median(syncUs)

	// Updates: whole (eighth ack → verdict) on the real server, then the
	// parts with a public entry point on a clone.
	updates := 3
	if r.n < 100 {
		updates = 1
	}
	for u := 0; u < updates && (u+1)*feedbackBatch <= len(fbs); u++ {
		first := u * feedbackBatch
		batch := fbs[first : first+feedbackBatch]
		base := verdicts(r.hot.srv)
		for _, fb := range batch {
			if ack, err := r.hot.srv.FeedbackCtx(r.ctx, fb); err != nil || !ack.Queued {
				r.fail(fmt.Errorf("feedback: queued=%v err=%v", ack.Queued, err))
			}
		}
		r.tr.time(w.name, u, "serve.update", func() {
			for deadline := time.Now().Add(30 * time.Second); verdicts(r.hot.srv) == base && time.Now().Before(deadline); {
				time.Sleep(500 * time.Microsecond)
			}
		})
		clone := r.tuner.CloneForUpdate(trainSeed + int64(u) + 1)
		var target []*core.Encoded
		for i, fb := range batch {
			k := fbKeys[first+i]
			env, _ := serve.ClusterByName(k.cluster)
			cfg, _ := serve.ConfigFromMap(fb.Config)
			data := k.tmpl.Spec.MakeData(k.sizeMB)
			r.tr.time(w.name, first+i, "sparksim.simulate", func() { sparksim.Simulate(k.tmpl.Spec, data, env, cfg) })
			run := instrument.Run(k.tmpl.Spec, data, env, cfg)
			r.tr.time(w.name, first+i, "core.encode_run", func() { target = append(target, clone.EncodeRun(run)...) })
		}
		rng := rand.New(rand.NewSource(trainSeed + 7919*int64(u+1)))
		r.tr.time(w.name, u, "core.amu_update", func() {
			core.AdaptiveModelUpdate(clone.Model, r.m.source, target, clone.AMU, rng)
		})
	}
	return nil
}

// sessionScorer backs session.Scorer with the live model's AppScorer, as
// internal/serve does.
type sessionScorer struct {
	s   *core.AppScorer
	env sparksim.Environment
}

func (s sessionScorer) Score(cfg sparksim.Config) float64 { return s.s.Score(cfg) }
func (s sessionScorer) Feasible(cfg sparksim.Config) bool { return sparksim.Feasible(cfg, s.env) }

// sessions: create, propose, report over a WAL-backed store. No workload
// exercises sessions; the timings are a "before" for the roadmap's WAL +
// snapshot unification.
func (r *replay) sessions() error {
	dir, err := os.MkdirTemp(outDir, "trace-sessions-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := session.Open(session.Options{Dir: dir, Seed: trainSeed})
	if err != nil {
		return err
	}
	defer store.Close()
	var create, propose, report []float64
	count := r.n / 6
	if count < 3 {
		count = 3
	}
	for i := 0; i < count; i++ {
		k := r.keys[i%len(r.keys)]
		env, _ := serve.ClusterByName(k.cluster)
		spec := k.tmpl.Spec
		data := spec.MakeData(k.sizeMB)
		sr, err := r.tuner.RecommendSafeCtx(r.ctx, spec, data, env)
		if err != nil {
			r.fail(err)
			continue
		}
		sc := sessionScorer{s: r.tuner.Model.NewAppScorer(spec, data, env), env: env}
		t0 := time.Now()
		s, err := store.Create(spec.Name, k.sizeMB, k.cluster, session.Moderate, 0, 0, sr.Config, sr.PredictedSeconds)
		create = append(create, us(time.Since(t0)))
		if err != nil {
			r.fail(err)
			continue
		}
		for trial := 0; trial < 3; trial++ {
			t0 = time.Now()
			p, err := store.NextProposal(s.ID, sc)
			propose = append(propose, us(time.Since(t0)))
			if err != nil {
				r.fail(err)
				break
			}
			secs := sparksim.Simulate(spec, data, env, p.Config).Seconds
			t0 = time.Now()
			_, err = store.Report(s.ID, p.Trial, secs, false)
			report = append(report, us(time.Since(t0)))
			if err != nil {
				r.fail(err)
				break
			}
		}
	}
	r.ly.sessCreateUs, r.ly.sessProposeUs, r.ly.sessReportUs = median(create), median(propose), median(report)
	return nil
}

// reconcileAll takes the level medians and checks, per workload, that the
// self times under client.roundtrip add up to it.
func (r *replay) reconcileAll() {
	ly := r.ly
	ly.reconciled = true
	for _, w := range workloads {
		med := spanMedians(r.tr.spans[w.name])
		ly.medians[w.name] = med
		parts, whole := reconcile("client.roundtrip", med, spanParents[w.name])
		ratio := share(parts, whole)
		okay := ratio >= 1-reconcileTolerance && ratio <= 1+reconcileTolerance
		ly.reconciled = ly.reconciled && okay
		ly.reconcileLines = append(ly.reconcileLines, fmt.Sprintf(
			"reconcile %-13s parts %.1f us / whole %.1f us = %.3f (tolerance %.2f) ok=%v", w.name, parts, whole, ratio, reconcileTolerance, okay))
	}
	upd := ly.medians["feedback_swap"]
	if whole := upd["serve.update"]; whole > 0 {
		parts := feedbackBatch*upd["core.encode_run"] + upd["core.amu_update"]
		ly.reconcileLines = append(ly.reconcileLines, fmt.Sprintf(
			"update tree   serve.update %.0f us: 8 x encode_run + amu_update = %.0f us (%.0f%%); the rest is validation scoring, snapshot persist and cache flush, which have no public entry point",
			whole, parts, 100*parts/whole))
	}
}

// towerInput rebuilds, from public parts, the matrix core/batch.go feeds the
// tower (DESIGN.md §12): for C candidates over the plan's S unique stages,
// row c·S+s is [ knobs(c) ‖ data ‖ env ‖ derived(c) | h_code(s) ‖ h_DAG(s) ].
// The two encoder forwards it needs per stage are timed into cnn and gcn
// (microseconds).
func towerInput(model *core.NECS, spec *sparksim.AppSpec, data sparksim.DataSpec, env sparksim.Environment, cands []sparksim.Config, cnn, gcn *[]float64) *tensor.Tensor {
	var reps [][]float64
	seen := map[int]bool{}
	for _, si := range spec.ExpandedStages(data) {
		if seen[si] {
			continue
		}
		seen[si] = true
		st := &spec.Stages[si]
		enc := model.Encoder.Encode(&instrument.StageInstance{Code: st.Code, Ops: st.Ops, Edges: st.Edges})
		t0 := time.Now()
		hCode := model.Code.Infer(enc.TokenIDs)
		t1 := time.Now()
		hDAG := model.DAG.Infer(enc.AHat, enc.NodeFeats)
		t2 := time.Now()
		*cnn = append(*cnn, float64(t1.Sub(t0))/1e3)
		*gcn = append(*gcn, float64(t2.Sub(t1))/1e3)
		reps = append(reps, append(append([]float64(nil), hCode.Data...), hDAG.Data...))
	}
	x := tensor.New(len(cands)*len(reps), feature.DenseWidth+len(reps[0]))
	for ci, cfg := range cands {
		dense := append(append(append(cfg.Normalized(), data.Features()...), env.Features()...),
			feature.DerivedResourceFeatures(cfg, data, env)...)
		for si, rep := range reps {
			row := x.RowView(ci*len(reps) + si)
			copy(row[copy(row, dense):], rep)
		}
	}
	return x
}

// layerInputs runs the tower once, untimed, and returns each layer's input
// and an output buffer of the right shape.
func layerInputs(tower []*nn.Dense, x *tensor.Tensor) (ins, outs []*tensor.Tensor) {
	in := x
	for j, l := range tower {
		out := tensor.MatMul(in, l.W.Value)
		for r := 0; r < out.Rows; r++ {
			row := out.RowView(r)
			for c, b := range l.B.Value.Data {
				if row[c] += b; j+1 < len(tower) && !(row[c] > 0) {
					row[c] = 0
				}
			}
		}
		ins, outs = append(ins, in), append(outs, tensor.New(out.Rows, out.Cols))
		in = out
	}
	return ins, outs
}
