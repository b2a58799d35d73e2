package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lite/internal/core"
	"lite/internal/instrument"
	"lite/internal/retrieval"
	"lite/internal/serve"
	"lite/internal/workload"
	"lite/pkg/api"
	"lite/pkg/client"
)

// outDir holds everything a run writes: per-server WAL/snapshot state
// (removed at exit) and the trace file (kept). It is relative to the
// working directory, which is the checkout root under `go run ./benchmark`.
const outDir = ".bench_out"

// trainSeed is fixed: -seed drives only the generated inputs, never the
// program under test, so every run measures the same model.
const trainSeed = 1

// sourceSampleN is liteserve's -source-sample default.
const sourceSampleN = 256

// model is one offline-trained tuner plus what liteserve derives from the
// boot-train dataset: the runs that seed the retrieval store and the
// source-domain sample mixed into every adaptive update.
type model struct {
	tuner  *core.Tuner
	source []*core.Encoded
	runs   []instrument.AppInstance
}

// trainModel is liteserve's boot-train path at the quick settings every
// smoke in this repo uses: 15 apps, 3 configs per instance, the two
// smallest training sizes.
func trainModel() *model {
	opts := core.DefaultTrainOptions()
	opts.Collect.ConfigsPerInstance = 3
	opts.Collect.Sizes = []int{0, 1}
	opts.Seed = trainSeed
	tuner, ds := core.Train(workload.All(), opts)
	encoded := core.EncodeAll(tuner.Model.Encoder, ds.Instances)
	source := encoded
	if len(encoded) > sourceSampleN {
		source = make([]*core.Encoded, sourceSampleN)
		for i, j := range rand.New(rand.NewSource(trainSeed + 13)).Perm(len(encoded))[:sourceSampleN] {
			source[i] = encoded[j]
		}
	}
	return &model{tuner: tuner, source: source, runs: ds.Runs}
}

// numClients is how many client goroutines and connections drive the
// server: one per core and no more (the server shares the box with them),
// but never fewer than two because feedback_swap needs a reader beside its
// writer.
func numClients() int {
	if n := runtime.NumCPU(); n > 2 {
		return n
	}
	return 2
}

// target is one in-process serve.Server behind a loopback listener, and a
// typed client whose transport holds at most numClients connections.
type target struct {
	srv     *serve.Server
	handler http.Handler
	http    *httptest.Server
	cl      *client.Client
	dir     string
}

// serveOptions returns liteserve's defaults (its flag defaults, not the
// library zero value: admission limit and validation gate on) with durable
// state under dir. The one non-default is the retrain backoff, pinned to
// 10 ms: a rejected swap otherwise parks the update loop for 1 s … 5 min
// and the writer would measure the backoff, not the update.
func serveOptions(m *model, dir string) serve.Options {
	return serve.Options{
		CacheTTL:          30 * time.Second,
		BatchMax:          16,
		BatchWindow:       2 * time.Millisecond,
		RequestTimeout:    10 * time.Second,
		MaxInFlight:       256,
		UpdateBatch:       8,
		SourceSample:      m.source,
		SnapshotPath:      filepath.Join(dir, "snapshot.json"),
		WALDir:            filepath.Join(dir, "wal"),
		Validation:        serve.ValidationOptions{Enable: true, Cases: 6},
		RetrainBackoffMin: 10 * time.Millisecond,
		RetrainBackoffMax: 10 * time.Millisecond,
		Seed:              trainSeed,
	}
}

// boot starts a server on a fresh clone of the model and a fresh retrieval
// store seeded from the training runs (as liteserve does at boot), so
// nothing one server learns from feedback reaches another.
func boot(m *model, tag string, tweak func(*serve.Options)) (*target, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, tag+"-")
	if err != nil {
		return nil, err
	}
	opts := serveOptions(m, dir)
	opts.Retrieval = retrieval.BuildFromRuns(m.runs)
	if tweak != nil {
		tweak(&opts)
	}
	srv := serve.New(m.tuner.CloneForUpdate(trainSeed), opts)
	if err := srv.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting %s server: %w", tag, err)
	}
	h := srv.Handler()
	hs := httptest.NewServer(h)
	n := numClients()
	hc := &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConns: n, MaxIdleConnsPerHost: n, MaxConnsPerHost: n},
	}
	return &target{srv: srv, handler: h, http: hs, cl: client.New(hs.URL, client.WithHTTPClient(hc)), dir: dir}, nil
}

// close stops the listener, then the server (waiting for an in-flight
// retrain), and removes the server's on-disk state.
func (t *target) close() error {
	t.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := t.srv.Shutdown(ctx.Done())
	if rerr := os.RemoveAll(t.dir); err == nil {
		err = rerr
	}
	return err
}

// coldSetup times what an operator waits for between `liteserve` and the
// first answer: train, seed the retrieval store, start the server, serve
// one request.
func coldSetup() (*model, time.Duration, error) {
	start := time.Now()
	m := trainModel()
	t, err := boot(m, "setup", nil)
	if err != nil {
		return nil, 0, err
	}
	app := workload.All()[0]
	_, err = t.cl.Recommend(context.Background(), api.RecommendRequest{App: app.Spec.Name, SizeMB: 1024, Cluster: "C"})
	took := time.Since(start)
	if cerr := t.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, fmt.Errorf("cold setup: %w", err)
	}
	return m, took, nil
}
