// Command liteserve runs the LITE recommendation service: an HTTP server
// that serves knob recommendations from an immutable model snapshot,
// caches repeated-key answers (concurrent misses on one key compute once),
// and folds posted execution feedback back into the model with an online
// adaptive-update loop that hot-swaps snapshots without blocking readers.
//
// Usage:
//
//	liteserve                                # train a quick model, serve on :8372
//	liteserve -model lite-tuner.json         # serve a tuner saved by 'lite train'
//	liteserve -addr 127.0.0.1:0 -snapshot s.json -wal-dir wal/   # crash-safe state
//
// Endpoints (full reference: API.md):
//
//	POST /v1/recommend  {"app":"PageRank","size_mb":4096,"cluster":"C"}
//	POST /v1/feedback   {"app":"PageRank","size_mb":4096,"cluster":"C","config":{...}}
//	GET  /v1/healthz    (JSON: generation, snapshot age, inflight, wal depth)
//	*    /v1/tuning/sessions[/{id}[/proposal|/result]]  (online tuning sessions)
//	GET  /metrics
//	POST /v1/admin/flip (only with -admin / -follower: fleet hot-swap)
//
// Only these paths are routed; any other path outside /v1, including the
// unversioned /recommend, /feedback, /healthz and /admin/flip, is a 404.
//
// As a fleet shard (cmd/litefleet spawns these): -follower disables local
// retraining so the model only moves via coordinated flips, and the
// `listening addr=` stdout line reports the kernel-assigned port when
// -addr ends in :0.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lite/internal/core"
	"lite/internal/retrieval"
	"lite/internal/serve"
	"lite/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8372", "listen address (use :0 for a random port)")
	modelPath := flag.String("model", "", "load a tuner saved by 'lite train' instead of training at boot")
	configs := flag.Int("configs", 3, "training configurations per (app,size,cluster) when training at boot")
	trainSizes := flag.Int("train-sizes", 2, "how many of the four training datasizes to collect (1-4)")
	seed := flag.Int64("seed", 1, "random seed")
	cacheTTL := flag.Duration("cache-ttl", 30*time.Second, "recommendation cache TTL")
	noCache := flag.Bool("no-cache", false, "disable the recommendation cache")
	requestTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request deadline for /recommend and /feedback (0 = none); blown deadlines return 504")
	maxInFlight := flag.Int("max-inflight", 256, "max concurrent requests in the pipeline before load shedding (0 = unbounded); shed requests return 503 + Retry-After")
	updateBatch := flag.Int("update-batch", 8, "feedback runs per adaptive model update")
	snapshotPath := flag.String("snapshot", "", "persist each published model snapshot to this file; an existing file is loaded at boot (crash resume)")
	walDir := flag.String("wal-dir", "", "feedback write-ahead-log directory: accepted feedback survives a crash and replays at the next boot")
	walSyncEvery := flag.Int("wal-sync-every", 8, "fsync the feedback WAL every N appends (1 = durable before every ack)")
	walSyncInterval := flag.Duration("wal-sync-interval", 50*time.Millisecond, "background WAL fsync interval (negative disables it)")
	noValidation := flag.Bool("no-validation", false, "publish retrained models without the held-out validation gate")
	validationCases := flag.Int("validation-cases", 6, "held-out (app, datasize, cluster) tuples the hot-swap gate scores")
	chaosCorruptEvery := flag.Int("chaos-corrupt-every", 0, "CHAOS: poison every Nth retrained candidate's weights (drives the gate's rejection path; 0 = off)")
	chaosPanicEvery := flag.Int("chaos-panic-every", 0, "CHAOS: panic inside every Nth retrain (drives the update-loop supervisor's restart path; 0 = off)")
	sourceSampleN := flag.Int("source-sample", 256, "source-domain instances mixed into each update (0 with -model)")
	workers := flag.Int("workers", 0, "candidate-scoring goroutines (0 = GOMAXPROCS, 1 = serial)")
	follower := flag.Bool("follower", false, "fleet follower mode: no local retraining, the model advances only via POST /admin/flip (implies -admin)")
	admin := flag.Bool("admin", false, "expose POST /v1/admin/flip (fleet-coordinated hot-swap)")
	sessionDir := flag.String("session-dir", "", "tuning-session WAL+snapshot directory (default <wal-dir>/sessions when -wal-dir is set; empty without it = in-memory sessions)")
	flag.Parse()

	// Resize the scoring pool before boot-training so the first model's
	// recommendations already fan out.
	core.SetScoreWorkers(*workers)

	tuner, source, err := loadOrTrain(*snapshotPath, *modelPath, *configs, *trainSizes, *seed, *sourceSampleN)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	s := serve.New(tuner, serve.Options{
		CacheTTL:        *cacheTTL,
		DisableCache:    *noCache,
		RequestTimeout:  *requestTimeout,
		MaxInFlight:     *maxInFlight,
		UpdateBatch:     *updateBatch,
		SourceSample:    source,
		SnapshotPath:    *snapshotPath,
		WALDir:          *walDir,
		WALSyncEvery:    *walSyncEvery,
		WALSyncInterval: *walSyncInterval,
		Validation: serve.ValidationOptions{
			Enable: !*noValidation,
			Cases:  *validationCases,
		},
		ChaosCorruptEveryN: *chaosCorruptEvery,
		ChaosPanicEveryN:   *chaosPanicEvery,
		Seed:               *seed,
		Follower:           *follower,
		EnableAdmin:        *admin,
		SessionDir:         *sessionDir,
	})
	if err := s.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "liteserve:", err)
		os.Exit(1)
	}
	if *walDir != "" {
		fmt.Printf("liteserve: WAL recovery: %d records replayed, %d corrupt tails skipped\n",
			s.Metrics().Counter("lite_wal_recovered_records_total").Value(),
			s.Metrics().Counter("lite_wal_corrupt_records_total").Value())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The addr= line is the machine-parseable contract a fleet supervisor
	// (cmd/litefleet) keys on to learn a shard's kernel-assigned ephemeral
	// port without races; the human-readable line follows for scripts
	// (make serve-smoke) and operators.
	fmt.Printf("liteserve: listening addr=%s\n", ln.Addr())
	fmt.Printf("liteserve: listening on http://%s (generation %d)\n", ln.Addr(), s.Snapshot().Gen)

	httpSrv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("liteserve: %v, shutting down\n", sig)
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "liteserve: %v\n", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "liteserve: http shutdown: %v\n", err)
	}
	if err := s.Shutdown(ctx.Done()); err != nil {
		fmt.Fprintf(os.Stderr, "liteserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("liteserve: stopped at generation %d (%d feedbacks folded in)\n",
		s.Snapshot().Gen, s.Snapshot().Feedbacks)
}

// loadOrTrain picks the boot model in crash-resume order: an existing
// -snapshot file (the adapted state a previous process persisted before it
// died) wins over -model (the offline baseline), which wins over training a
// fresh model at boot with reduced collection settings.
func loadOrTrain(snapshotPath, modelPath string, configs, trainSizes int, seed int64, sourceN int) (*core.Tuner, []*core.Encoded, error) {
	if snapshotPath != "" {
		if f, err := os.Open(snapshotPath); err == nil {
			defer f.Close()
			tuner, err := core.LoadTuner(f, seed)
			if err != nil {
				// A snapshot that exists but does not load is a hard error:
				// silently discarding adapted state and serving a colder
				// model would mask the corruption.
				return nil, nil, fmt.Errorf("liteserve: resuming from snapshot %s: %w", snapshotPath, err)
			}
			fmt.Printf("liteserve: resumed adapted model from snapshot %s\n", snapshotPath)
			// Snapshots do not serialize the retrieval store; boot with an
			// empty one and let absorbed feedback repopulate it.
			tuner.Retrieval = retrieval.New()
			return tuner, nil, nil
		}
	}
	if modelPath != "" {
		f, err := os.Open(modelPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		tuner, err := core.LoadTuner(f, seed)
		if err != nil {
			return nil, nil, err
		}
		fmt.Printf("liteserve: loaded tuner from %s (updates will use target-domain feedback only)\n", modelPath)
		tuner.Retrieval = retrieval.New()
		return tuner, nil, nil
	}

	if trainSizes < 1 {
		trainSizes = 1
	}
	if trainSizes > 4 {
		trainSizes = 4
	}
	sizes := make([]int, trainSizes)
	for i := range sizes {
		sizes[i] = i
	}
	opts := core.DefaultTrainOptions()
	opts.Collect.ConfigsPerInstance = configs
	opts.Collect.Sizes = sizes
	opts.Seed = seed
	fmt.Printf("liteserve: training at boot (%d apps, %d sizes, %d configs per instance)…\n",
		len(workload.All()), trainSizes, configs)
	start := time.Now()
	tuner, ds := core.Train(workload.All(), opts)
	fmt.Printf("liteserve: trained on %d runs (%d stage instances) in %v\n",
		len(ds.Runs), len(ds.Instances), time.Since(start).Round(time.Millisecond))
	// The training runs double as the retrieval cold-start corpus: unseen
	// apps are served by their nearest historical neighbour from boot.
	tuner.Retrieval = retrieval.BuildFromRuns(ds.Runs)
	fmt.Printf("liteserve: retrieval store seeded with %d best-known configs\n", tuner.Retrieval.Len())

	encoded := core.EncodeAll(tuner.Model.Encoder, ds.Instances)
	source := sampleEncoded(encoded, sourceN, rand.New(rand.NewSource(seed+13)))
	return tuner, source, nil
}

func sampleEncoded(data []*core.Encoded, n int, rng *rand.Rand) []*core.Encoded {
	if n <= 0 || n >= len(data) {
		return data
	}
	out := make([]*core.Encoded, n)
	for i, j := range rng.Perm(len(data))[:n] {
		out[i] = data[j]
	}
	return out
}
