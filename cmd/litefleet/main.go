// Command litefleet runs the sharded LITE serving tier (DESIGN.md §10): it
// trains (or loads) one boot model, spawns N liteserve shard processes on
// ephemeral ports — shard0 as the trainer with a feedback WAL and snapshot
// persistence, the rest as followers — and serves a consistent-hash router
// in front of them. Requests are placed by the same (app, datasize bucket,
// env fingerprint) key the per-shard cache uses, dead or slow
// shards are health-checked out of the ring (their arc falls to ring
// successors) and re-admitted with backoff when they recover, crashed
// shard processes are restarted, and every model generation the trainer
// validates and persists is flipped fleet-wide so all shards serve the
// same weights.
//
// Usage:
//
//	litefleet -shards 4                        # train a quick model, serve on :8380
//	litefleet -shards 3 -model lite-tuner.json -dir fleet-state/
//	liteload -url http://127.0.0.1:8380        # drive the fleet
//
// Router endpoints: POST /recommend, POST /feedback (proxied by key),
// GET /healthz (fleet + per-shard JSON), GET /metrics (lite_fleet_*).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"lite/internal/core"
	"lite/internal/fleet"
	"lite/internal/wal"
	"lite/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8380", "router listen address (use :0 for a random port)")
	shards := flag.Int("shards", 3, "liteserve shard processes to run (shard0 is the trainer)")
	dir := flag.String("dir", "", "fleet state directory (default: a fresh temp dir); holds the boot model and per-shard WAL/snapshot state")
	modelPath := flag.String("model", "", "boot model for every shard (a tuner saved by 'lite train'); trains one at boot when empty")
	liteserveBin := flag.String("liteserve", "", "liteserve binary to spawn (default: next to this binary, else $PATH)")
	configs := flag.Int("configs", 3, "training configurations per (app,size,cluster) when training at boot")
	trainSizes := flag.Int("train-sizes", 2, "how many of the four training datasizes to collect at boot (1-4)")
	seed := flag.Int64("seed", 1, "random seed (boot training and shard seeds)")
	updateBatch := flag.Int("update-batch", 8, "trainer: feedback runs per adaptive model update")
	noValidation := flag.Bool("no-validation", false, "trainer: publish retrained models without the held-out validation gate")
	validationCases := flag.Int("validation-cases", 6, "trainer: held-out tuples the hot-swap gate scores")
	probeInterval := flag.Duration("probe-interval", 250*time.Millisecond, "health-check cadence per shard")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "health probe timeout (a slower shard counts as failed)")
	failAfter := flag.Int("fail-after", 2, "consecutive failed probes before a shard is ejected from the ring")
	recoverAfter := flag.Int("recover-after", 2, "consecutive good probes before an ejected shard is re-admitted")
	flag.Parse()

	if err := run(*addr, *shards, *dir, *modelPath, *liteserveBin, *configs, *trainSizes, *seed,
		*updateBatch, *noValidation, *validationCases,
		*probeInterval, *probeTimeout, *failAfter, *recoverAfter); err != nil {
		fmt.Fprintln(os.Stderr, "litefleet:", err)
		os.Exit(1)
	}
}

func run(addr string, shards int, dir, modelPath, liteserveBin string, configs, trainSizes int, seed int64,
	updateBatch int, noValidation bool, validationCases int,
	probeInterval, probeTimeout time.Duration, failAfter, recoverAfter int) error {

	bin, err := findLiteserve(liteserveBin)
	if err != nil {
		return err
	}
	if dir == "" {
		d, err := os.MkdirTemp("", "litefleet-")
		if err != nil {
			return err
		}
		dir = d
		fmt.Printf("litefleet: state dir %s\n", dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	modelPath, err = ensureModel(modelPath, dir, configs, trainSizes, seed)
	if err != nil {
		return err
	}

	router := fleet.NewRouter(fleet.Options{
		ProbeInterval:   probeInterval,
		ProbeTimeout:    probeTimeout,
		FailAfter:       failAfter,
		RecoverAfter:    recoverAfter,
		TrainerID:       "shard0",
		TrainerSnapshot: filepath.Join(dir, "shard0", "snapshot.json"),
	})
	sup := fleet.NewSupervisor(router, fleet.SupervisorOptions{
		Bin:             bin,
		Dir:             dir,
		Shards:          shards,
		ModelPath:       modelPath,
		UpdateBatch:     updateBatch,
		NoValidation:    noValidation,
		ValidationCases: validationCases,
		Seed:            seed,
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	router.Start()
	sup.Start()
	// Same machine-parseable contract as liteserve: scripts key on addr=.
	fmt.Printf("litefleet: listening addr=%s\n", ln.Addr())
	fmt.Printf("litefleet: routing for %d shards on http://%s\n", shards, ln.Addr())

	httpSrv := &http.Server{Handler: router.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("litefleet: %v, shutting down\n", sig)
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "litefleet: %v\n", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "litefleet: http shutdown: %v\n", err)
	}
	sup.Stop(20 * time.Second)
	router.Stop()
	fmt.Println("litefleet: stopped")
	return nil
}

// findLiteserve resolves the shard binary: an explicit flag wins, then a
// liteserve next to the litefleet executable (the layout `go build -o
// dir/ ./cmd/...` and the smoke scripts produce), then $PATH.
func findLiteserve(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "liteserve")
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand, nil
		}
	}
	if p, err := exec.LookPath("liteserve"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("no liteserve binary found (build one next to litefleet or pass -liteserve)")
}

// ensureModel guarantees a boot-model file every shard can load: the given
// path when set, otherwise one trained now with reduced collection
// settings and saved into the fleet dir.
func ensureModel(modelPath, dir string, configs, trainSizes int, seed int64) (string, error) {
	if modelPath != "" {
		if _, err := os.Stat(modelPath); err != nil {
			return "", fmt.Errorf("boot model: %w", err)
		}
		return modelPath, nil
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
	fmt.Printf("litefleet: training boot model (%d apps, %d sizes, %d configs per instance)…\n",
		len(workload.All()), trainSizes, configs)
	start := time.Now()
	tuner, ds := core.Train(workload.All(), opts)
	fmt.Printf("litefleet: trained on %d runs in %v\n", len(ds.Runs), time.Since(start).Round(time.Millisecond))

	path := filepath.Join(dir, "boot-model.json")
	if err := wal.WriteFileAtomic(wal.OSFS{}, path, tuner.Save); err != nil {
		return "", err
	}
	return path, nil
}
