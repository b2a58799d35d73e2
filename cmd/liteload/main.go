// Command liteload is the load generator for a running LITE
// recommendation service (liteserve or a litefleet router). It drives
// repeated-key /v1/recommend traffic and reports p50/p99 latency,
// throughput, cache hit rate and the restart window a crash leaves, or
// drives tuning-session lifecycles instead. The in-process comparison of
// serving configurations is the repo benchmark's job (go run ./benchmark).
//
// Usage:
//
//	liteload -url http://127.0.0.1:8372   # drive a running liteserve
//	liteload -url ... -n 2000 -c 32 -keys 6
//	liteload -url http://127.0.0.1:8380   # drive a litefleet router: the
//	                                      # report adds per-shard request
//	                                      # share, p50/p99 and cache-hit skew
//	liteload -url ... -sessions           # drive tuning-session lifecycles
//	                                      # (create → propose → measure →
//	                                      # report → close) instead of
//	                                      # /v1/recommend traffic
//
// It speaks the typed /v1 client (pkg/client). A server rejection outside
// the expected overload surface (shed, queue-full, deadline) is a harness
// bug, not load: liteload fails fast with the server's error code and
// message instead of burying it in the errors column.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"lite/internal/serve"
	"lite/internal/workload"
	"lite/pkg/api"
	"lite/pkg/client"
)

func main() {
	n := flag.Int("n", 400, "total recommend requests")
	c := flag.Int("c", 16, "concurrent workers")
	keys := flag.Int("keys", 8, "distinct (app,size,cluster) keys in the traffic")
	seed := flag.Int64("seed", 1, "random seed (traffic shape)")
	url := flag.String("url", "", "base URL of the liteserve or litefleet to drive (required)")
	timeout := flag.Duration("timeout", 0, "per-request deadline (0 = none); timed-out requests count in the deadline column")
	sessions := flag.Bool("sessions", false, "drive tuning-session lifecycles (one per key) instead of recommend traffic")
	strategy := flag.String("strategy", "moderate", "session mode: exploration strategy (conservative|moderate|aggressive)")
	trials := flag.Int("trials", 0, "session mode: trial budget per session (0 = strategy default)")
	flag.Parse()

	if *url == "" {
		fmt.Fprintln(os.Stderr, "liteload: -url is required (a running liteserve or litefleet)")
		flag.Usage()
		os.Exit(2)
	}
	if *sessions {
		runSessions(*url, *keys, *trials, *strategy, *timeout)
		return
	}
	printReport(runRemote(*url, makeTraffic(*n, *keys, *seed), *c, *timeout), *n)
}

// makeTraffic builds a deterministic repeated-key workload: keys are
// (app, size, cluster) combos, drawn Zipf-skewed so a few keys are hot —
// the regime the cache is built for.
func makeTraffic(n, keys int, seed int64) []api.RecommendRequest {
	apps := workload.All()
	clusters := []string{"A", "B", "C"}
	sizes := []float64{256, 512, 1024, 2048, 4096}
	if keys < 1 {
		keys = 1
	}
	combos := make([]api.RecommendRequest, keys)
	for i := range combos {
		combos[i] = api.RecommendRequest{
			App:     apps[i%len(apps)].Spec.Name,
			SizeMB:  sizes[i%len(sizes)],
			Cluster: clusters[i%len(clusters)],
		}
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(keys-1))
	out := make([]api.RecommendRequest, n)
	for i := range out {
		out[i] = combos[zipf.Uint64()]
	}
	return out
}

type runResult struct {
	lats     []time.Duration
	wall     time.Duration
	errors   int
	deadline int
	shed     int
	cached   int

	// Recovery-aware accounting (remote mode): down counts requests that
	// failed at the connection level — the server was dead or restarting —
	// and ttfs is the time from the start of the most recent such outage
	// window to the first success after it (how long the restart took to
	// serve again, as the client experienced it).
	down      int
	downSince time.Time
	ttfs      time.Duration

	// Per-shard accounting (fleet mode): keyed by the X-Lite-Shard header a
	// litefleet router stamps on every relayed response. Empty against a
	// single liteserve.
	shards map[string]*shardStat
}

// shardStat is one shard's slice of a remote run: its request share, its
// latency distribution, and its cache hit rate — together they show routing
// skew and whether consistent hashing is keeping each shard's cache hot.
type shardStat struct {
	n      int
	cached int
	lats   []time.Duration
}

// recordShard folds one fleet-routed response into the per-shard stats
// (caller holds the mutex).
func recordShard(res *runResult, id string, lat time.Duration, cached bool) {
	if id == "" {
		return
	}
	if res.shards == nil {
		res.shards = map[string]*shardStat{}
	}
	st := res.shards[id]
	if st == nil {
		st = &shardStat{}
		res.shards[id] = st
	}
	st.n++
	st.lats = append(st.lats, lat)
	if cached {
		st.cached++
	}
}

// markDown records one connection-level failure (caller holds the mutex).
func markDown(res *runResult) {
	res.down++
	if res.downSince.IsZero() {
		res.downSince = time.Now()
	}
}

// markUp closes an open outage window on a success (caller holds the mutex).
func markUp(res *runResult) {
	if !res.downSince.IsZero() {
		res.ttfs = time.Since(res.downSince)
		res.downSince = time.Time{}
	}
}

func runRemote(url string, reqs []api.RecommendRequest, workers int, timeout time.Duration) runResult {
	var mu sync.Mutex
	res := runResult{}
	idx := make(chan int)
	var wg sync.WaitGroup
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	cl := client.New(url, client.WithTimeout(timeout))
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t0 := time.Now()
				resp, meta, err := cl.RecommendMeta(context.Background(), reqs[i])
				lat := time.Since(t0)
				mu.Lock()
				res.lats = append(res.lats, lat)
				var ae *client.APIError
				switch {
				case err == nil:
					if resp.Cached {
						res.cached++
					}
					recordShard(&res, meta.Shard, lat, resp.Cached)
					markUp(&res)
				case errors.As(err, &ae):
					switch ae.Code {
					case api.CodeDeadlineExceeded:
						res.deadline++
					case api.CodeOverloaded, api.CodeQueueFull, api.CodeUnavailable:
						res.shed++
					default:
						// Any other server rejection (invalid_argument,
						// not_found, …) means liteload is sending requests
						// the API refuses — a harness bug. Fail fast with
						// the server's own message instead of counting it
						// as anonymous load-failure noise.
						mu.Unlock()
						fatalf("server rejected request: %v", ae)
					}
				case isTimeout(err):
					res.deadline++
				default:
					// Connection refused/reset: the server is down or mid-
					// restart. Counted apart from hard errors so a chaos run
					// can bound its restart window.
					markDown(&res)
				}
				mu.Unlock()
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// fatalf aborts the run with a clear message; used when the server's reply
// shows a request-shape problem no amount of retrying fixes.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "liteload: "+format+"\n", args...)
	os.Exit(1)
}

// runSessions drives one full tuning-session lifecycle per key against a
// remote server: create (the server anchors the static-safe baseline),
// then propose → measure (simulator ground truth) → report until the
// budget is spent, then close — printing per-session baseline vs best and
// the violation count. This is the session analogue of the recommend
// traffic: it exercises the whole /v1/tuning/sessions surface end to end.
func runSessions(url string, keys, trials int, strategy string, timeout time.Duration) {
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	cl := client.New(url, client.WithTimeout(timeout))
	ctx := context.Background()
	combos := sessionCombos(keys)

	fmt.Printf("%-12s %-8s %-8s %-10s %-9s %-9s %-7s %-6s %-5s\n",
		"app", "size_mb", "cluster", "strategy", "baseline", "best", "gain", "trials", "viol")
	var wins int
	for _, req := range combos {
		req.Strategy = strategy
		req.MaxTrials = trials
		sess, err := cl.CreateSession(ctx, req)
		if err != nil {
			fatalf("create session for %s/%g/%s: %v", req.App, req.SizeMB, req.Cluster, err)
		}
		for {
			prop, err := cl.NextProposal(ctx, sess.ID)
			if client.ErrorCode(err) == api.CodeBudgetExhausted {
				break
			}
			if err != nil {
				fatalf("proposal for %s: %v", sess.ID, err)
			}
			cfg, err := serve.ConfigFromMap(prop.Config)
			if err != nil {
				fatalf("proposal %s trial %d returned a malformed config: %v", sess.ID, prop.Trial, err)
			}
			run, err := serve.SimulateOnce(sess.App, sess.SizeMB, sess.Cluster, cfg)
			if err != nil {
				fatalf("simulating trial %d of %s: %v", prop.Trial, sess.ID, err)
			}
			seconds, failed := run.Seconds, run.Failed
			// Honor the proposal's guard-rail: a real client kills the
			// trial at abort_after_seconds; the simulator equivalent is
			// capping the reported time and flagging the run failed.
			if prop.AbortAfterSeconds > 0 && seconds > prop.AbortAfterSeconds {
				seconds, failed = prop.AbortAfterSeconds, true
			}
			if _, err := cl.ReportResult(ctx, sess.ID, api.ReportResultRequest{
				Trial: prop.Trial, Seconds: seconds, Failed: failed,
			}); err != nil {
				fatalf("reporting trial %d of %s: %v", prop.Trial, sess.ID, err)
			}
		}
		final, err := cl.CloseSession(ctx, sess.ID)
		if err != nil {
			fatalf("closing %s: %v", sess.ID, err)
		}
		gain := "-"
		if final.BestSeconds > 0 && final.BaselineSeconds > 0 {
			g := 100 * (final.BaselineSeconds - final.BestSeconds) / final.BaselineSeconds
			gain = fmt.Sprintf("%+.1f%%", g)
			if g > 0 {
				wins++
			}
		}
		fmt.Printf("%-12s %-8g %-8s %-10s %-9.1f %-9.1f %-7s %-6d %-5d\n",
			final.App, final.SizeMB, final.Cluster, final.Strategy,
			final.BaselineSeconds, final.BestSeconds, gain, final.TrialsUsed, final.Violations)
	}
	fmt.Printf("\n%d/%d sessions beat their static-safe baseline\n", wins, len(combos))
}

// sessionCombos picks `keys` distinct (app, size, cluster) targets, the
// same combo universe makeTraffic draws from.
func sessionCombos(keys int) []api.CreateSessionRequest {
	apps := workload.All()
	clusters := []string{"A", "B", "C"}
	sizes := []float64{256, 512, 1024, 2048, 4096}
	if keys < 1 {
		keys = 1
	}
	out := make([]api.CreateSessionRequest, keys)
	for i := range out {
		out[i] = api.CreateSessionRequest{
			App:     apps[i%len(apps)].Spec.Name,
			SizeMB:  sizes[i%len(sizes)],
			Cluster: clusters[i%len(clusters)],
		}
	}
	return out
}

// isTimeout reports whether a remote request failed on its client-side
// deadline (http.Client.Timeout surfaces as a net.Error with Timeout true,
// not always as a wrapped context.DeadlineExceeded).
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// printReport prints the run's summary row, then its per-shard breakdown.
func printReport(r runResult, n int) {
	fmt.Printf("\n%-30s %-8s %-7s %-9s %-5s %-6s %-9s %-10s %-10s %-12s %s\n",
		"pass", "reqs", "errors", "deadline", "shed", "down", "ttfs", "p50", "p99", "throughput", "cache-hit")
	sort.Slice(r.lats, func(a, b int) bool { return r.lats[a] < r.lats[b] })
	served := len(r.lats)
	hitRate := 0.0
	if served > 0 {
		hitRate = float64(r.cached) / float64(served)
	}
	ttfs := "-"
	if r.ttfs > 0 {
		ttfs = roundDur(r.ttfs).String()
	}
	fmt.Printf("%-30s %-8d %-7d %-9d %-5d %-6d %-9s %-10v %-10v %-12s %s\n",
		"remote", n, r.errors, r.deadline, r.shed, r.down, ttfs,
		roundDur(quantile(r.lats, 0.50)),
		roundDur(quantile(r.lats, 0.99)),
		fmt.Sprintf("%.0f/s", float64(served)/r.wall.Seconds()),
		fmt.Sprintf("%.0f%%", hitRate*100))
	printShardReport(r)
}

// printShardReport breaks a fleet run down by answering shard: request
// share (how evenly the ring spread this traffic), per-shard p50/p99, and
// per-shard cache-hit rate (skew here means some shards' arcs carry the hot
// keys). Prints nothing for single-server runs.
func printShardReport(r runResult) {
	if len(r.shards) == 0 {
		return
	}
	ids := make([]string, 0, len(r.shards))
	total := 0
	for id, st := range r.shards {
		ids = append(ids, id)
		total += st.n
	}
	sort.Strings(ids)
	fmt.Printf("\nper-shard (%d shards answered):\n", len(ids))
	fmt.Printf("%-10s %-8s %-7s %-10s %-10s %s\n", "shard", "reqs", "share", "p50", "p99", "cache-hit")
	for _, id := range ids {
		st := r.shards[id]
		sort.Slice(st.lats, func(a, b int) bool { return st.lats[a] < st.lats[b] })
		fmt.Printf("%-10s %-8d %-7s %-10v %-10v %.0f%%\n",
			id, st.n,
			fmt.Sprintf("%.0f%%", 100*float64(st.n)/float64(total)),
			roundDur(quantile(st.lats, 0.50)),
			roundDur(quantile(st.lats, 0.99)),
			100*float64(st.cached)/float64(st.n))
	}
}

// roundDur rounds to ~3 significant figures so microsecond cache hits and
// second-scale cold inferences both print readably.
func roundDur(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	case d >= time.Microsecond:
		return d.Round(10 * time.Nanosecond)
	default:
		return d
	}
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
