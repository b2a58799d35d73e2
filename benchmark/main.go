// Command benchmark is the repo benchmark BENCHMARK.json names: it trains
// the quick model, serves it in-process behind a loopback listener, drives
// one of four traffic mixes through pkg/client from one client per core,
// checks every answer, and prints every metric by name with its unit. See
// README.md in this directory for the workloads, the metrics and how they
// interact.
//
//	go run ./benchmark --workload hot_zipf --seed 1 --seconds 20 --trace 0
//	go run ./benchmark --workload cold_miss --seed 1 --seconds 20 --trace 1
//	go run ./benchmark -check-repeat
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the per-layer ones, and every span is written to
// .bench_out/trace.jsonl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef mirrors one entry of BENCHMARK.json; main_test.go keeps the two
// in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.20},
	{"latency_p50_ms", "ms", "lower", 0.15},
	{"open_latency_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"rec_speedup_geomean", "x", "higher", 0.15},
	{"rec_ok_share", "ratio", "higher", 0.05},
	{"update_p50_ms", "ms", "lower", 0.25},
}

var perLayer = []metricDef{
	{Name: "tensor.gemm_l1_us", Unit: "us", Better: "lower"},
	{Name: "tensor.gemm_macs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "nn.infer_batch_us", Unit: "us", Better: "lower"},
	{Name: "nn.cnn_infer_us", Unit: "us", Better: "lower"},
	{Name: "nn.gcn_infer_us", Unit: "us", Better: "lower"},
	{Name: "core.acg_sample_us", Unit: "us", Better: "lower"},
	{Name: "core.scorer_build_us", Unit: "us", Better: "lower"},
	{Name: "core.score_batch_us", Unit: "us", Better: "lower"},
	{Name: "core.recommend_us", Unit: "us", Better: "lower"},
	{Name: "core.recommend_self_us", Unit: "us", Better: "lower"},
	{Name: "core.recommend_safe_us", Unit: "us", Better: "lower"},
	{Name: "core.recommend_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.recommend_kb_per_op", Unit: "kB", Better: "lower"},
	{Name: "core.tier_necs_share", Unit: "ratio", Better: "higher"},
	{Name: "core.recommend_cold_us", Unit: "us", Better: "lower"},
	{Name: "core.encode_run_us", Unit: "us", Better: "lower"},
	{Name: "core.amu_update_ms", Unit: "ms", Better: "lower"},
	{Name: "retrieval.embed_us", Unit: "us", Better: "lower"},
	{Name: "retrieval.lookup_us", Unit: "us", Better: "lower"},
	{Name: "retrieval.adapt_us", Unit: "us", Better: "lower"},
	{Name: "retrieval.hit_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.recommend_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.recommend_miss_us", Unit: "us", Better: "lower"},
	{Name: "serve.miss_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.feedback_ack_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.batch_coalesced_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.swap_accepted", Unit: "count", Better: "higher"},
	{Name: "serve.swap_rejected_share", Unit: "ratio", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "session.create_us", Unit: "us", Better: "lower"},
	{Name: "session.propose_us", Unit: "us", Better: "lower"},
	{Name: "session.report_us", Unit: "us", Better: "lower"},
	{Name: "fleet.route_overhead_us", Unit: "us", Better: "lower"},
	{Name: "fleet.ring_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "sparksim.simulate_us", Unit: "us", Better: "lower"},
	{Name: "client.roundtrip_hit_us", Unit: "us", Better: "lower"},
	{Name: "client.roundtrip_self_us", Unit: "us", Better: "lower"},
	{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.open_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.gen_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.reader_rps", Unit: "1/s", Better: "higher"},
	{Name: "client.fail_share", Unit: "ratio", Better: "lower"},
	{Name: "process.alloc_kb_per_req", Unit: "kB", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "process.heap_inuse_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// settings sizes one run.
type settings struct {
	seed    int64
	seconds int  // measuring time of an end-to-end run; a traced run takes half
	smoke   bool // fixed 1 s phases instead
	setups  int  // cold set-ups timed; the median is setup_s
	replay  int  // requests replayed per workload in the traced run
}

func fullSettings(seed int64, seconds int) settings {
	return settings{seed: seed, seconds: seconds, setups: 3, replay: 300}
}

// smokeSettings exercises every code path in a few seconds; its numbers
// mean nothing.
func smokeSettings(seed int64) settings {
	return settings{seed: seed, smoke: true, setups: 1, replay: 20}
}

// phasesFor sizes a workload's phases. A traced run needs the end-to-end
// phases only for counter deltas, tails and process figures; half the time
// leaves room for the layer replay.
func (set settings) phasesFor(w *workloadDef, traced bool) phases {
	switch {
	case set.smoke:
		return phases{warm: 300 * time.Millisecond, closed: time.Second, open: time.Second, update: time.Second}
	case traced:
		return w.split((set.seconds + 1) / 2)
	default:
		return w.split(set.seconds)
	}
}

func main() {
	workload := flag.String("workload", "all", "hot_zipf, cold_miss, unseen_app, feedback_swap, or all")
	seed := flag.Int64("seed", 1, "seed for every generated input (key order, draws, arrivals, code mutation, feedback keys); the model is always trained with seed 1")
	seconds := flag.Int("seconds", 20, "measuring time per workload, split between the closed, open and update phases; warm-up and set-up are extra")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and "+outDir+"/trace.jsonl instead of the end-to-end metrics")
	smoke := flag.Bool("smoke", false, "tiny run (1 s phases, one set-up, 20 traced requests) that exercises every code path")
	checkRepeat := flag.Bool("check-repeat", false, "run the end-to-end suite twice on this code and fail if any metric moves by more than its bound")
	flag.Parse()

	set := fullSettings(*seed, *seconds)
	if *smoke {
		set = smokeSettings(*seed)
	}
	var names []string
	if *workload == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if workloadByName(*workload) != nil {
		names = []string{*workload}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	var err error
	ok := true
	switch {
	case *checkRepeat:
		ok, err = runCheckRepeat(names, set)
	default:
		var res *result
		res, err = runOnce(names, set, *trace == 1)
		if err == nil {
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// metricKey names a metric in the result line: BENCHMARK.json's name when
// one workload ran, prefixed "<workload>/" when several did.
func metricKey(names []string, workload, metric string) string {
	if len(names) > 1 {
		return workload + "/" + metric
	}
	return metric
}

// runOnce measures the named workloads once.
func runOnce(names []string, set settings, traced bool) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]value{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}

	var m *model
	var setupS float64
	var ly *layers
	if traced {
		m = trainModel()
		var err error
		if ly, err = runLayers(m, set.seed, set.replay, filepath.Join(outDir, "trace.jsonl")); err != nil {
			return nil, err
		}
		for _, line := range ly.reconcileLines {
			fmt.Println(line)
		}
		res.Attempted, res.Failed = ly.attempted, ly.failed
		if ly.firstErr != nil {
			fmt.Fprintln(os.Stderr, "benchmark: first traced failure:", ly.firstErr)
		}
		if !ly.reconciled {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "benchmark: span reconciliation outside tolerance")
		}
	} else {
		var took []float64
		for i := 0; i < set.setups; i++ {
			mi, d, err := coldSetup()
			if err != nil {
				return nil, err
			}
			m = mi
			took = append(took, d.Seconds())
		}
		setupS = median(took)
		fmt.Printf("set-up: median of %d cold set-ups %.3f s %v\n", set.setups, setupS, took)
	}

	for _, name := range names {
		w := workloadByName(name)
		ph := set.phasesFor(w, traced)
		e, err := runE2E(w, m, set.seed, ph, traced)
		if err != nil {
			return nil, err
		}
		res.Attempted += e.attempted
		res.Failed += e.failed
		if e.firstErr != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: first failure: %v\n", name, e.firstErr)
		}
		var vals map[string]float64
		if traced {
			vals = layerMetrics(e, ly)
		} else {
			vals = endToEndMetrics(e, setupS)
		}
		fmt.Printf("%s (seed %d, %d clients, closed %v, open %v at %g/s, update %v; %d closed samples, %d open, %d updates: %d accepted, %d rejected)\n",
			name, set.seed, numClients(), ph.closed, ph.open, w.openRate, ph.update,
			len(e.latencies), len(e.openLat), len(e.updates), e.accepted, e.rejected)
		fmt.Printf("  sweep: %d of %d served configurations ran to completion on the simulator\n", len(e.speedups), e.swept)
		if v, pct, ok := tail(e.latencies); ok {
			fmt.Printf("  closed-loop tail: p%.2f = %.4f ms over %d samples\n", pct, v, len(e.latencies))
		}
		for _, d := range defs {
			v, ok := vals[d.Name]
			if !ok {
				return nil, fmt.Errorf("%s: metric %s was not measured", name, d.Name)
			}
			res.Metrics[metricKey(names, name, d.Name)] = value{Value: v, Unit: d.Unit}
			fmt.Printf("  %-30s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	res.Correct = res.Correct && res.Failed == 0
	return res, nil
}

func endToEndMetrics(e *e2e, setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":             setupS,
		"throughput_rps":      e.throughputRPS,
		"latency_p50_ms":      median(e.latencies),
		"open_latency_p50_ms": median(e.openLat),
		"cpu_ms_per_req":      e.cpuMsPerReq,
		"rec_speedup_geomean": geomean(e.speedups),
		"rec_ok_share":        share(float64(len(e.speedups)), float64(e.swept)),
		"update_p50_ms":       median(e.updates),
	}
}

// tailOrMax is the supported tail percentile, or the maximum when there
// are too few samples for one.
func tailOrMax(xs []float64) float64 {
	if v, _, ok := tail(xs); ok {
		return v
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)-1]
}

func layerMetrics(e *e2e, ly *layers) map[string]float64 {
	hot, miss, cold, fb := ly.medians["hot_zipf"], ly.medians["cold_miss"], ly.medians["unseen_app"], ly.medians["feedback_swap"]
	c := e.closed
	return map[string]float64{
		"tensor.gemm_l1_us":            ly.gemmL1Us,
		"tensor.gemm_macs_per_s":       ly.gemmMACsPerSec,
		"nn.infer_batch_us":            miss["nn.infer_batch"],
		"nn.cnn_infer_us":              ly.cnnInferUs,
		"nn.gcn_infer_us":              ly.gcnInferUs,
		"core.acg_sample_us":           miss["core.acg_sample"],
		"core.scorer_build_us":         miss["core.scorer_build"],
		"core.score_batch_us":          miss["core.score_batch"],
		"core.recommend_us":            miss["core.recommend"],
		"core.recommend_self_us":       miss["core.recommend_safe"] - miss["core.acg_sample"] - miss["core.scorer_build"] - miss["core.score_batch"],
		"core.recommend_safe_us":       miss["core.recommend_safe"],
		"core.recommend_allocs_per_op": ly.recommendAllocs,
		"core.recommend_kb_per_op":     ly.recommendKB,
		"core.tier_necs_share":         share(float64(c.necs), float64(c.necs+c.otherTiers)),
		"core.recommend_cold_us":       cold["core.recommend_cold"],
		"core.encode_run_us":           fb["core.encode_run"],
		"core.amu_update_ms":           fb["core.amu_update"] / 1e3,
		"retrieval.embed_us":           cold["retrieval.embed"],
		"retrieval.lookup_us":          cold["retrieval.lookup"],
		"retrieval.adapt_us":           cold["retrieval.adapt"],
		"retrieval.hit_share":          ly.retrievalHitShare,
		"serve.recommend_hit_us":       hot["serve.recommend"],
		"serve.recommend_miss_us":      miss["serve.recommend"],
		"serve.miss_self_us":           miss["serve.recommend"] - miss["core.recommend_safe"],
		"serve.handler_hit_us":         hot["serve.handler"],
		"serve.handler_self_us":        hot["serve.handler"] - hot["serve.recommend"],
		"serve.feedback_ack_us":        fb["serve.feedback_ack"],
		"serve.cache_hit_share":        share(float64(c.hits), float64(c.hits+c.misses)),
		"serve.batch_size_mean":        share(c.batchSum, float64(c.batches)),
		"serve.batch_coalesced_share":  share(float64(c.coalesced), c.batchSum),
		"serve.shed_share":             share(float64(c.shed), float64(e.closedOK)+float64(c.shed)),
		"serve.swap_accepted":          float64(e.accepted),
		"serve.swap_rejected_share":    share(float64(e.rejected), float64(e.accepted+e.rejected)),
		"wal.append_us":                fb["wal.append"],
		"wal.append_sync_us":           ly.walAppendSyncUs,
		"session.create_us":            ly.sessCreateUs,
		"session.propose_us":           ly.sessProposeUs,
		"session.report_us":            ly.sessReportUs,
		"fleet.route_overhead_us":      ly.routeOverheadUs,
		"fleet.ring_lookup_ns":         ly.ringLookupNs,
		"sparksim.simulate_us":         fb["sparksim.simulate"],
		"client.roundtrip_hit_us":      hot["client.roundtrip"],
		"client.roundtrip_self_us":     hot["client.roundtrip"] - hot["serve.handler"],
		"client.latency_p99_ms":        tailOrMax(e.latencies),
		"client.open_latency_p99_ms":   tailOrMax(e.openLat),
		"client.gen_lag_p99_ms":        tailOrMax(e.openLag),
		"client.reader_rps":            e.readerRPS,
		"client.fail_share":            share(float64(e.failed), float64(e.attempted)),
		"process.alloc_kb_per_req":     e.allocKBPerReq,
		"process.gc_pause_ms":          e.gcPauseMs,
		"process.heap_inuse_mb":        e.heapInuseMB,
		"trace.overhead_share":         ly.overheadShare,
	}
}

// runCheckRepeat runs the end-to-end suite twice on the same code and
// compares every metric of every workload against its bound.
func runCheckRepeat(names []string, set settings) (bool, error) {
	var runs [2]*result
	for i := range runs {
		fmt.Printf("== check-repeat: run %d of 2 ==\n", i+1)
		r, err := runOnce(names, set, false)
		if err != nil {
			return false, err
		}
		runs[i] = r
	}
	fmt.Printf("\n== check-repeat: %s ==\n", environment(set.seed))
	fmt.Printf("%-15s %-22s %14s %14s %8s %6s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	ok := runs[0].Correct && runs[1].Correct
	for _, name := range names {
		for _, d := range endToEnd {
			key := metricKey(names, name, d.Name)
			a, b := runs[0].Metrics[key].Value, runs[1].Metrics[key].Value
			// diff is how much worse the second run is than the first, as a
			// share of the first: the quantity a later change is judged by.
			diff := (b - a) / a
			if d.Better == "higher" {
				diff = -diff
			}
			verdict := ""
			if diff > d.Bound || -diff > d.Bound {
				verdict = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("%-15s %-22s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n", name, d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	if !ok {
		fmt.Println("check-repeat: FAILED (a metric moved by more than its bound between two runs of the same code, or an answer was wrong)")
	} else {
		fmt.Println("check-repeat: ok")
	}
	return ok, nil
}

// environment describes where the numbers were taken.
func environment(seed int64) string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, seed)
}
