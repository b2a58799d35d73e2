package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lite/internal/serve"
	"lite/internal/sparksim"
	"lite/pkg/api"
)

// phases is how one run's measuring time is spent. Warm-up is extra.
type phases struct {
	warm, closed, open, update time.Duration
}

// split divides the measuring time between the workload's phases. The
// one-second warm-up is enough for the 450-key cache to fill (under half a
// second at two misses per batch window) and for connections and arenas to
// exist.
func (w *workloadDef) split(seconds int) phases {
	total := time.Duration(seconds) * time.Second
	p := phases{
		warm:   time.Second,
		open:   time.Duration(w.openShare * float64(total)),
		update: time.Duration(w.updateShare * float64(total)),
	}
	p.closed = total - p.open - p.update
	return p
}

// tally is what one client goroutine observed. Only its owner writes it.
type tally struct {
	lat       []time.Duration // client-observed latency of each correct 200
	done      []time.Duration // its completion time, as an offset from the phase start
	attempted int
	failed    int
	firstErr  error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) mergeAll(os []tally) {
	for i := range os {
		t.merge(&os[i])
	}
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.done = append(t.done, o.done...)
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// closedLoop sends the stream's requests back to back until the deadline:
// the next request leaves only when the previous answer has been checked.
func closedLoop(tg *target, st stream, ck *checker, start time.Time, d time.Duration, out *tally) {
	ctx := context.Background()
	for time.Since(start) < d {
		req, _ := st.next()
		t0 := time.Now()
		resp, err := tg.cl.Recommend(ctx, req)
		t1 := time.Now()
		out.attempted++
		if err == nil {
			_, err = ck.check(req, resp)
		}
		if err != nil {
			out.fail(err)
			continue
		}
		out.lat = append(out.lat, t1.Sub(t0))
		out.done = append(out.done, t1.Sub(start))
	}
}

// An answer is what came back for one scheduled request.
type answer struct {
	arrival
	cfg sparksim.Config
	ok  bool // a correct 200
}

// sendAll sends reqs[i] at start+due[i] whether or not earlier answers have
// arrived, from at most `workers` connections: an open loop. When every
// worker is still waiting for an answer at a due time, the request leaves
// late and the wait is charged to its latency. A nil due sends everything
// as fast as the workers can.
func sendAll(tg *target, reqs []api.RecommendRequest, due []time.Duration, workers int, newChecker func() *checker) ([]answer, *tally) {
	ctx := context.Background()
	answers := make([]answer, len(reqs))
	tallies := make([]tally, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(out *tally) {
			defer wg.Done()
			ck := newChecker()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				a := &answers[i]
				if due != nil {
					a.due = due[i]
					waitUntil(start, a.due)
				}
				a.sent = time.Since(start)
				resp, err := tg.cl.Recommend(ctx, reqs[i])
				a.done = time.Since(start)
				out.attempted++
				if err == nil {
					a.cfg, err = ck.check(reqs[i], resp)
				}
				if err != nil {
					out.fail(err)
					continue
				}
				a.ok = true
			}
		}(&tallies[w])
	}
	wg.Wait()
	total := &tally{}
	total.mergeAll(tallies)
	return answers, total
}

// waitUntil returns at start+due. Sleeping alone overshoots by the
// kernel's timer slack (about half a millisecond on the reference box,
// several times the hot path's latency), so the last stretch is spun,
// yielding the processor to the server on every turn.
func waitUntil(start time.Time, due time.Duration) {
	const spin = 2 * time.Millisecond
	for {
		wait := due - time.Since(start)
		switch {
		case wait <= 0:
			return
		case wait > spin:
			time.Sleep(wait - spin)
		default:
			runtime.Gosched()
		}
	}
}

// verdicts counts retrain outcomes, accepted or rejected.
func verdicts(s *serve.Server) uint64 {
	return s.Metrics().Counter("lite_hotswap_accepted_total").Value() +
		s.Metrics().Counter("lite_hotswap_rejected_total").Value()
}

// feedbackBatch is serve.Options.UpdateBatch: the eighth feedback triggers
// a retrain.
const feedbackBatch = 8

// writer loops {8 × (recommend a key, post the served config back as
// feedback)}, then waits for the retrain verdict, until stop closes. Each
// completed wait is one update-latency sample: from the ack of the eighth
// feedback to the verdict becoming visible.
func writer(tg *target, keys stream, stop <-chan struct{}, out *tally, completed *atomic.Int64) (updates []time.Duration) {
	ctx := context.Background()
	ck := &checker{}
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	for {
		base := verdicts(tg.srv)
		for i := 0; i < feedbackBatch; i++ {
			if stopped() {
				return updates
			}
			req, _ := keys.next()
			resp, err := tg.cl.Recommend(ctx, req)
			out.attempted++
			if err == nil {
				_, err = ck.check(req, resp)
			}
			if err != nil {
				out.fail(err)
				i-- // the batch still needs eight feedbacks
				continue
			}
			ack, err := tg.cl.Feedback(ctx, api.FeedbackRequest{App: req.App, SizeMB: req.SizeMB, Cluster: req.Cluster, Config: resp.Config})
			out.attempted++
			if err == nil && !ack.Queued {
				err = fmt.Errorf("feedback acknowledged but not queued")
			}
			if err != nil {
				out.fail(err)
				i--
			}
		}
		acked := time.Now()
		for verdicts(tg.srv) == base {
			if stopped() {
				return updates
			}
			time.Sleep(500 * time.Microsecond)
		}
		updates = append(updates, time.Since(acked))
		completed.Add(1)
	}
}

// counters is the slice of the server's registry the per-layer shares are
// computed from, read at phase boundaries.
type counters struct {
	hits, misses, batches, coalesced, shed, accepted, rejected uint64
	batchSum                                                   float64
	necs, otherTiers                                           uint64
}

// since is c − before, field by field.
func (c counters) since(before counters) counters {
	return counters{
		hits: c.hits - before.hits, misses: c.misses - before.misses,
		batches: c.batches - before.batches, batchSum: c.batchSum - before.batchSum,
		coalesced: c.coalesced - before.coalesced, shed: c.shed - before.shed,
		accepted: c.accepted - before.accepted, rejected: c.rejected - before.rejected,
		necs: c.necs - before.necs, otherTiers: c.otherTiers - before.otherTiers,
	}
}

func readCounters(s *serve.Server) counters {
	r := s.Metrics()
	c := func(name string) uint64 { return r.Counter(name).Value() }
	tier := func(family, t string) uint64 { return c(family + `{tier="` + t + `"}`) }
	sizes := r.Histogram("lite_batch_size", nil)
	return counters{
		hits: c("lite_cache_hits_total"), misses: c("lite_cache_misses_total"),
		batches: sizes.Count(), batchSum: sizes.Sum(), coalesced: c("lite_batched_coalesced_total"),
		shed:     c("lite_requests_shed_total"),
		accepted: c("lite_hotswap_accepted_total"), rejected: c("lite_hotswap_rejected_total"),
		necs: tier("lite_recommendations_total", "necs"),
		otherTiers: tier("lite_recommendations_total", "retrieval") + tier("lite_recommendations_total", "acg-region") +
			tier("lite_recommendations_total", "safe-default"),
	}
}

// share is num ÷ den, 0 when nothing was counted.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// e2e is everything one end-to-end run of one workload measured.
type e2e struct {
	attempted, failed int
	firstErr          error

	// closed phase, readers only
	throughputRPS float64
	latencies     []float64 // ms
	cpuMsPerReq   float64
	allocKBPerReq float64
	gcPauseMs     float64
	heapInuseMB   float64
	closed        counters // deltas over the closed phase
	closedOK      int

	// open phase
	openLat []float64 // ms from due time
	openLag []float64 // ms the generator ran late

	// sweep: of swept answers executed on the simulator, those that ran to
	// completion, as default seconds ÷ served seconds
	swept    int
	speedups []float64

	// update phase
	readerRPS float64   // client 0's rate beside the writer
	updates   []float64 // ms
	accepted  uint64
	rejected  uint64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runE2E drives one workload against a fresh server:
//
//	sweep → warm-up → closed loop → open loop → update
//
// The writer runs only in the update phase, where it takes one of the
// numClients connections, so load never exceeds one client per core.
//
// defaultGate keeps the hot-swap validation gate at liteserve's slacks.
// The gated end-to-end run opens them wide instead, so the gate still
// scores every candidate and still refuses a non-finite one but accepts
// the rest: an accepted swap persists a snapshot and flushes the cache, a
// rejected one does neither and is ≈100 ms (a fifth) quicker, and with the
// default slacks the share accepted swings between 5 % and 95 % from run to
// run, taking the median update latency with it. The traced run keeps the
// defaults and reports what the gate really does (serve.swap_rejected_share).
func runE2E(w *workloadDef, m *model, seed int64, ph phases, defaultGate bool) (*e2e, error) {
	tg, err := boot(m, w.name, func(o *serve.Options) {
		o.DisableCache = w.noCache
		if !defaultGate {
			o.Validation.NDCGSlack = 1    // NDCG lies in [0, 1]
			o.Validation.RegretSlack = 10 // serve caps regret at 10
		}
	})
	if err != nil {
		return nil, err
	}
	res, runErr := drive(w, tg, seed, ph)
	if err := tg.close(); err != nil && runErr == nil {
		runErr = err
	}
	return res, runErr
}

func drive(w *workloadDef, tg *target, seed int64, ph phases) (*e2e, error) {
	keys := keyspace(seed)
	clients := numClients()
	streams := make([]stream, clients)
	checkers := make([]*checker, clients)
	for c := range streams {
		streams[c] = w.reader(seed, keys, c)
		checkers[c] = w.newChecker()
	}
	res := &e2e{}
	total := &tally{}

	// readers runs `n` closed-loop clients for d and returns their tallies.
	readers := func(n int, d time.Duration) []tally {
		out := make([]tally, n)
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				closedLoop(tg, streams[c], checkers[c], start, d, &out[c])
			}(c)
		}
		wg.Wait()
		return out
	}

	// Sweep: one answer per key of the workload's keyspace, kept for the
	// simulator below. It comes first because it is also what fills the
	// cache: Zipf's tail otherwise keeps missing for many seconds, each miss
	// parks a client for a batch window, and closed-loop throughput creeps up
	// by a third over the first five seconds — differently for every seed.
	served, sweepTally := sendAll(tg, w.sweep(seed, keys), nil, clients, w.newChecker)
	total.merge(sweepTally)

	// Warm-up: connections open, arenas and the runtime settle.
	total.mergeAll(readers(clients, ph.warm))

	// Closed loop.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := readCounters(tg.srv)
	cpu0 := cpuTime()
	tallies := readers(clients, ph.closed)
	cpu1 := cpuTime()
	c1 := readCounters(tg.srv)
	runtime.ReadMemStats(&m1)
	closed := &tally{}
	closed.mergeAll(tallies)
	total.merge(closed)
	res.closedOK = len(closed.lat)
	res.throughputRPS = windowMedianRate(closed.done, ph.closed)
	for _, l := range closed.lat {
		res.latencies = append(res.latencies, ms(l))
	}
	if n := float64(len(closed.lat)); n > 0 {
		res.cpuMsPerReq = ms(cpu1-cpu0) / n
		res.allocKBPerReq = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n
	}
	res.gcPauseMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	res.closed = c1.since(c0)

	// Open loop, from its own stream so the closed clients' streams do not
	// depend on the open phase's length.
	due := poissonSchedule(subRNG(seed, w.name+"/arrivals"), w.openRate, ph.open)
	openStream := w.reader(seed, keys, -1)
	openReqs := make([]api.RecommendRequest, len(due))
	for i := range openReqs {
		openReqs[i], _ = openStream.next()
	}
	arrivals, openTally := sendAll(tg, openReqs, due, clients, w.newChecker)
	total.merge(openTally)
	for _, a := range arrivals {
		if a.ok {
			res.openLat = append(res.openLat, ms(a.latency()))
			res.openLag = append(res.openLag, ms(a.lag()))
		}
	}

	// Update phase: the writer takes one connection, the workload's readers
	// keep the others busy, so the update competes with this workload's
	// traffic for the CPU.
	var (
		stopWriter  = make(chan struct{})
		writerDone  = make(chan struct{})
		writerTal   tally
		updates     []time.Duration
		updatesDone atomic.Int64 // len(updates), readable while the writer runs
	)
	go func() {
		defer close(writerDone)
		updates = writer(tg, feedbackKeys(seed, keys), stopWriter, &writerTal, &updatesDone)
	}()
	// A phase shorter than one update (a smoke run) is extended until the
	// first verdict, so update_p50_ms always has a sample.
	beside := &tally{}
	besideStart := time.Now()
	for d, waited := ph.update, time.Duration(0); ; d = 250 * time.Millisecond {
		ts := readers(clients-1, d)
		total.mergeAll(ts)
		beside.merge(&ts[0])
		if waited += d; updatesDone.Load() > 0 || waited > 30*time.Second {
			break
		}
	}
	res.readerRPS = float64(len(beside.lat)) / time.Since(besideStart).Seconds()
	close(stopWriter)
	<-writerDone
	total.merge(&writerTal)
	for _, u := range updates {
		res.updates = append(res.updates, ms(u))
	}
	swaps := readCounters(tg.srv).since(c1)
	res.accepted, res.rejected = swaps.accepted, swaps.rejected

	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.heapInuseMB = float64(m1.HeapInuse) / (1 << 20)

	// Execute every swept answer on the simulator, off the clock.
	for i, a := range served {
		if !a.ok {
			continue // already counted as a failed request
		}
		s, failed, err := speedup(keys[i], a.cfg)
		if err != nil {
			total.fail(err)
			continue
		}
		res.swept++
		if !failed {
			res.speedups = append(res.speedups, s)
		}
	}

	res.attempted, res.failed, res.firstErr = total.attempted, total.failed, total.firstErr
	switch {
	case len(res.latencies) == 0 || len(res.openLat) == 0 || len(res.speedups) == 0:
		return res, fmt.Errorf("%s: a phase produced no correct answers (first error: %v)", w.name, res.firstErr)
	case len(res.updates) == 0:
		return res, fmt.Errorf("%s: no retrain verdict arrived within the update phase (%v)", w.name, ph.update)
	}
	return res, nil
}
