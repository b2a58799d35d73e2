// Package serve turns the LITE tuner into a long-running, concurrent
// recommendation service (the deployment shape the paper's online phase
// assumes: recommendations are served continuously while execution
// feedback flows back into the model).
//
// Architecture:
//
//   - An immutable model *snapshot* (tuner + generation) is published
//     through an atomic pointer. Readers load the pointer once per request
//     and never block on training.
//   - A background *adaptive-update loop* consumes a feedback queue,
//     retrains a clone of the current model off the hot path
//     (core.Tuner.CloneForUpdate + AdaptiveModelUpdate) and hot-swaps the
//     snapshot atomically.
//   - A TTL *recommendation cache* with singleflight deduplication absorbs
//     repeated-key traffic; a stampede on one (app, datasize bucket, env)
//     key computes once, and a miss goes straight to the model.
//
// The HTTP/JSON API lives in http.go; cmd/liteserve runs it and
// cmd/liteload benchmarks it.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lite/internal/core"
	"lite/internal/metrics"
	"lite/internal/retrieval"
	"lite/internal/session"
	"lite/internal/sparksim"
	"lite/internal/wal"
	"lite/internal/workload"
	"lite/pkg/api"
)

// Options configures the server. The zero value enables the cache with
// the defaults below.
type Options struct {
	// CacheTTL bounds how long a recommendation is served from cache
	// (default 30s). The cache is also flushed on every model hot-swap.
	CacheTTL time.Duration
	// DisableCache stops the cache from storing answers: every request
	// goes to the model, except that concurrent requests for one key still
	// share a single computation.
	DisableCache bool

	// Deprecated: BatchMax and BatchWindow configured the micro-batcher,
	// which no longer exists; both are ignored. They remain only until the
	// benchmark harness stops setting them.
	BatchMax    int
	BatchWindow time.Duration

	// MaxInFlight bounds how many recommendation requests may be inside
	// the serving pipeline at once. Excess load is shed immediately with
	// ErrOverloaded (HTTP 503 + Retry-After) instead of queueing without
	// bound — under overload, fail fast beats pile up. 0 disables the
	// limiter.
	MaxInFlight int

	// RequestTimeout caps how long one HTTP request may spend in the
	// pipeline: the handler derives a deadline from it, and every stage
	// (cache wait, candidate scoring) observes the cancellation. 0 means no
	// server-imposed deadline (the client's context still applies).
	RequestTimeout time.Duration

	// UpdateBatch is how many feedback runs trigger one adaptive model
	// update (default 8).
	UpdateBatch int

	// SourceSample is a sample of source-domain (offline training)
	// instances mixed into every adaptive update so the model does not
	// drift off the training distribution. Optional.
	SourceSample []*core.Encoded

	// SnapshotPath, when set, persists every published snapshot's tuner
	// there (wal.WriteFileAtomic), so a restarted server can reload the
	// adapted model with core.LoadTuner. A failed persist is retried up to
	// three times with exponential backoff, and the seconds since the last
	// successful persist are exported as the lite_snapshot_age_seconds
	// gauge.
	SnapshotPath string

	// WALDir, when set, enables the feedback write-ahead log: accepted
	// /feedback is appended (length+CRC32-framed) before it is enqueued,
	// fsynced every WALSyncEvery appends and every WALSyncInterval, and
	// replayed into the update loop on the next Start after a crash.
	// Records fold out of the log once the snapshot absorbing them is
	// durable, so WALDir is designed to be paired with SnapshotPath.
	// Rejected feedback batches are appended to <WALDir>/quarantine.jsonl
	// (else <SnapshotPath>.quarantine.jsonl; no quarantine without either).
	WALDir          string
	WALSyncEvery    int           // default 8 appends per fsync; 1 = sync every ack
	WALSyncInterval time.Duration // default 50ms; <0 disables the interval syncer

	// FS is the filesystem every durable file goes through: the feedback
	// WAL, the session store, the model snapshot and the quarantine sidecar
	// (fault-injection tests). Default wal.OSFS.
	FS wal.FS

	// Validation configures the hot-swap gate (see ValidationOptions): a
	// retrained candidate that regresses held-out ranking quality is
	// rejected, its feedback batch quarantined, and retrains back off. The
	// zero value disables the gate; cmd/liteserve enables it by default.
	Validation ValidationOptions

	// RetrainBackoffMin/Max bound the exponential backoff applied after a
	// rejected hot-swap and after an update-loop panic restart (defaults
	// 1s and 5m).
	RetrainBackoffMin time.Duration
	RetrainBackoffMax time.Duration

	// SessionDir persists tuning sessions (/v1/tuning/sessions) through
	// their own WAL + snapshot in that directory, so open sessions survive
	// a crash-restart. Default: <WALDir>/sessions when WALDir is set, else
	// sessions are in-memory only.
	SessionDir string

	// Follower runs the server as a fleet follower (DESIGN.md §10): the
	// adaptive-update loop is not started, feedback posted straight to it
	// is WAL-logged (when WALDir is set) and acknowledged but never queued
	// (a fleet router sends feedback to the trainer), session promotions
	// are only echoed, and the model only advances when a fleet coordinator
	// flips it via FlipTo / POST /admin/flip. Follower implies EnableAdmin.
	Follower bool

	// EnableAdmin registers the /admin/flip endpoint (fleet-coordinated
	// hot-swap). Off by default: a standalone liteserve should not expose a
	// "replace my model with this file" surface.
	EnableAdmin bool

	// ChaosCorruptEveryN and ChaosPanicEveryN are chaos-engineering
	// failpoints (0 = off, the production setting): every Nth retrain
	// attempt respectively poisons the candidate's weights with NaNs
	// (exercising the validation gate's rejection path) or panics inside
	// the update loop (exercising the supervisor's restart path). The
	// chaos harness (scripts/chaos_smoke.sh, recovery tests) drives both.
	ChaosCorruptEveryN int
	ChaosPanicEveryN   int

	// Retrieval is the zero-execution cold-start store shared by every
	// tuner generation this server publishes (boot, retrain clones, FlipTo
	// adoptions). When nil, the boot tuner's own store (if any) is adopted;
	// when both are nil the retrieval tier is disabled and unseen-app
	// requests degrade to the safe default. The store also grows online:
	// every successfully absorbed feedback run is folded in.
	Retrieval *retrieval.Store

	// Seed drives the retrain RNG chain; each update uses Seed+generation.
	Seed int64

	// Now overrides the clock (tests). Defaults to time.Now.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.CacheTTL <= 0 {
		o.CacheTTL = 30 * time.Second
	}
	if o.UpdateBatch <= 0 {
		o.UpdateBatch = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Follower {
		o.EnableAdmin = true
	}
	if o.FS == nil {
		o.FS = wal.OSFS{}
	}
	if o.RetrainBackoffMin <= 0 {
		o.RetrainBackoffMin = time.Second
	}
	if o.RetrainBackoffMax <= 0 {
		o.RetrainBackoffMax = 5 * time.Minute
	}
	return o
}

// Snapshot is one immutable published model generation. The Tuner inside a
// snapshot is never mutated after publication — updates clone, retrain and
// swap — so any number of readers may use it without coordination beyond
// loading the pointer.
type Snapshot struct {
	Tuner *core.Tuner
	// Gen counts hot-swaps since boot (the offline model is generation 0).
	Gen uint64
	// CreatedAt is when this generation was published.
	CreatedAt time.Time
	// Feedbacks is the cumulative number of feedback runs folded into the
	// model across all generations.
	Feedbacks int
}

// Server is the concurrent LITE recommendation service. All exported
// methods are safe for concurrent use; the hot path (Recommend) reads an
// immutable snapshot and never blocks on training.
type Server struct {
	opts Options
	snap atomic.Pointer[Snapshot]
	// publishMu serializes snapshot publication (the update loop's retrain
	// and an admin-initiated FlipTo can otherwise interleave and regress the
	// generation); readers never take it — they load the atomic pointer.
	publishMu sync.Mutex
	cache     *ttlCache
	reg       *metrics.Registry
	ctr       requestCounters
	// inflight is the admission-control semaphore (nil when
	// Options.MaxInFlight is 0): a slot is held for a request's whole stay
	// in the pipeline, and a request that cannot get one immediately is
	// shed with ErrOverloaded.
	inflight chan struct{}

	feedbackCh chan feedbackItem
	stopOnce   sync.Once
	stopCh     chan struct{}
	wg         sync.WaitGroup
	started    atomic.Bool

	// Durability and self-healing state (DESIGN.md §9). wal and recovered
	// are set by Start; validator is nil when the gate is disabled. The
	// liveVal/backoff/retrain fields below are owned by the update-loop
	// goroutine chain (superviseUpdateLoop runs its restarts sequentially),
	// so they need no lock.
	wal       *wal.WAL
	recovered []feedbackItem
	validator *validator

	liveVal          valScore
	liveValGen       uint64
	liveValSet       bool
	retrainAttempts  uint64
	retrainFailures  int
	backoffUntil     time.Time
	lastPersistNanos atomic.Int64
	walErrOnce       sync.Once

	// sessions is the tuning-session store (sessions.go), set by Start.
	sessions sessionsPtr

	// retrieval is the cold-start store every published tuner shares; nil
	// disables the retrieval tier. The store is internally synchronized, so
	// the hot path reads it lock-free while feedback absorption grows it.
	retrieval *retrieval.Store
}

// requestCounters are the series every recommendation touches, resolved
// once in New so the hot path does no registry lookup.
type requestCounters struct {
	cacheHits, cacheMisses *metrics.Counter
	recsByTier, coldByTier map[core.Tier]*metrics.Counter
}

func newRequestCounters(reg *metrics.Registry) requestCounters {
	c := requestCounters{
		cacheHits:   reg.Counter("lite_cache_hits_total"),
		cacheMisses: reg.Counter("lite_cache_misses_total"),
		recsByTier:  map[core.Tier]*metrics.Counter{},
		coldByTier:  map[core.Tier]*metrics.Counter{},
	}
	for _, t := range []core.Tier{core.TierNECS, core.TierRetrieval, core.TierACGRegion, core.TierSafeDefault} {
		c.recsByTier[t] = reg.Counter(`lite_recommendations_total{tier="` + string(t) + `"}`)
	}
	// An unseen app has no NECS or ACG tier.
	for _, t := range []core.Tier{core.TierRetrieval, core.TierSafeDefault} {
		c.coldByTier[t] = reg.Counter(`lite_cold_requests_total{tier="` + string(t) + `"}`)
	}
	return c
}

// feedbackQueueLen bounds the pending-feedback queue: a full queue rejects
// new feedback (ErrQueueFull) rather than block the handler.
const feedbackQueueLen = 256

type feedbackItem struct {
	app *workload.App
	req api.FeedbackRequest
	cfg sparksim.Config
	env sparksim.Environment
	// seq is the WAL sequence number (0 when the WAL is off or the append
	// failed); the update loop folds the log up to the batch's max seq.
	seq uint64
}

// New builds a server around an offline-trained tuner (generation 0).
// Call Start to launch the adaptive-update loop, and Shutdown to stop.
// The returned server's exported methods are all safe for concurrent use.
func New(tuner *core.Tuner, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:       opts,
		reg:        metrics.NewRegistry(),
		feedbackCh: make(chan feedbackItem, feedbackQueueLen),
		stopCh:     make(chan struct{}),
	}
	s.ctr = newRequestCounters(s.reg)
	// One retrieval store serves every generation: prefer the injected one,
	// else adopt whatever the boot tuner carries, and reattach on every
	// publish (retrain clones share the pointer; FlipTo reattaches after
	// loading, since snapshots do not serialize the store).
	s.retrieval = opts.Retrieval
	if s.retrieval == nil {
		s.retrieval = tuner.Retrieval
	}
	tuner.Retrieval = s.retrieval
	if s.retrieval != nil {
		s.reg.GaugeFunc("lite_retrieval_entries", func() float64 {
			return float64(s.retrieval.Len())
		})
	}
	s.snap.Store(&Snapshot{Tuner: tuner, Gen: 0, CreatedAt: opts.Now()})
	ttl := opts.CacheTTL
	if opts.DisableCache {
		ttl = 0 // store nothing; the cache is then only the singleflight
	}
	s.cache = newTTLCache(ttl, opts.Now)
	if opts.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInFlight)
	}
	s.reg.Gauge("lite_snapshot_generation").Set(0)
	s.reg.GaugeFunc("lite_inflight", func() float64 {
		return float64(len(s.inflight))
	})
	// Scoring-pool depth and utilization, evaluated at scrape time.
	s.reg.GaugeFunc("lite_score_pool_workers", func() float64 {
		return float64(core.ScorePoolStats().Workers)
	})
	s.reg.GaugeFunc("lite_score_pool_busy", func() float64 {
		return float64(core.ScorePoolStats().Busy)
	})
	s.reg.GaugeFunc("lite_score_pool_utilization", func() float64 {
		return core.ScorePoolStats().Utilization
	})
	s.reg.GaugeFunc("lite_score_pool_items_total", func() float64 {
		return float64(core.ScorePoolStats().Items)
	})
	// Stage-representation table (DESIGN.md §12.6) of the live
	// generation's Encoder, which every retrained generation shares: the
	// series carry on across a hot swap and restart only when a flip
	// loads a snapshot with an Encoder of its own. Entries count the live
	// model's encoder setting.
	repStat := func(name string, read func(*core.NECS) float64) {
		s.reg.GaugeFunc(name, func() float64 {
			if m := s.snap.Load().Tuner.Model; m != nil {
				return read(m)
			}
			return 0
		})
	}
	repStat("lite_stage_rep_cache_hits_total", func(m *core.NECS) float64 {
		hits, _ := m.StageRepStats()
		return float64(hits)
	})
	repStat("lite_stage_rep_cache_misses_total", func(m *core.NECS) float64 {
		_, misses := m.StageRepStats()
		return float64(misses)
	})
	repStat("lite_stage_rep_cache_entries", func(m *core.NECS) float64 {
		return float64(m.StageRepEntries())
	})
	return s
}

// Metrics returns the server's metrics registry. Safe for concurrent use.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Snapshot returns the currently published model snapshot; the returned
// value is immutable and safe to read from any goroutine.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Start launches the background adaptive-update loop.
// When Options.WALDir is set it first recovers the feedback WAL — torn and
// corrupt tails are skipped and counted, unfolded records are queued for
// replay ahead of new traffic (a follower only counts them) — and when
// Options.Validation.Enable is set it freezes the held-out validation set
// the hot-swap gate scores against.
// A non-nil error means the durability layer could not be brought up; the
// server has not started.
func (s *Server) Start() error {
	if s.started.Swap(true) {
		return nil
	}
	if s.opts.WALDir != "" {
		w, recs, stats, err := wal.Open(wal.Options{
			Dir:          s.opts.WALDir,
			SyncEvery:    s.opts.WALSyncEvery,
			SyncInterval: s.opts.WALSyncInterval,
			FS:           s.opts.FS,
		})
		if err != nil {
			s.started.Store(false)
			return fmt.Errorf("serve: opening feedback WAL: %w", err)
		}
		s.wal = w
		s.reg.Counter("lite_wal_corrupt_records_total").Add(uint64(stats.CorruptTails))
		s.reg.Counter("lite_wal_recovered_records_total").Add(uint64(stats.Recovered))
		// A follower never retrains, so it keeps none of them: the records
		// stay unfolded on disk, where the fleet trainer owns them.
		if !s.opts.Follower {
			s.recovered = s.replayable(recs)
		}
		s.reg.GaugeFunc("lite_wal_last_seq", func() float64 { return float64(s.wal.Stats().LastSeq) })
		s.reg.GaugeFunc("lite_wal_synced_seq", func() float64 { return float64(s.wal.Stats().SyncedSeq) })
		s.reg.GaugeFunc("lite_wal_folded_seq", func() float64 { return float64(s.wal.Stats().Folded) })
		s.reg.GaugeFunc("lite_wal_segments", func() float64 { return float64(s.wal.Stats().Segments) })
		s.reg.GaugeFunc("lite_wal_fsyncs", func() float64 { return float64(s.wal.Stats().Fsyncs) })
	}
	if s.opts.Validation.Enable {
		s.validator = newValidator(s.snap.Load().Tuner, s.opts.Validation.withDefaults(), s.opts.Seed+101)
	}
	if s.opts.SnapshotPath != "" {
		s.reg.GaugeFunc("lite_snapshot_age_seconds", func() float64 {
			last := s.lastPersistNanos.Load()
			if last == 0 {
				return -1 // never persisted — alertable on its own
			}
			return time.Duration(s.opts.Now().UnixNano() - last).Seconds()
		})
		// Persist generation 0 up front: from the first served request on,
		// a crash always has a loadable snapshot to restart from.
		s.persistSnapshot(s.snap.Load().Tuner)
	}
	if err := s.openSessions(); err != nil {
		s.started.Store(false)
		return fmt.Errorf("serve: opening session store: %w", err)
	}
	if s.opts.Follower {
		// A follower never retrains: its model advances only through FlipTo.
		return nil
	}
	s.wg.Add(1)
	go s.superviseUpdateLoop()
	return nil
}

// replayable turns recovered WAL records into queue items. Replay
// re-validates each record exactly as the live handler did
// (newFeedbackItem), so the two cannot drift apart; a record that no longer
// resolves (app/cluster renamed across an upgrade, garbage payload behind a
// valid CRC) is dropped visibly, not fatally.
func (s *Server) replayable(recs []wal.Record) []feedbackItem {
	var items []feedbackItem
	skipped := 0
	for _, rec := range recs {
		var req api.FeedbackRequest
		err := json.Unmarshal(rec.Data, &req)
		var item feedbackItem
		if err == nil {
			item, err = newFeedbackItem(req)
		}
		if err != nil {
			skipped++
			continue
		}
		item.seq = rec.Seq
		items = append(items, item)
	}
	if skipped > 0 {
		s.reg.Counter("lite_wal_replay_skipped_total").Add(uint64(skipped))
	}
	return items
}

// FlipTo loads a published tuner snapshot from path and publishes it as
// generation gen — the follower half of the fleet's publish-then-flip
// hot-swap protocol (DESIGN.md §10): a trainer persists and validates the
// snapshot first, then the coordinator flips every follower to it, so all
// shards serve the same weights under the same generation number. A flip
// to a generation at or below the live one is a no-op (replayed or
// reordered flips must not regress the model); the recommendation cache is
// flushed so no pre-flip answer outlives the swap. Safe for concurrent use
// with serving and with the local update loop.
func (s *Server) FlipTo(path string, gen uint64) (uint64, error) {
	if cur := s.snap.Load(); gen <= cur.Gen {
		return cur.Gen, nil
	}
	f, err := s.opts.FS.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return s.snap.Load().Gen, fmt.Errorf("serve: flip: opening snapshot: %w", err)
	}
	defer f.Close()
	tuner, err := core.LoadTuner(f, s.opts.Seed)
	if err != nil {
		// A snapshot that does not load must never replace a serving model.
		return s.snap.Load().Gen, fmt.Errorf("serve: flip: loading snapshot %s: %w", path, err)
	}
	// Snapshots do not serialize the retrieval store either; the adopted
	// tuner keeps serving this server's live store.
	tuner.Retrieval = s.retrieval
	s.publishMu.Lock()
	defer s.publishMu.Unlock()
	cur := s.snap.Load()
	if gen <= cur.Gen {
		return cur.Gen, nil
	}
	next := &Snapshot{Tuner: tuner, Gen: gen, CreatedAt: s.opts.Now(), Feedbacks: cur.Feedbacks}
	s.snap.Store(next)
	s.cache.flush(next.Gen)
	s.reg.Counter("lite_flips_total").Inc()
	s.reg.Gauge("lite_snapshot_generation").Set(float64(next.Gen))
	return next.Gen, nil
}

// Shutdown stops the update loop, waiting for an in-flight retrain to
// finish (bounded by the deadline, if any, on done), then closes the WAL
// (final fsync included). It is safe to call more than once.
func (s *Server) Shutdown(done <-chan struct{}) error {
	s.stopOnce.Do(func() { close(s.stopCh) })
	finished := make(chan struct{})
	go func() { s.wg.Wait(); close(finished) }()
	select {
	case <-finished:
		if st := s.sessions.Swap(nil); st != nil {
			if err := st.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "serve: closing session store: %v\n", err)
			}
		}
		if s.wal != nil {
			return s.wal.Close()
		}
		return nil
	case <-done:
		// The update loop may still be using the WAL; leave it open rather
		// than race a close under it (the OS reclaims it on exit, and the
		// unfsynced tail is exactly the loss bound recovery advertises).
		return fmt.Errorf("serve: shutdown deadline exceeded with update loop still running")
	}
}

// ErrOverloaded is returned when the in-flight limiter (Options.
// MaxInFlight) is at capacity: the request is shed immediately rather than
// queued behind work that would blow its deadline. HTTP maps it to
// 503 + Retry-After.
var ErrOverloaded = errors.New("serve: overloaded: in-flight request limit reached, retry later")

// RequestError is a client error (unknown app/cluster, bad payload).
type RequestError struct{ msg string }

// Error implements the error interface.
func (e *RequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// bucketSizeMB is the canonical size every request in bucket b is scored
// at: the bucket's inclusive upper bound (2^b MB). Scoring at one
// representative size per bucket means a response shared through the cache
// corresponds to the same computation for every caller, rather than to
// whichever caller happened to lead.
func bucketSizeMB(b int) float64 { return math.Exp2(float64(b)) }

// requestKey is the cache and routing key "app|b<size bucket>|<env
// fingerprint>", built by concatenation because every request builds one.
// The fingerprint is the retrieval store's, so cache keys and retrieval
// entries agree on environment identity.
func requestKey(appName string, sizeMB float64, env sparksim.Environment) string {
	return appName + "|b" + strconv.Itoa(retrieval.SizeBucket(sizeMB)) + "|" + retrieval.EnvFingerprint(env)
}

// coldDefaultSizeMB is the datasize assumed for an unseen-app request that
// does not state one (registered apps default to their catalogued test
// size, which an unregistered app does not have).
const coldDefaultSizeMB = 1024

// resolved is the resolve stage's answer for one request: the registered
// application (nil when the workload registry does not know the name), the
// cluster's environment, and the datasize with its default applied.
type resolved struct {
	app    *workload.App
	name   string // the registry's spelling of the app, else the caller's
	env    sparksim.Environment
	sizeMB float64
}

// MaxSizeMB bounds a request's size_mb: 2^30 MB, 1 PiB, far above every
// workload's sizes. The model has nothing to say about a larger input, and
// near the float64 limit a size bucket's canonical size overflows to +Inf.
const MaxSizeMB = 1 << 30

// resolve is the one place a request's (app, size, cluster) fields are
// looked up: the cluster must exist and the size be finite and at most
// MaxSizeMB (else a client error); a registered app's size defaults to
// its test size, an unseen app's to coldDefaultSizeMB. Every endpoint, WAL
// replay, the fleet router's key and SimulateOnce go through it, so none
// of them can disagree on a default.
func resolve(appName string, sizeMB float64, cluster string) (resolved, error) {
	env, ok := ClusterByName(cluster)
	if !ok {
		return resolved{}, badRequest("unknown cluster %q", cluster)
	}
	if math.IsNaN(sizeMB) || math.IsInf(sizeMB, 0) {
		return resolved{}, badRequest("size_mb must be a finite number, got %g", sizeMB)
	}
	if sizeMB > MaxSizeMB {
		return resolved{}, badRequest("size_mb %g is above the largest size served, %d MB", sizeMB, MaxSizeMB)
	}
	r := resolved{app: workload.ByName(appName), name: appName, env: env, sizeMB: sizeMB}
	if r.app != nil {
		r.name = r.app.Spec.Name
	}
	if r.sizeMB <= 0 {
		r.sizeMB = coldDefaultSizeMB
		if r.app != nil {
			r.sizeMB = r.app.Sizes.Test
		}
	}
	return r, nil
}

// resolveRegistered is resolve for the endpoints that need the app's
// instrumented specification (feedback, sessions, simulation): an app
// absent from the registry is a client error there.
func resolveRegistered(appName string, sizeMB float64, cluster string) (resolved, error) {
	r, err := resolve(appName, sizeMB, cluster)
	if err == nil && r.app == nil {
		err = badRequest("unknown application %q", appName)
	}
	return r, err
}

// key is the resolved request's cache and routing key.
func (r resolved) key() string { return requestKey(r.name, r.sizeMB, r.env) }

// RoutingKey is the sharding key a fleet router hashes to place a request:
// the same (app, datasize bucket, env fingerprint) string the cache keys
// on, so routing by it keeps each shard's cache hot on its slice of the
// keyspace. Sizes default exactly as the serving path defaults them. An
// app absent from the workload registry still gets a well-formed key over
// its raw name — unseen-app traffic served by the retrieval tier must land
// on one consistent shard, not scatter its cache fleet-wide. An
// unresolvable cluster returns an error; the router may still forward such
// a request (the shard answers 400), it just cannot place it better than
// arbitrarily.
func RoutingKey(appName string, sizeMB float64, cluster string) (string, error) {
	r, err := resolve(appName, sizeMB, cluster)
	if err != nil {
		return "", err
	}
	return r.key(), nil
}

// ClusterByName resolves a cluster name (case-insensitive) to its
// environment.
func ClusterByName(name string) (sparksim.Environment, bool) {
	for _, e := range sparksim.AllClusters {
		if strings.EqualFold(e.Name, name) {
			return e, true
		}
	}
	return sparksim.Environment{}, false
}

// Recommend serves one recommendation request through the cache and the
// current model snapshot. It is safe for concurrent use. It never times
// out on its own; callers that want a deadline use RecommendCtx.
func (s *Server) Recommend(req api.RecommendRequest) (api.RecommendResponse, error) {
	return s.RecommendCtx(context.Background(), req)
}

// RecommendCtx is Recommend under a caller-supplied context: the deadline
// and cancellation flow through admission control, the cache's
// singleflight wait and the NECS candidate-scoring pass, so an abandoned
// request stops consuming the pipeline promptly.
// Typed failures: ErrOverloaded when the in-flight limit sheds the
// request, ctx.Err() (context.Canceled / context.DeadlineExceeded) when
// the caller's budget ran out first.
func (s *Server) RecommendCtx(ctx context.Context, req api.RecommendRequest) (api.RecommendResponse, error) {
	start := s.opts.Now()
	resp, err := s.recommend(ctx, req)
	if err != nil {
		switch {
		case errors.Is(err, ErrOverloaded):
			s.reg.Counter("lite_requests_shed_total").Inc()
		case errors.Is(err, context.DeadlineExceeded):
			s.reg.Counter("lite_requests_deadline_exceeded_total").Inc()
		case errors.Is(err, context.Canceled):
			s.reg.Counter("lite_requests_cancelled_total").Inc()
		}
		return api.RecommendResponse{}, err
	}
	resp.OverheadMS = float64(s.opts.Now().Sub(start)) / float64(time.Millisecond)
	return resp, nil
}

func (s *Server) recommend(ctx context.Context, req api.RecommendRequest) (api.RecommendResponse, error) {
	// Admission control first: when the pipeline is full, shedding must be
	// cheap — no resolution, no cache probe, no queueing.
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			return api.RecommendResponse{}, ErrOverloaded
		}
	}
	if err := ctx.Err(); err != nil {
		return api.RecommendResponse{}, err // dead on arrival
	}

	r, err := resolve(req.App, req.SizeMB, req.Cluster)
	if err != nil {
		return api.RecommendResponse{}, err
	}
	key := r.key()
	if r.app == nil {
		// Never-seen application: serve it from the retrieval cold-start
		// tier when the request carries enough features to embed; reject
		// with guidance otherwise. Two apps reusing a name with different
		// code must not share an answer, so the key carries the features.
		if !hasEmbeddableFeatures(req.Features) {
			return api.RecommendResponse{}, badRequest(
				"unknown application %q (send features.code and/or features.ops to serve it from the retrieval tier)", req.App)
		}
		key = "cold:" + strconv.FormatUint(featureHash(req.Features), 16) + "|" + key
	}
	return s.cached(ctx, key, r.sizeMB, func() (api.RecommendResponse, error) {
		return s.score(ctx, r, req.Features)
	})
}

// cached answers key from the recommendation cache, or computes it once
// for every caller waiting on the key at that moment (ttlCache.getOrDo),
// and stamps the answer with how this caller got it and with the size it
// asked for: the answer may be shared with other callers in the same
// bucket, but it is a value copy, so the stamp does not leak across.
func (s *Server) cached(ctx context.Context, key string, sizeMB float64, compute func() (api.RecommendResponse, error)) (api.RecommendResponse, error) {
	resp, hit, shared, err := s.cache.getOrDo(ctx, key, compute)
	if err != nil {
		return api.RecommendResponse{}, err
	}
	if hit {
		s.ctr.cacheHits.Inc()
	} else {
		s.ctr.cacheMisses.Inc()
	}
	resp.Cached = hit
	resp.Coalesced = shared
	resp.SizeMB = sizeMB
	return resp, nil
}

// hasEmbeddableFeatures reports whether a feature payload carries enough
// signal to embed (code tokens and/or DAG ops).
func hasEmbeddableFeatures(f *api.AppFeatures) bool {
	return f != nil && (strings.TrimSpace(f.Code) != "" || len(f.Ops) > 0)
}

// featureHash fingerprints a feature payload for cache keying: 64-bit
// FNV-1a over the code, then a zero byte and the label for each op.
func featureHash(f *api.AppFeatures) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037) // FNV-1a offset basis
	add := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	add(f.Code)
	for _, op := range f.Ops {
		h *= prime64 // the zero separator: h ^= 0 is a no-op
		add(op)
	}
	return h
}

// score answers a resolved request against the current snapshot at its
// size bucket's canonical size, so every request sharing the cache key gets
// an answer computed for the same input. A registered app runs the full
// tier chain (NECS → retrieval → ACG region → safe default); an unseen one
// is embedded from its features and runs retrieval → safe default, since
// the estimator has no stage features for an app it never instrumented.
// The snapshot pointer is loaded exactly once, so a hot-swap mid-request
// can never mix two generations in one answer.
func (s *Server) score(ctx context.Context, r resolved, features *api.AppFeatures) (api.RecommendResponse, error) {
	snap := s.snap.Load()
	sizeMB := bucketSizeMB(retrieval.SizeBucket(r.sizeMB))
	var sr core.SafeRecommendation
	var err error
	if r.app != nil {
		sr, err = snap.Tuner.RecommendSafeCtx(ctx, r.app.Spec, r.app.Spec.MakeData(sizeMB), r.env)
	} else {
		emb := retrieval.EmbedCode(features.Code, features.Ops)
		sr, err = snap.Tuner.RecommendColdCtx(ctx, emb, sizeMB, r.env)
	}
	if err != nil {
		if isCtxErr(err) {
			return api.RecommendResponse{}, err
		}
		return api.RecommendResponse{}, fmt.Errorf("serve: no feasible configuration: %w", err)
	}
	s.ctr.recsByTier[sr.Tier].Inc()
	if r.app == nil {
		s.ctr.coldByTier[sr.Tier].Inc()
	}
	resp := api.RecommendResponse{
		App:        r.name,
		SizeMB:     sizeMB,
		Cluster:    r.env.Name,
		Config:     session.ConfigMap(sr.Config),
		Tier:       string(sr.Tier),
		Generation: snap.Gen,
		BatchSize:  1,
	}
	if !math.IsNaN(sr.PredictedSeconds) {
		p := sr.PredictedSeconds
		resp.PredictedSeconds = &p
	}
	return resp, nil
}

// knobIndex maps each knob name to its position in a Config.
var knobIndex = func() map[string]int {
	index := make(map[string]int, sparksim.NumKnobs)
	for i, k := range sparksim.Knobs {
		index[k.Name] = i
	}
	return index
}()

// ConfigFromMap builds a Config from a knob-name → value map, starting
// from the default configuration for unspecified knobs. Unknown knob names
// are an error.
func ConfigFromMap(m map[string]float64) (sparksim.Config, error) {
	cfg := sparksim.DefaultConfig()
	for name, v := range m {
		i, ok := knobIndex[name]
		if !ok {
			return cfg, badRequest("unknown knob %q", name)
		}
		cfg[i] = v
	}
	return cfg.Clamp(), nil
}
