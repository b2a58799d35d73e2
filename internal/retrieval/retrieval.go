// Package retrieval implements the zero-execution cold-start store: an
// in-memory index of historical tuples
//
//	(code-token embedding, stage-DAG signature, datasize bucket,
//	 environment fingerprint)  →  best-known config and measured seconds
//
// populated from the offline training dataset and from live promoted
// feedback, with an approximate-nearest-neighbour index in pure Go.
// Serving an application the model has never trained on then costs one
// embedding plus one sub-millisecond Lookup — retrieve the most similar
// historical application and adapt its best-known configuration — instead
// of a simulator execution or a 400 (see PAPERS.md, "Zero-Execution
// Retrieval-Augmented Configuration Tuning of Spark Applications").
//
// Index structure: embeddings are L2-normalized hashed bags of code tokens
// and DAG-operation labels, clustered into k ≈ √n centroids; a Lookup
// scores the query against the centroids and scans only the nearest
// clusters (inverted-list probing), so cost is O(k·D + n/k·D), not O(n·D).
// The index lives behind an atomic pointer: Lookup is lock-free, Add
// performs a copy-on-write insertion into the nearest cluster, and a full
// recluster+compaction rebuild is published as a hot-swap once enough
// entries accumulate — concurrent Lookups keep reading the previous index.
//
// The package sits below internal/core in the import graph (it depends
// only on sparksim and instrument), so core can wire the store in
// as the degradation tier between "necs" and "acg-region".
package retrieval

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"lite/internal/instrument"
	"lite/internal/sparksim"
)

// Embedding layout: code tokens hash into the first codeDim slots, DAG
// operation labels into the remaining opDim slots. Ops get their own block
// (and a weight boost, below) because the op multiset is the stage-DAG
// signature — two apps sharing reduceByKey/treeAggregate structure should
// be neighbours even when their identifier spellings differ.
const (
	codeDim = 96
	opDim   = 32

	// Dim is the embedding dimensionality every entry and query must use.
	Dim = codeDim + opDim

	// opWeight scales DAG-op counts relative to code-token counts before
	// normalization (ops are few but structurally decisive).
	opWeight = 2.0
)

// DefaultMinSimilarity is the cosine floor below which a Lookup reports a
// miss: a neighbour less similar than this is more likely to mislead than
// the safe default is to disappoint.
const DefaultMinSimilarity = 0.30

// Embed builds the L2-normalized embedding of an application from its code
// tokens and DAG operation labels. Counts are square-root damped so one
// hot token (a common loop variable, a repeated stage) cannot dominate the
// direction of the vector.
func Embed(codeTokens, ops []string) []float64 {
	v := make([]float64, Dim)
	for _, t := range codeTokens {
		v[hashSlot(t, codeDim)]++
	}
	addOps(v, ops)
	normalize(v)
	return v
}

// EmbedCode is Embed over raw source code, tokenized with the tokenizer the
// NECS vocabulary uses (feature.Tokenize: identifiers and literals,
// case-preserved). This is the entry point for wire requests that carry a
// never-seen application's stage code; it counts the tokens in one pass
// over the code without building them.
func EmbedCode(code string, ops []string) []float64 {
	v := make([]float64, Dim)
	addCode(v, code)
	addOps(v, ops)
	normalize(v)
	return v
}

// EmbedApp embeds a full application specification: the concatenation of
// every stage's expanded code and every stage's DAG operations.
func EmbedApp(spec *sparksim.AppSpec) []float64 {
	v := make([]float64, Dim)
	for i := range spec.Stages {
		addCode(v, spec.Stages[i].Code)
		addOps(v, spec.Stages[i].Ops)
	}
	normalize(v)
	return v
}

// addCode counts code's tokens into v's code block. A token is a maximal
// run of ASCII letters, digits and underscores, feature.Tokenize's rule;
// its slot is hashSlot's FNV-1a, computed as the run is scanned. Counts are
// whole numbers, so the order they are added in does not change a bit.
func addCode(v []float64, code string) {
	h, in := uint32(fnvOffset), false
	for i := 0; i < len(code); i++ {
		if c := code[i]; c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			h = (h ^ uint32(c)) * fnvPrime
			in = true
		} else if in {
			v[h%codeDim]++
			h, in = fnvOffset, false
		}
	}
	if in {
		v[h%codeDim]++
	}
}

// addOps counts DAG operation labels into v's op block.
func addOps(v []float64, ops []string) {
	for _, op := range ops {
		v[codeDim+hashSlot(op, opDim)] += opWeight
	}
}

// normalize square-root damps v's counts and scales it to unit length.
func normalize(v []float64) {
	var norm float64
	for i, x := range v {
		x = math.Sqrt(x)
		v[i] = x
		norm += x * x
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range v {
			v[i] /= norm
		}
	}
}

// 32-bit FNV-1a.
const (
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

// hashSlot maps a string into [0, mod) with 32-bit FNV-1a.
func hashSlot(s string, mod int) int {
	h := uint32(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime
	}
	return int(h % uint32(mod))
}

// EnvFingerprint identifies an environment for retrieval keying and for
// the serving cache's keys: the full hardware profile plus every
// fault-profile knob. Fingerprinting the actual fault parameters (not a
// bare "faults" flag) keeps entries measured under different fault
// intensities from aliasing. A built-in cluster's fingerprint is
// formatted once; it is matched by value, not by name.
func EnvFingerprint(env sparksim.Environment) string {
	for i := range builtinFPs {
		if builtinFPs[i].env == env {
			return builtinFPs[i].fp
		}
	}
	return formatFingerprint(env)
}

// builtinFPs holds the fingerprint of every built-in cluster, which is
// what every served request resolves to.
var builtinFPs = func() []clusterFP {
	out := make([]clusterFP, len(sparksim.AllClusters))
	for i, env := range sparksim.AllClusters {
		out[i] = clusterFP{env, formatFingerprint(env)}
	}
	return out
}()

type clusterFP struct {
	env sparksim.Environment
	fp  string
}

func formatFingerprint(env sparksim.Environment) string {
	fp := fmt.Sprintf("%s|%dx%d|%.1fGHz|%.0fGB|%.0fMTs|%.0fGbps",
		env.Name, env.Nodes, env.Cores, env.FreqGHz, env.MemGB, env.MemSpeedMTs, env.NetGbps)
	if f := env.Faults; f.Active() {
		fp += fmt.Sprintf("|faults:%g/%g/%g/%g/%g/%d/%d/%d",
			f.TaskFailureProb, f.ExecutorLossRate, f.FetchFailureRate,
			f.StragglerProb, f.StragglerMult, f.MaxTaskFailures, f.MaxStageAttempts, f.Seed)
	}
	return fp
}

// maxSizeBucket is the bucket of math.MaxFloat64, the cap for +Inf.
const maxSizeBucket = 1024

// SizeBucket quantizes a datasize into its power-of-two megabyte bucket,
// ⌈log₂ sizeMB⌉ and 0 for sizes up to 1 MB, the same quantization the
// serving cache uses: entries measured at 900 MB and 1000 MB share a
// bucket, 1 GB and 100 GB do not. It is computed from the binary exponent,
// so +Inf maps to maxSizeBucket and NaN to 0.
func SizeBucket(sizeMB float64) int {
	switch {
	case !(sizeMB > 1):
		return 0
	case math.IsInf(sizeMB, 1):
		return maxSizeBucket
	}
	frac, exp := math.Frexp(sizeMB) // sizeMB = frac·2^exp, frac ∈ [½, 1)
	if frac == 0.5 {
		return exp - 1
	}
	return exp
}

// Entry is one historical tuple. Embedding must be produced by Embed (or
// left nil to be computed by AddRun); Seconds is the measured application
// execution time under Config.
type Entry struct {
	// App is the application the tuple was measured on (display only; the
	// embedding, not the name, drives matching).
	App string
	// Embedding is the L2-normalized Dim-dimensional vector from Embed.
	Embedding []float64
	// SizeMB is the datasize the config was measured at.
	SizeMB float64
	// EnvFP is the environment fingerprint from EnvFingerprint.
	EnvFP string
	// Config is the best-known configuration for this key.
	Config sparksim.Config
	// Seconds is the measured execution time of Config.
	Seconds float64
}

// key is the dedup identity: one best-known entry per (app, datasize
// bucket, environment).
func (e *Entry) key() string {
	return fmt.Sprintf("%s|b%d|%s", e.App, SizeBucket(e.SizeMB), e.EnvFP)
}

// Result is a Lookup answer: the winning entry plus its cosine similarity
// to the query.
type Result struct {
	Entry
	// Similarity is the cosine similarity in [−1, 1] (embeddings are
	// non-negative, so effectively [0, 1]).
	Similarity float64
}

// Query is one Lookup request.
type Query struct {
	// Embedding is the query vector from Embed/EmbedApp/EmbedCode.
	Embedding []float64
	// SizeMB is the caller's datasize; nearer buckets rank higher among
	// equally similar neighbours.
	SizeMB float64
	// EnvFP is the caller's environment fingerprint; same-environment
	// neighbours rank higher among equally similar ones.
	EnvFP string
}

// Store is the concurrent retrieval store. Lookup is lock-free (it reads
// an immutable index snapshot through an atomic pointer) and safe to call
// from any number of goroutines concurrently with Add; Add and rebuilds
// serialize on an internal mutex.
type Store struct {
	mu sync.Mutex
	// entries is append-only under mu; stale (superseded) entries are
	// pruned at the next full rebuild.
	entries []*Entry
	// best maps entry key → index of the current best entry in entries.
	best map[string]int
	// sinceRebuild counts copy-on-write insertions since the last full
	// recluster; rebuilds compact and recluster once it exceeds a fraction
	// of the index size.
	sinceRebuild int
	// live is len(best), published under mu by every insert (a rebuild
	// keeps the key count), so Len never waits behind an Add or a rebuild.
	live atomic.Int64

	idx atomic.Pointer[index]
}

// index is one immutable published snapshot: the entry set with inverted
// cluster lists. Readers never mutate it; writers publish a replacement.
type index struct {
	entries   []*Entry
	centroids [][]float64
	clusters  [][]int32
}

// New returns an empty store.
func New() *Store {
	s := &Store{best: map[string]int{}}
	s.idx.Store(&index{})
	return s
}

// FromEntries bulk-loads a store: entries are deduplicated to the best
// (lowest Seconds) per (app, size bucket, env) key and clustered once.
// Entries with missing or mis-sized embeddings are dropped.
func FromEntries(entries []Entry) *Store {
	s := New()
	s.mu.Lock()
	for i := range entries {
		e := entries[i]
		if len(e.Embedding) != Dim {
			continue
		}
		s.insertLocked(&e)
	}
	s.rebuildLocked()
	s.mu.Unlock()
	return s
}

// BuildFromRuns builds a store from instrumented application runs (the
// offline training dataset): failed runs are skipped, and each (app, size
// bucket, env) keeps the configuration with the lowest measured seconds.
func BuildFromRuns(runs []instrument.AppInstance) *Store {
	embCache := map[string][]float64{}
	entries := make([]Entry, 0, len(runs))
	for i := range runs {
		run := &runs[i]
		if run.Result.Failed || len(run.Stages) == 0 {
			continue
		}
		emb, ok := embCache[run.AppName]
		if !ok {
			emb = embedStages(run.Stages)
			embCache[run.AppName] = emb
		}
		entries = append(entries, Entry{
			App:       run.AppName,
			Embedding: emb,
			SizeMB:    run.Data.SizeMB,
			EnvFP:     EnvFingerprint(run.Env),
			Config:    run.Config,
			Seconds:   run.Result.Seconds,
		})
	}
	return FromEntries(entries)
}

// embedStages embeds the stage set of one run (stage codes + DAG ops).
// Stages repeated by loop expansion (iterative apps run the same stage N
// times) are counted once, so a run's embedding matches EmbedApp over the
// static specification and live-feedback entries stay comparable to
// spec-embedded queries.
func embedStages(stages []instrument.StageInstance) []float64 {
	v := make([]float64, Dim)
	seen := map[int]bool{}
	for i := range stages {
		st := &stages[i]
		if seen[st.StageIndex] {
			continue
		}
		seen[st.StageIndex] = true
		addCode(v, st.Code)
		addOps(v, st.Ops)
	}
	normalize(v)
	return v
}

// AddRun folds one executed run into the store (the live promoted-feedback
// path): failed runs are ignored, and a run slower than the current
// best-known entry for its key is a no-op.
func (s *Store) AddRun(run instrument.AppInstance) {
	if run.Result.Failed || len(run.Stages) == 0 {
		return
	}
	s.Add(Entry{
		App:       run.AppName,
		Embedding: embedStages(run.Stages),
		SizeMB:    run.Data.SizeMB,
		EnvFP:     EnvFingerprint(run.Env),
		Config:    run.Config,
		Seconds:   run.Result.Seconds,
	})
}

// Add inserts one entry, keeping only the best (lowest Seconds) per (app,
// size bucket, env) key. The published index is updated copy-on-write so
// concurrent Lookups never block; a full recluster is published once
// enough insertions accumulate.
func (s *Store) Add(e Entry) {
	if len(e.Embedding) != Dim {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.insertLocked(&e) {
		return
	}
	s.sinceRebuild++
	cur := s.idx.Load()
	if s.sinceRebuild >= rebuildThreshold(len(cur.entries)) {
		s.rebuildLocked()
		return
	}
	s.publishInsertLocked(cur, &e)
}

// rebuildThreshold is how many copy-on-write insertions are tolerated
// before a full compaction+recluster: a quarter of the index (so rebuild
// work amortizes to O(1) per insert), floored at 64.
func rebuildThreshold(n int) int {
	if n < 256 {
		return 64
	}
	return n / 4
}

// insertLocked records e as the best entry for its key. Returns false when
// the existing best is at least as good (the store is unchanged).
func (s *Store) insertLocked(e *Entry) bool {
	k := e.key()
	if i, ok := s.best[k]; ok && s.entries[i].Seconds <= e.Seconds {
		return false
	}
	s.entries = append(s.entries, e)
	s.best[k] = len(s.entries) - 1
	s.live.Store(int64(len(s.best)))
	return true
}

// publishInsertLocked publishes a copy-on-write index with e appended to
// its nearest cluster. Only the touched cluster's list and the cluster
// table are copied; centroids and all other lists are shared with the
// previous snapshot, which concurrent Lookups may still be reading.
func (s *Store) publishInsertLocked(cur *index, e *Entry) {
	next := &index{
		entries:   append(cur.entries[:len(cur.entries):len(cur.entries)], e),
		centroids: cur.centroids,
	}
	if len(cur.centroids) == 0 {
		// Pre-clustering regime: a single implicit cluster would be scanned
		// anyway; leave clusters nil and let Lookup fall back to a full scan.
		s.idx.Store(next)
		return
	}
	ci := nearestCentroid(cur.centroids, e.Embedding)
	next.clusters = make([][]int32, len(cur.clusters))
	copy(next.clusters, cur.clusters)
	old := cur.clusters[ci]
	next.clusters[ci] = append(old[:len(old):len(old)], int32(len(next.entries)-1))
	s.idx.Store(next)
}

// rebuildLocked compacts the entry set to the current best per key,
// reclusters it, and atomically publishes the new index. The compacted set
// keeps insertion order: k-means seeds are picked by position, so the same
// inserts give the same index, and the same answers, in every process.
func (s *Store) rebuildLocked() {
	compact := make([]*Entry, 0, len(s.best))
	best := make(map[string]int, len(s.best))
	for i, e := range s.entries {
		if k := e.key(); s.best[k] == i {
			best[k] = len(compact)
			compact = append(compact, e)
		}
	}
	// Re-anchor the canonical state on the compacted set so entries does
	// not grow without bound across rebuild cycles.
	s.entries = compact
	s.best = best
	s.sinceRebuild = 0
	s.idx.Store(buildIndex(compact))
}

// Rebuild forces a compaction and recluster immediately (tests and bulk
// loaders; Add triggers rebuilds automatically otherwise).
func (s *Store) Rebuild() {
	s.mu.Lock()
	s.rebuildLocked()
	s.mu.Unlock()
}

// Len reports the number of live (best-per-key) entries. Like Lookup it
// takes no lock.
func (s *Store) Len() int {
	return int(s.live.Load())
}

// clusterCount picks k ≈ √n, bounded to keep both the centroid scan and
// the per-cluster scans small.
func clusterCount(n int) int {
	k := int(math.Sqrt(float64(n)))
	if k < 1 {
		k = 1
	}
	if k > 64 {
		k = 64
	}
	return k
}

// buildIndex clusters the entries with a few deterministic k-means rounds
// (evenly spaced seeds, 3 Lloyd iterations — the index is approximate by
// contract, so cheap clustering beats converged clustering).
func buildIndex(entries []*Entry) *index {
	ix := &index{entries: entries}
	n := len(entries)
	if n == 0 {
		return ix
	}
	k := clusterCount(n)
	centroids := make([][]float64, k)
	for c := 0; c < k; c++ {
		centroids[c] = append([]float64(nil), entries[c*n/k].Embedding...)
	}
	assign := make([]int, n)
	for iter := 0; iter < 3; iter++ {
		for i, e := range entries {
			assign[i] = nearestCentroid(centroids, e.Embedding)
		}
		counts := make([]int, k)
		for c := range centroids {
			for j := range centroids[c] {
				centroids[c][j] = 0
			}
		}
		for i, e := range entries {
			c := assign[i]
			counts[c]++
			for j, x := range e.Embedding {
				centroids[c][j] += x
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an emptied centroid on a spread-out entry so k
				// stays effective.
				copy(centroids[c], entries[(c*7+1)%n].Embedding)
				continue
			}
			inv := 1 / float64(counts[c])
			for j := range centroids[c] {
				centroids[c][j] *= inv
			}
		}
	}
	clusters := make([][]int32, k)
	for i, c := range assign {
		clusters[c] = append(clusters[c], int32(i))
	}
	// A centroid re-seeded in the last round owns no entries. Keep only the
	// owned clusters, so a Lookup never spends a probe on an empty one.
	for c, members := range clusters {
		if len(members) > 0 {
			ix.centroids = append(ix.centroids, centroids[c])
			ix.clusters = append(ix.clusters, members)
		}
	}
	return ix
}

func nearestCentroid(centroids [][]float64, v []float64) int {
	best, bestDot := 0, math.Inf(-1)
	for c, cent := range centroids {
		if d := dot(cent, v); d > bestDot {
			best, bestDot = c, d
		}
	}
	return best
}

func dot(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// probeClusters is how many nearest clusters a Lookup scans. Two probes
// recover the overwhelming share of true neighbours at roughly 2n/k
// scanned entries.
const probeClusters = 2

// Ranking bonuses: among comparably similar neighbours, prefer one
// measured on the same environment and at a nearby datasize. The bonuses
// are small so they order candidates, never outvote real similarity.
const (
	sameEnvBonus     = 0.02
	sizeBucketPenaly = 0.005
)

// Lookup returns the most similar entry above the similarity floor.
// It is lock-free and safe to call concurrently with Add and rebuilds.
func (s *Store) Lookup(q Query) (Result, bool) {
	if len(q.Embedding) != Dim {
		return Result{}, false
	}
	ix := s.idx.Load()
	if len(ix.entries) == 0 {
		return Result{}, false
	}
	qBucket := SizeBucket(q.SizeMB)

	var best *Entry
	bestSim, bestScore := 0.0, math.Inf(-1)
	scan := func(e *Entry) {
		sim := dot(e.Embedding, q.Embedding)
		score := sim
		if e.EnvFP == q.EnvFP {
			score += sameEnvBonus
		}
		score -= sizeBucketPenaly * math.Abs(float64(SizeBucket(e.SizeMB)-qBucket))
		// Deterministic tie-break: among equal scores prefer the faster
		// measured entry (duplicate keys between rebuilds resolve to the
		// best-known config).
		if score > bestScore || (score == bestScore && best != nil && e.Seconds < best.Seconds) {
			best, bestSim, bestScore = e, sim, score
		}
	}

	if len(ix.centroids) == 0 {
		for _, e := range ix.entries {
			scan(e)
		}
	} else {
		for _, c := range topCentroids(ix.centroids, q.Embedding, probeClusters) {
			for _, i := range ix.clusters[c] {
				scan(ix.entries[i])
			}
		}
	}
	if best == nil || bestSim < DefaultMinSimilarity {
		return Result{}, false
	}
	return Result{Entry: *best, Similarity: bestSim}, true
}

// topCentroids returns the indices of the p centroids most similar to v.
func topCentroids(centroids [][]float64, v []float64, p int) []int {
	if p > len(centroids) {
		p = len(centroids)
	}
	type cd struct {
		c int
		d float64
	}
	top := make([]cd, 0, p)
	for c, cent := range centroids {
		d := dot(cent, v)
		if len(top) < p {
			top = append(top, cd{c, d})
		} else {
			// Replace the current worst if this one is better.
			worst := 0
			for i := 1; i < len(top); i++ {
				if top[i].d < top[worst].d {
					worst = i
				}
			}
			if d > top[worst].d {
				top[worst] = cd{c, d}
			}
		}
	}
	out := make([]int, len(top))
	for i, t := range top {
		out[i] = t.c
	}
	return out
}

// Adapt rescales a neighbour's configuration from the datasize it was
// measured at to the caller's datasize: the throughput-bearing knobs
// (partitions, executors, partition bytes) scale sub-linearly with the
// data ratio, everything else transfers as-is, and the result is clamped
// back into the legal knob domains. Callers should additionally force the
// result feasible for their environment (core.ForceFeasible).
func Adapt(cfg sparksim.Config, fromMB, toMB float64) sparksim.Config {
	if fromMB <= 0 || toMB <= 0 {
		return cfg.Clamp()
	}
	ratio := toMB / fromMB
	s := math.Sqrt(ratio)
	cfg[sparksim.KnobDefaultParallelism] *= s
	cfg[sparksim.KnobExecutorInstances] *= s
	cfg[sparksim.KnobFilesMaxPartitionBytes] *= math.Sqrt(s)
	return cfg.Clamp()
}
