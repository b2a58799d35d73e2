package retrieval

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"lite/internal/feature"
	"lite/internal/instrument"
	"lite/internal/sparksim"
	"lite/internal/workload"
)

// testEntry fabricates an entry whose embedding comes from a synthetic
// token vocabulary seeded by family, so same-family entries are similar
// and cross-family entries are not.
func testEntry(family string, variant int, sizeMB float64, envFP string, seconds float64) Entry {
	toks := make([]string, 0, 40)
	for i := 0; i < 30; i++ {
		toks = append(toks, fmt.Sprintf("%s_tok%d", family, i))
	}
	for i := 0; i < 10; i++ {
		toks = append(toks, fmt.Sprintf("%s_v%d_%d", family, variant, i))
	}
	ops := []string{family + "_map", family + "_reduce"}
	cfg := sparksim.DefaultConfig()
	return Entry{
		App:       fmt.Sprintf("%s-%d", family, variant),
		Embedding: Embed(toks, ops),
		SizeMB:    sizeMB,
		EnvFP:     envFP,
		Config:    cfg,
		Seconds:   seconds,
	}
}

func TestEmbedNormalized(t *testing.T) {
	v := Embed([]string{"a", "b", "c", "a"}, []string{"map", "reduce"})
	if len(v) != Dim {
		t.Fatalf("Embed dim = %d, want %d", len(v), Dim)
	}
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("Embed norm² = %g, want 1", norm)
	}
	if len(Embed(nil, nil)) != Dim {
		t.Fatalf("empty Embed should still have dim %d", Dim)
	}
}

func TestLookupFindsNearestFamily(t *testing.T) {
	var entries []Entry
	for _, fam := range []string{"wordcount", "kmeans", "pagerank", "join"} {
		for v := 0; v < 5; v++ {
			entries = append(entries, testEntry(fam, v, 1024, "envA", 100+float64(v)))
		}
	}
	s := FromEntries(entries)
	q := testEntry("kmeans", 99, 1024, "envA", 0)
	res, ok := s.Lookup(Query{Embedding: q.Embedding, SizeMB: 1024, EnvFP: "envA"})
	if !ok {
		t.Fatal("Lookup missed on a store containing the same family")
	}
	if got := res.App; len(got) < 6 || got[:6] != "kmeans" {
		t.Fatalf("Lookup returned %q (sim %.3f), want a kmeans entry", got, res.Similarity)
	}
	if res.Similarity <= DefaultMinSimilarity {
		t.Fatalf("same-family similarity %.3f should clear the floor", res.Similarity)
	}
}

func TestLookupEmptyStoreMisses(t *testing.T) {
	s := New()
	q := testEntry("wordcount", 0, 512, "envA", 0)
	if _, ok := s.Lookup(Query{Embedding: q.Embedding, SizeMB: 512, EnvFP: "envA"}); ok {
		t.Fatal("empty store must report a miss")
	}
	// Mis-sized embeddings must miss, not panic.
	if _, ok := s.Lookup(Query{Embedding: []float64{1, 2, 3}}); ok {
		t.Fatal("mis-sized embedding must report a miss")
	}
}

func TestLookupHonoursSimilarityFloor(t *testing.T) {
	s := FromEntries([]Entry{testEntry("wordcount", 0, 512, "envA", 50)})
	// A disjoint vocabulary yields near-zero cosine: below any sane floor.
	q := testEntry("totallydifferent", 0, 512, "envA", 0)
	if res, ok := s.Lookup(Query{Embedding: q.Embedding, SizeMB: 512, EnvFP: "envA"}); ok {
		t.Fatalf("dissimilar query should miss, got %q sim %.3f", res.App, res.Similarity)
	}
}

func TestBestPerKeyDedup(t *testing.T) {
	e1 := testEntry("wordcount", 0, 1024, "envA", 200)
	e2 := e1
	e2.Seconds = 80 // same key, faster config
	e3 := e1
	e3.Seconds = 300 // same key, slower — must lose
	s := FromEntries([]Entry{e1, e2, e3})
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after best-per-key dedup", s.Len())
	}
	res, ok := s.Lookup(Query{Embedding: e1.Embedding, SizeMB: 1024, EnvFP: "envA"})
	if !ok || res.Seconds != 80 {
		t.Fatalf("Lookup = (%v, %v), want the 80s entry", res.Seconds, ok)
	}

	// Add follows the same rule: a slower duplicate is a no-op, a faster
	// one replaces, even through copy-on-write inserts.
	slower := e1
	slower.Seconds = 500
	s.Add(slower)
	if res, _ := s.Lookup(Query{Embedding: e1.Embedding, SizeMB: 1024, EnvFP: "envA"}); res.Seconds != 80 {
		t.Fatalf("slower Add replaced the best entry (now %vs)", res.Seconds)
	}
	faster := e1
	faster.Seconds = 40
	s.Add(faster)
	if res, _ := s.Lookup(Query{Embedding: e1.Embedding, SizeMB: 1024, EnvFP: "envA"}); res.Seconds != 40 {
		t.Fatalf("faster Add did not replace the best entry (still %vs)", res.Seconds)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after replacement", s.Len())
	}
}

func TestSameEnvPreferredAmongEqualEmbeddings(t *testing.T) {
	a := testEntry("wordcount", 0, 1024, "envA", 100)
	b := a
	b.App = "wordcount-b" // distinct key so both survive dedup
	b.EnvFP = "envB"
	s := FromEntries([]Entry{a, b})
	res, ok := s.Lookup(Query{Embedding: a.Embedding, SizeMB: 1024, EnvFP: "envB"})
	if !ok || res.EnvFP != "envB" {
		t.Fatalf("Lookup preferred %q, want the same-env entry", res.EnvFP)
	}
}

func TestBuildFromRunsSkipsFailed(t *testing.T) {
	apps := workload.All()
	app := apps[0].Spec
	env := sparksim.ClusterC
	data := app.MakeData(512)
	good := instrument.Run(app, data, env, sparksim.DefaultConfig())
	if good.Result.Failed {
		t.Skip("default config unexpectedly failed in the simulator")
	}
	bad := good
	bad.Result.Failed = true
	s := BuildFromRuns([]instrument.AppInstance{bad})
	if s.Len() != 0 {
		t.Fatalf("failed run was indexed (Len=%d)", s.Len())
	}
	s = BuildFromRuns([]instrument.AppInstance{good})
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	res, ok := s.Lookup(Query{Embedding: EmbedApp(app), SizeMB: 512, EnvFP: EnvFingerprint(env)})
	if !ok {
		t.Fatal("self-lookup missed")
	}
	if res.Similarity < 0.999 {
		t.Fatalf("self-similarity %.4f, want ≈1 (EmbedApp vs embedStages drift)", res.Similarity)
	}
}

func TestAdaptScalesSizeKnobs(t *testing.T) {
	cfg := sparksim.DefaultConfig()
	before := cfg
	out := Adapt(cfg, 1024, 4096) // 4× data → 2× parallelism knobs
	if out[sparksim.KnobDefaultParallelism] <= before[sparksim.KnobDefaultParallelism] {
		t.Fatalf("parallelism did not scale up: %g → %g",
			before[sparksim.KnobDefaultParallelism], out[sparksim.KnobDefaultParallelism])
	}
	if out[sparksim.KnobExecutorInstances] <= before[sparksim.KnobExecutorInstances] {
		t.Fatalf("executors did not scale up: %g → %g",
			before[sparksim.KnobExecutorInstances], out[sparksim.KnobExecutorInstances])
	}
	// Non-size knobs transfer untouched.
	for i := range out {
		if i == sparksim.KnobDefaultParallelism || i == sparksim.KnobExecutorInstances ||
			i == sparksim.KnobFilesMaxPartitionBytes {
			continue
		}
		if out[i] != before[i] {
			t.Fatalf("knob %d changed %g → %g; Adapt must only touch size knobs", i, before[i], out[i])
		}
	}
	// Extreme ratios stay inside the legal knob domains.
	huge := Adapt(cfg, 1, 1<<30)
	for i, k := range sparksim.Knobs {
		if huge[i] < k.Min || huge[i] > k.Max {
			t.Fatalf("knob %s out of range after extreme Adapt: %g ∉ [%g, %g]", k.Name, huge[i], k.Min, k.Max)
		}
	}
	// Degenerate sizes are a clamp-only no-op, not a NaN factory.
	same := Adapt(cfg, 0, 1024)
	for i := range same {
		if math.IsNaN(same[i]) || math.IsInf(same[i], 0) {
			t.Fatalf("Adapt with zero fromMB produced non-finite knob %d", i)
		}
	}
}

func TestEnvFingerprintDistinguishesFaultProfiles(t *testing.T) {
	env := sparksim.ClusterC
	p1 := &sparksim.FaultProfile{TaskFailureProb: 0.01, StragglerProb: 0.05, StragglerMult: 3, MaxTaskFailures: 4, MaxStageAttempts: 2, Seed: 1}
	p2 := &sparksim.FaultProfile{TaskFailureProb: 0.20, StragglerProb: 0.05, StragglerMult: 3, MaxTaskFailures: 4, MaxStageAttempts: 2, Seed: 1}
	fp0 := EnvFingerprint(env)
	fp1 := EnvFingerprint(env.WithFaults(p1))
	fp2 := EnvFingerprint(env.WithFaults(p2))
	if fp0 == fp1 || fp1 == fp2 || fp0 == fp2 {
		t.Fatalf("fingerprints collapsed: %q / %q / %q", fp0, fp1, fp2)
	}
}

func TestSizeBucketPowersOfTwo(t *testing.T) {
	cases := map[float64]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 1000: 10, 1024: 10, 1025: 11}
	for size, want := range cases {
		if got := SizeBucket(size); got != want {
			t.Fatalf("SizeBucket(%g) = %d, want %d", size, got, want)
		}
	}
}

// halvingBucket is SizeBucket as a loop: halve until the size is at most
// 1 MB, counting the halvings. It never ends on +Inf.
func halvingBucket(sizeMB float64) int {
	if sizeMB <= 1 {
		return 0
	}
	b := 0
	for v := sizeMB; v > 1; v /= 2 {
		b++
	}
	return b
}

// The closed form agrees with the halving loop on every power of two a
// float64 holds and on both of its neighbours, and caps +Inf at the bucket
// of the largest finite size.
func TestSizeBucketMatchesHalvingLoop(t *testing.T) {
	sizes := []float64{math.Inf(-1), -1, 0, math.SmallestNonzeroFloat64, 0.5, 1.5, 1000, 1e308, math.MaxFloat64}
	for e := -1074; e <= 1023; e++ {
		p := math.Ldexp(1, e)
		sizes = append(sizes, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	for _, size := range sizes {
		if got, want := SizeBucket(size), halvingBucket(size); got != want {
			t.Fatalf("SizeBucket(%g) = %d, the halving loop gives %d", size, got, want)
		}
	}
	if got := SizeBucket(math.Inf(1)); got != halvingBucket(math.MaxFloat64) || got != 1024 {
		t.Fatalf("SizeBucket(+Inf) = %d, want 1024, the bucket of MaxFloat64", got)
	}
	if got := SizeBucket(math.NaN()); got != 0 {
		t.Fatalf("SizeBucket(NaN) = %d, want 0", got)
	}
}

// TestConcurrentLookupDuringRebuild hammers lock-free Lookups while Adds
// force copy-on-write inserts and full recluster hot-swaps. Run under
// -race this is the index hot-swap safety test.
func TestConcurrentLookupDuringRebuild(t *testing.T) {
	families := []string{"wordcount", "kmeans", "pagerank", "join", "sort"}
	var seedEntries []Entry
	for _, fam := range families {
		for v := 0; v < 20; v++ {
			seedEntries = append(seedEntries, testEntry(fam, v, 1024, "envA", 100+float64(v)))
		}
	}
	s := FromEntries(seedEntries)

	queries := make([][]float64, len(families))
	for i, fam := range families {
		queries[i] = testEntry(fam, 0, 1024, "envA", 0).Embedding
	}

	const writers, readers, iters = 2, 4, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			// Enough inserts to cross the rebuild threshold repeatedly.
			for i := 0; i < iters; i++ {
				fam := families[rng.Intn(len(families))]
				s.Add(testEntry(fam, 1000+w*1000+i, 1024, "envA", 50+rng.Float64()*100))
				if i%100 == 99 {
					s.Rebuild()
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 4*iters; i++ {
				q := queries[(r+i)%len(queries)]
				res, ok := s.Lookup(Query{Embedding: q, SizeMB: 1024, EnvFP: "envA"})
				if ok && len(res.Embedding) != Dim {
					t.Errorf("torn result: embedding dim %d", len(res.Embedding))
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if got := s.Len(); got < len(seedEntries) {
		t.Fatalf("Len = %d after concurrent adds, want ≥ %d", got, len(seedEntries))
	}
}

// Len is read on every unseen-app request (and by the entries gauge), so
// it must not wait for the writer mutex that Add holds across an insert
// and a k-means rebuild.
func TestLenDoesNotWaitForWriter(t *testing.T) {
	s := FromEntries([]Entry{testEntry("wordcount", 0, 512, "envA", 50), testEntry("kmeans", 0, 512, "envA", 60)})
	s.mu.Lock()
	got := make(chan int, 1)
	go func() { got <- s.Len() }()
	select {
	case n := <-got:
		s.mu.Unlock()
		if n != 2 {
			t.Fatalf("Len = %d, want 2", n)
		}
	case <-time.After(2 * time.Second):
		s.mu.Unlock()
		<-got
		t.Fatal("Len blocked while the writer mutex was held")
	}
}

// TestHashSlotMatchesFNV: the inlined hash is hash/fnv's 32-bit FNV-1a, so
// every embedding keeps its slots.
func TestHashSlotMatchesFNV(t *testing.T) {
	for _, s := range []string{"", "a", "reduceByKey", "treeAggregate", "héllo\xff", strings.Repeat("xyz", 100)} {
		h := fnv.New32a()
		h.Write([]byte(s))
		for _, mod := range []int{codeDim, opDim} {
			if got, want := hashSlot(s, mod), int(h.Sum32()%uint32(mod)); got != want {
				t.Fatalf("hashSlot(%q, %d) = %d, want %d", s, mod, got, want)
			}
		}
	}
}

// TestEnvFingerprintMemoMatchesFormat: a built-in cluster's remembered
// fingerprint is the formatted one, and the memo matches an environment
// by value — a renamed or faulty copy of a built-in gets its own.
func TestEnvFingerprintMemoMatchesFormat(t *testing.T) {
	for _, env := range sparksim.AllClusters {
		if got, want := EnvFingerprint(env), formatFingerprint(env); got != want {
			t.Fatalf("%s: EnvFingerprint = %q, formatted %q", env.Name, got, want)
		}
		renamed := env
		renamed.Name += "2"
		faulty := env.WithFaults(&sparksim.FaultProfile{TaskFailureProb: 0.05, MaxTaskFailures: 4, Seed: 7})
		for _, other := range []sparksim.Environment{renamed, faulty} {
			if got, want := EnvFingerprint(other), formatFingerprint(other); got != want || got == EnvFingerprint(env) {
				t.Fatalf("EnvFingerprint(%+v) = %q, want %q", other, got, want)
			}
		}
	}
}

// TestOnePassEmbeddersMatchTokens: EmbedCode, EmbedApp and embedStages
// count tokens without building them, and give bit for bit the embedding
// Embed gives over feature.Tokenize's tokens, on every registered
// workload.
func TestOnePassEmbeddersMatchTokens(t *testing.T) {
	same := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: slot %d = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	for _, app := range workload.All() {
		var toks, ops []string
		var stages []instrument.StageInstance
		for i, st := range app.Spec.Stages {
			toks = append(toks, feature.Tokenize(st.Code)...)
			ops = append(ops, st.Ops...)
			same(app.Spec.Name+" stage code", EmbedCode(st.Code, st.Ops), Embed(feature.Tokenize(st.Code), st.Ops))
			// Each stage twice, as loop expansion repeats it.
			stage := instrument.StageInstance{StageIndex: i, Code: st.Code, Ops: st.Ops}
			stages = append(stages, stage, stage)
		}
		want := Embed(toks, ops)
		same(app.Spec.Name+" EmbedApp", EmbedApp(app.Spec), want)
		same(app.Spec.Name+" embedStages", embedStages(stages), want)
	}
}

// TestIndexIsDeterministic: the same inserts build the same index — entry
// order, centroids and cluster lists — so a lookup answers the same in
// every process, superseded entries included.
func TestIndexIsDeterministic(t *testing.T) {
	var entries []Entry
	for f := 0; f < 12; f++ {
		for v := 0; v < 8; v++ {
			fam := fmt.Sprintf("fam%d", f)
			entries = append(entries, testEntry(fam, v, float64(int(64)<<(v%4)), "env0", float64(100+v)))
			// A faster rerun of one key supersedes the first entry.
			entries = append(entries, testEntry(fam, v, float64(int(64)<<(v%4)), "env0", float64(50+v)))
		}
	}
	want := FromEntries(entries).idx.Load()
	for i := 0; i < 5; i++ {
		got := FromEntries(entries).idx.Load()
		if len(got.entries) != len(want.entries) {
			t.Fatalf("build %d: %d entries, want %d", i, len(got.entries), len(want.entries))
		}
		for j := range got.entries {
			if got.entries[j].key() != want.entries[j].key() || got.entries[j].Seconds != want.entries[j].Seconds {
				t.Fatalf("build %d: entry %d is %s, want %s", i, j, got.entries[j].key(), want.entries[j].key())
			}
		}
		if fmt.Sprint(got.centroids, got.clusters) != fmt.Sprint(want.centroids, want.clusters) {
			t.Fatalf("build %d: clusters differ", i)
		}
	}
}

// TestFullStoreProbesOnlyOwnedClusters builds the largest store serving
// can reach for the registered apps: each of them at every size bucket
// 0–30 on every built-in cluster, so each app's many entries share one
// vector. k-means then empties most of its clusters; an empty cluster must
// not take one of a Lookup's probes, or an app can miss its own entries
// and a query an exact scan answers can find nothing.
func TestFullStoreProbesOnlyOwnedClusters(t *testing.T) {
	apps := workload.All()
	var entries []Entry
	embs := make([][]float64, len(apps))
	for i, app := range apps {
		embs[i] = EmbedApp(app.Spec)
		for b := 0; b <= 30; b++ {
			for _, env := range sparksim.AllClusters {
				entries = append(entries, Entry{
					App:       app.Spec.Name,
					Embedding: embs[i],
					SizeMB:    math.Ldexp(1, b),
					EnvFP:     EnvFingerprint(env),
					Config:    sparksim.DefaultConfig(),
					Seconds:   100,
				})
			}
		}
	}
	st := FromEntries(entries)
	ix := st.idx.Load()
	for c, members := range ix.clusters {
		if len(members) == 0 {
			t.Errorf("cluster %d of %d owns no entries", c, len(ix.clusters))
		}
	}
	envFP := EnvFingerprint(sparksim.AllClusters[0])
	for i, app := range apps {
		res, ok := st.Lookup(Query{Embedding: embs[i], SizeMB: 1024, EnvFP: envFP})
		if !ok || res.App != app.Spec.Name {
			t.Errorf("%s: own lookup = (%q, %v), want itself", app.Spec.Name, res.App, ok)
		}
	}
	// Blends of two apps stand in for mutated, never-seen code: whenever
	// an exact scan finds a neighbour above the floor, the index must too.
	for i := range embs {
		for j := range embs {
			q := make([]float64, Dim)
			for d := range q {
				q[d] = 0.7*embs[i][d] + 0.3*embs[j][d]
			}
			normalize(q)
			exact := 0.0
			for _, e := range embs {
				exact = math.Max(exact, dot(e, q))
			}
			if _, ok := st.Lookup(Query{Embedding: q, SizeMB: 1024, EnvFP: envFP}); ok != (exact >= DefaultMinSimilarity) {
				t.Errorf("blend %s/%s: index hit = %v, exact best similarity %.3f", apps[i].Spec.Name, apps[j].Spec.Name, ok, exact)
			}
		}
	}
}
