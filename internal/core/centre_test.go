package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"lite/internal/sparksim"
	"lite/internal/workload"
)

// centreApps is every registered application plus one name the forests
// were never fitted on.
func centreApps() []*sparksim.AppSpec {
	var out []*sparksim.AppSpec
	for _, a := range workload.All() {
		out = append(out, a.Spec)
	}
	unseen := *workload.All()[0].Spec
	unseen.Name = "NoSuchApp"
	return append(out, &unseen)
}

// sizeBuckets are the canonical sizes serve scores a request at: 2^b MB
// for each of its 31 size buckets.
func sizeBuckets() []float64 {
	out := make([]float64, 31)
	for b := range out {
		out[b] = math.Exp2(float64(b))
	}
	return out
}

// allAppsGenerator fits the ACG forests on a cheap dataset over every
// registered application.
func allAppsGenerator(t *testing.T) *CandidateGenerator {
	t.Helper()
	ds := smallDataset(t, workload.All(), 1, 21)
	return NewCandidateGenerator(ds.Runs, rand.New(rand.NewSource(22)))
}

// walkForests is what Region and PointPrediction computed before the centre
// table: the RFR row built afresh and every knob's forest walked.
func walkForests(g *CandidateGenerator, appName string, data sparksim.DataSpec) sparksim.Config {
	f := make([]float64, 2+g.numApps)
	df := data.Features()
	f[0], f[1] = df[0], df[2]
	if i, ok := g.appIdx[appName]; ok {
		f[2+i] = 1
	}
	var c sparksim.Config
	for d := range c {
		c[d] = g.models[d].Predict(f)
	}
	return c
}

// walkRegion is Equation 7 over walkForests.
func walkRegion(g *CandidateGenerator, appName string, data sparksim.DataSpec) (lo, hi sparksim.Config) {
	centre := walkForests(g, appName, data)
	scale := g.SigmaScale
	if scale <= 0 {
		scale = 1
	}
	for d, k := range sparksim.Knobs {
		l := centre[d] - scale*g.sigma[d]
		h := centre[d] + scale*g.sigma[d]
		if l < k.Min {
			l = k.Min
		}
		if h > k.Max {
			h = k.Max
		}
		if l > h {
			l, h = h, l
		}
		lo[d], hi[d] = l, h
	}
	return lo, hi
}

func sameBits(a, b sparksim.Config) bool {
	for d := range a {
		if math.Float64bits(a[d]) != math.Float64bits(b[d]) {
			return false
		}
	}
	return true
}

// Region and PointPrediction read through the centre table and still equal
// a fresh forest walk bit for bit, on the miss that fills an entry and on
// the hits after it, for every application (and an unregistered name), at
// every serve size bucket and under several SigmaScales: the scale is
// applied per call, never stored.
func TestCentreTableMatchesForestWalk(t *testing.T) {
	g := allAppsGenerator(t)
	keys := map[centreKey]bool{}
	for _, scale := range []float64{1, 0.5, 2} {
		g.SigmaScale = scale
		for _, app := range centreApps() {
			for _, mb := range sizeBuckets() {
				data := app.MakeData(mb)
				keys[g.keyOf(app.Name, data)] = true
				wantLo, wantHi := walkRegion(g, app.Name, data)
				wantPoint := walkForests(g, app.Name, data).Clamp()
				for pass := 0; pass < 2; pass++ {
					lo, hi := g.Region(app.Name, data)
					if !sameBits(lo, wantLo) || !sameBits(hi, wantHi) {
						t.Fatalf("%s at %v MB, scale %v, pass %d: Region differs from the forest walk", app.Name, mb, scale, pass)
					}
					if got := g.PointPrediction(app.Name, data); !sameBits(got, wantPoint) {
						t.Fatalf("%s at %v MB, pass %d: PointPrediction %v, forest walk %v", app.Name, mb, pass, got, wantPoint)
					}
				}
			}
		}
	}
	if got := g.centreCount.Load(); got != int64(len(keys)) {
		t.Fatalf("table holds %d entries for %d distinct keys", got, len(keys))
	}
}

// A hit allocates nothing.
func TestCentreTableHitAllocatesNothing(t *testing.T) {
	g := allAppsGenerator(t)
	app := workload.ByName("KMeans").Spec
	data := app.MakeData(1024)
	g.Region(app.Name, data)
	if got := testing.AllocsPerRun(100, func() { g.Region(app.Name, data) }); got != 0 {
		t.Fatalf("a Region hit allocates %.0f times", got)
	}
}

// Many goroutines filling and reading the same keys at once (run under
// -race) all read the forest walk's values, and each key ends up with one
// entry.
func TestCentreTableConcurrentReaders(t *testing.T) {
	g := allAppsGenerator(t)
	type req struct {
		app    string
		data   sparksim.DataSpec
		lo, hi sparksim.Config
	}
	var reqs []req
	for _, app := range centreApps() {
		for _, mb := range sizeBuckets() {
			data := app.MakeData(mb)
			lo, hi := walkRegion(g, app.Name, data)
			reqs = append(reqs, req{app.Name, data, lo, hi})
		}
	}
	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(w))).Perm(len(reqs))
			for pass := 0; pass < 3; pass++ {
				for _, i := range order {
					r := reqs[i]
					if lo, hi := g.Region(r.app, r.data); !sameBits(lo, r.lo) || !sameBits(hi, r.hi) {
						errs <- r.app + ": Region differs from the forest walk"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := g.centreCount.Load(); got != int64(len(reqs)) {
		t.Fatalf("table holds %d entries for %d keys", got, len(reqs))
	}
}

// Past maxCentres entries the table stores nothing more: a new key is
// walked on every call and still exact, and the keys stored before the cap
// still hit. A key with NaN rows is never stored.
func TestCentreTableStopsAtCap(t *testing.T) {
	g := allAppsGenerator(t)
	data := func(rows float64) sparksim.DataSpec { return sparksim.DataSpec{Rows: rows, Iterations: 1} }
	first := g.centre("WordCount", data(1))
	for i := 2; i <= maxCentres; i++ {
		g.centre("WordCount", data(float64(i)))
	}
	if got := g.centreCount.Load(); got != maxCentres {
		t.Fatalf("%d entries after %d keys", got, maxCentres)
	}
	if g.centre("WordCount", data(1)) != first {
		t.Fatal("a key stored before the cap no longer hits")
	}
	for _, d := range []sparksim.DataSpec{data(maxCentres + 1), data(math.NaN())} {
		a, b := g.centre("WordCount", d), g.centre("WordCount", d)
		if a == b {
			t.Fatalf("rows %v: stored past the cap or under a NaN key", d.Rows)
		}
		if want := walkForests(g, "WordCount", d); !sameBits(*a, want) || !sameBits(*b, want) {
			t.Fatalf("rows %v: unstored centre differs from the forest walk", d.Rows)
		}
	}
	if got := g.centreCount.Load(); got != maxCentres {
		t.Fatalf("%d entries past the cap, want %d", got, maxCentres)
	}
}

// UnmarshalJSON replaces the forests, so it empties the table too.
func TestCentreTableClearedByUnmarshal(t *testing.T) {
	g := allAppsGenerator(t)
	app := workload.ByName("PageRank").Spec
	g.Region(app.Name, app.MakeData(64))
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, g); err != nil {
		t.Fatal(err)
	}
	if got := g.centreCount.Load(); got != 0 {
		t.Fatalf("%d entries survive UnmarshalJSON", got)
	}
	n := 0
	g.centres.Range(func(_, _ any) bool { n++; return true })
	if n != 0 {
		t.Fatalf("%d keys survive UnmarshalJSON", n)
	}
}

// rank gives sort.SliceStable's order by Predicted, whatever the ties:
// predictions drawn from a few values, with duplicates, infinities and
// NaNs (which compare neither below nor above anything).
func TestRankMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := []float64{1, 2, 2.5, 3, math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(150)
		distinct := 1 + rng.Intn(len(pool))
		scored := make([]ScoredConfig, n)
		for i := range scored {
			scored[i].Config[0] = float64(i) // the candidate's identity
			if rng.Intn(4) == 0 {
				scored[i].Predicted = rng.Float64()
			} else {
				scored[i].Predicted = pool[rng.Intn(distinct)]
			}
		}
		want := append([]ScoredConfig(nil), scored...)
		sort.SliceStable(want, func(a, b int) bool { return want[a].Predicted < want[b].Predicted })
		rec := rank(scored, time.Now())
		for i := range want {
			if rec.Ranked[i].Config[0] != want[i].Config[0] {
				t.Fatalf("trial %d (n=%d): position %d holds candidate %v, sort.SliceStable puts %v there",
					trial, n, i, rec.Ranked[i].Config[0], want[i].Config[0])
			}
			if math.Float64bits(rec.Ranked[i].Predicted) != math.Float64bits(want[i].Predicted) {
				t.Fatalf("trial %d: position %d's prediction moved without its candidate", trial, i)
			}
		}
		if rec.Config != want[0].Config || math.Float64bits(rec.PredictedSeconds) != math.Float64bits(want[0].Predicted) {
			t.Fatalf("trial %d: recommends candidate %v, not the head", trial, rec.Config[0])
		}
	}
}
