package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"lite/internal/forest"
	"lite/internal/instrument"
	"lite/internal/sparksim"
	"lite/internal/stats"
)

// CandidateGenerator implements Adaptive Candidate Generation (paper
// §IV-A): per knob d, a Random Forest Regression model maps (input
// datasize, application) to a promising "mean value" RFR^d(a_w, d_w); the
// search region is [RFR−σ^d, RFR+σ^d] where σ^d is the standard deviation
// of that knob over the top-40% fastest training application instances.
type CandidateGenerator struct {
	models  [sparksim.NumKnobs]*forest.Forest
	sigma   [sparksim.NumKnobs]float64
	appIdx  map[string]int
	numApps int

	// SigmaScale multiplies the span σ^d of every knob's search region
	// (1 = the paper's setting; the ablation benches sweep it).
	SigmaScale float64

	// forestsJSON memoizes the encoded models (see encodedForests).
	forestsMu   sync.Mutex
	forestsJSON []byte

	// centres is the centre table (DESIGN.md §12.6.1): every knob's forest
	// prediction per request key (centreKey → *sparksim.Config, see
	// centre), and centreCount its entries, at most maxCentres.
	centres     sync.Map
	centreCount atomic.Int64
}

// maxCentres bounds the centre table. A serving process asks for one key
// per (application, size bucket), a few hundred; past the cap a new key's
// forests are walked on every request, as they were before the table.
const maxCentres = 4096

// centreKey is everything the forests read of a request: the application's
// one-hot index (−1 for a name they were not fitted on, which reads as no
// application at all) and the two DataSpec fields their data features are
// computed from.
type centreKey struct {
	app   int
	rows  float64
	iters int
}

// keyOf returns the centre table's key for an application on the given data.
func (g *CandidateGenerator) keyOf(appName string, data sparksim.DataSpec) centreKey {
	k := centreKey{app: -1, rows: data.Rows, iters: data.Iterations}
	if i, ok := g.appIdx[appName]; ok {
		k.app = i
	}
	return k
}

// row builds the RFR input of a key: log-scaled datasize, iteration count
// and a one-hot application indicator.
func (g *CandidateGenerator) row(k centreKey) []float64 {
	f := make([]float64, 2+g.numApps)
	df := sparksim.DataSpec{Rows: k.rows, Iterations: k.iters}.Features()
	f[0] = df[0] // log rows
	f[1] = df[2] // iterations
	if k.app >= 0 {
		f[2+k.app] = 1
	}
	return f
}

// centre returns every knob's forest prediction for the application on the
// given data: the region's centre before SigmaScale and clamping. The
// forests never change after training or loading, so the walk runs once
// per key and later calls share its result, which nobody writes. A hit is
// a lock-free load; a miss walks outside any lock, and the first of
// concurrent misses on a key to publish wins. A key with NaN rows would
// never match itself, so it is walked and not stored.
func (g *CandidateGenerator) centre(appName string, data sparksim.DataSpec) *sparksim.Config {
	k := g.keyOf(appName, data)
	if c, ok := g.centres.Load(k); ok {
		return c.(*sparksim.Config)
	}
	f := g.row(k)
	c := new(sparksim.Config)
	for d := 0; d < sparksim.NumKnobs; d++ {
		c[d] = g.models[d].Predict(f)
	}
	if math.IsNaN(k.rows) {
		return c
	}
	if g.centreCount.Add(1) > maxCentres {
		g.centreCount.Add(-1)
		return c
	}
	won, loaded := g.centres.LoadOrStore(k, c)
	if loaded {
		g.centreCount.Add(-1)
	}
	return won.(*sparksim.Config)
}

// NewCandidateGenerator trains the per-knob RFR models from application
// runs. Only the top 40% of runs by execution time (per application) are
// used, so the models regress toward knob values that worked well.
func NewCandidateGenerator(runs []instrument.AppInstance, rng *rand.Rand) *CandidateGenerator {
	g := &CandidateGenerator{appIdx: map[string]int{}}
	for i := range runs {
		if _, ok := g.appIdx[runs[i].AppName]; !ok {
			g.appIdx[runs[i].AppName] = g.numApps
			g.numApps++
		}
	}

	// Select the top-40% fastest runs per application.
	byApp := map[string][]int{}
	for i := range runs {
		byApp[runs[i].AppName] = append(byApp[runs[i].AppName], i)
	}
	// Iterate apps in sorted order: the row order of the training matrix
	// feeds the forest's bootstrap sampling, so map-order iteration here
	// would make the fitted models (and every downstream recommendation)
	// vary run-to-run despite the fixed seed.
	appNames := make([]string, 0, len(byApp))
	for name := range byApp {
		appNames = append(appNames, name)
	}
	sort.Strings(appNames)
	var good []int
	for _, name := range appNames {
		idxs := byApp[name]
		sort.Slice(idxs, func(a, b int) bool {
			sa, sb := runs[idxs[a]].Result.Seconds, runs[idxs[b]].Result.Seconds
			if sa != sb {
				return sa < sb
			}
			return idxs[a] < idxs[b] // stable under timing ties (failure sentinels)
		})
		cut := (len(idxs)*2 + 4) / 5 // 40%, at least 1
		if cut < 1 {
			cut = 1
		}
		good = append(good, idxs[:cut]...)
	}

	x := make([][]float64, len(good))
	for j, i := range good {
		x[j] = g.row(g.keyOf(runs[i].AppName, runs[i].Data))
	}
	params := forest.ForestParams{NumTrees: 30, Tree: forest.TreeParams{MaxDepth: 8, MinSamplesLeaf: 2}}
	for d := 0; d < sparksim.NumKnobs; d++ {
		y := make([]float64, len(good))
		vals := make([]float64, len(good))
		for j, i := range good {
			y[j] = runs[i].Config[d]
			vals[j] = runs[i].Config[d]
		}
		g.models[d] = forest.FitForest(x, y, params, rng)
		g.sigma[d] = stats.StdDev(vals)
		if g.sigma[d] == 0 {
			// Degenerate: fall back to a tenth of the knob range.
			g.sigma[d] = (sparksim.Knobs[d].Max - sparksim.Knobs[d].Min) / 10
		}
	}
	return g
}

// Region returns the per-knob search interval [lo, hi] for the application
// on the given data (Equation 7).
func (g *CandidateGenerator) Region(appName string, data sparksim.DataSpec) (lo, hi sparksim.Config) {
	centre := g.centre(appName, data)
	scale := g.SigmaScale
	if scale <= 0 {
		scale = 1
	}
	for d := 0; d < sparksim.NumKnobs; d++ {
		center := centre[d]
		k := sparksim.Knobs[d]
		l := center - scale*g.sigma[d]
		h := center + scale*g.sigma[d]
		if l < k.Min {
			l = k.Min
		}
		if h > k.Max {
			h = k.Max
		}
		if l > h {
			l, h = h, l
		}
		lo[d] = l
		hi[d] = h
	}
	return lo, hi
}

// SampleFeasible draws n candidate configurations uniformly from the
// region of interest (paper: "we randomly sample a small number of
// candidates in the search space"), restricted to configurations that pass
// the environment's static allocation check (what the cluster manager rejects
// at submit time anyway); it retries rejected draws a bounded number of
// times and falls back to clamping executor memory/cores into capacity.
func (g *CandidateGenerator) SampleFeasible(appName string, data sparksim.DataSpec, env sparksim.Environment, n int, rng *rand.Rand) []sparksim.Config {
	lo, hi := g.Region(appName, data)
	return sampleRegion(make([]sparksim.Config, 0, n), n, lo, hi, env, rng)
}

// sampleRegion appends n feasible draws from [lo, hi] to out: the part of
// SampleFeasible that uses rng.
func sampleRegion(out []sparksim.Config, n int, lo, hi sparksim.Config, env sparksim.Environment, rng *rand.Rand) []sparksim.Config {
	for len(out) < n {
		var c sparksim.Config
		for attempt := 0; ; attempt++ {
			for d := 0; d < sparksim.NumKnobs; d++ {
				c[d] = lo[d] + rng.Float64()*(hi[d]-lo[d])
			}
			c = c.Clamp()
			// Feasible would clamp c again; Clamp is idempotent, so ask
			// Placement directly.
			if _, fits := sparksim.Placement(c, env); fits {
				break
			}
			if attempt >= 16 {
				c = ForceFeasible(c, env)
				break
			}
		}
		out = append(out, c)
	}
	return out
}

// ForceFeasible shrinks executor memory, overhead and cores until the
// configuration can be allocated on the environment.
func ForceFeasible(c sparksim.Config, env sparksim.Environment) sparksim.Config {
	c = c.Clamp()
	if c[sparksim.KnobExecutorCores] > float64(env.Cores) {
		c[sparksim.KnobExecutorCores] = float64(env.Cores)
	}
	for !sparksim.Feasible(c, env) && c[sparksim.KnobExecutorMemory] > sparksim.Knobs[sparksim.KnobExecutorMemory].Min {
		c[sparksim.KnobExecutorMemory]--
		if c[sparksim.KnobExecutorMemoryOverhead] > 1024 {
			c[sparksim.KnobExecutorMemoryOverhead] = 1024
		}
	}
	return c.Clamp()
}

// acgJSON is the serialized form of the candidate generator.
type acgJSON struct {
	Models []*forest.Forest `json:"models"`
	acgSpans
}

// acgSpans is everything in acgJSON but the forests: small, and encoded
// on every MarshalJSON so a changed SigmaScale always shows.
type acgSpans struct {
	Sigma      []float64      `json:"sigma"`
	AppIdx     map[string]int `json:"app_idx"`
	NumApps    int            `json:"num_apps"`
	SigmaScale float64        `json:"sigma_scale"`
}

// MarshalJSON serializes the ACG state (per-knob forests, spans, app map).
func (g *CandidateGenerator) MarshalJSON() ([]byte, error) {
	return g.appendJSON(nil)
}

// appendJSON appends MarshalJSON's encoding to buf: the bytes
// json.Marshal(&acgJSON{…}) writes, with the forests taken from
// encodedForests and the other fields spliced in after them.
func (g *CandidateGenerator) appendJSON(buf []byte) ([]byte, error) {
	models, err := g.encodedForests()
	if err != nil {
		return nil, err
	}
	spans, err := json.Marshal(&acgSpans{Sigma: g.sigma[:], AppIdx: g.appIdx, NumApps: g.numApps, SigmaScale: g.SigmaScale})
	if err != nil {
		return nil, err
	}
	buf = append(buf, `{"models":`...)
	buf = append(buf, models...)
	buf = append(buf, ',')
	return append(buf, spans[1:]...), nil
}

// encodedForests returns the JSON array of the per-knob forests, encoded
// on first use. The forests never change after training, and every
// generation a serving tuner publishes shares them by pointer, so each
// snapshot would otherwise re-encode the same few hundred kilobytes.
// Safe for concurrent use; readers of the models never touch the cache.
func (g *CandidateGenerator) encodedForests() ([]byte, error) {
	g.forestsMu.Lock()
	defer g.forestsMu.Unlock()
	if g.forestsJSON == nil {
		b, err := json.Marshal(g.models[:])
		if err != nil {
			return nil, err
		}
		g.forestsJSON = b
	}
	return g.forestsJSON, nil
}

// UnmarshalJSON restores the ACG state. It rejects a state that would
// panic at sampling time: a missing forest, an application index outside
// [0, num_apps), or a split reading past the 2+num_apps feature row.
func (g *CandidateGenerator) UnmarshalJSON(b []byte) error {
	var in acgJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	if len(in.Models) != sparksim.NumKnobs || len(in.Sigma) != sparksim.NumKnobs {
		return fmt.Errorf("core: serialized ACG has %d models and %d sigmas, want %d",
			len(in.Models), len(in.Sigma), sparksim.NumKnobs)
	}
	if in.NumApps < 0 {
		return fmt.Errorf("core: serialized ACG has %d applications", in.NumApps)
	}
	for name, i := range in.AppIdx {
		if i < 0 || i >= in.NumApps {
			return fmt.Errorf("core: serialized ACG maps %q to index %d of %d applications", name, i, in.NumApps)
		}
	}
	width := 2 + in.NumApps
	for d, f := range in.Models {
		if f == nil {
			return fmt.Errorf("core: serialized ACG has no model for knob %d", d)
		}
		if mf := f.MaxFeature(); mf >= width {
			return fmt.Errorf("core: serialized ACG model %d splits on feature %d of a %d-wide row", d, mf, width)
		}
	}
	g.forestsMu.Lock()
	defer g.forestsMu.Unlock()
	for d := 0; d < sparksim.NumKnobs; d++ {
		g.models[d] = in.Models[d]
		g.sigma[d] = in.Sigma[d]
	}
	g.appIdx = in.AppIdx
	g.numApps = in.NumApps
	g.SigmaScale = in.SigmaScale
	g.forestsJSON = nil
	g.centres.Range(func(k, _ any) bool {
		g.centres.Delete(k)
		return true
	})
	g.centreCount.Store(0)
	return nil
}

// PointPrediction returns the raw RFR point estimate per knob — the "RFR"
// competitor of Table VIII(a), which recommends exactly this configuration.
func (g *CandidateGenerator) PointPrediction(appName string, data sparksim.DataSpec) sparksim.Config {
	return g.centre(appName, data).Clamp()
}
