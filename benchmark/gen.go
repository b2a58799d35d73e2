package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"lite/internal/feature"
	"lite/internal/sparksim"
	"lite/internal/workload"
	"lite/pkg/api"
)

// A key is one (app, datasize, cluster) the server caches and batches on.
// tmpl is the registered application whose simulator spec judges the
// answer: the app itself, or for an unseen-app request the app its code
// was derived from.
type key struct {
	tmpl    *workload.App
	sizeMB  float64
	cluster string
}

// keyspace is every registered app × sizes 64 MB … 32 GB (powers of two, so
// each is its own cache bucket and is scored at exactly that size) ×
// clusters A, B, C = 450 keys, in an order shuffled by the seed so the hot
// head of the Zipf draw differs between seeds.
func keyspace(seed int64) []key {
	var keys []key
	for _, app := range workload.All() {
		for mb := 64.0; mb <= 32768; mb *= 2 {
			for _, c := range []string{"A", "B", "C"} {
				keys = append(keys, key{tmpl: app, sizeMB: mb, cluster: c})
			}
		}
	}
	subRNG(seed, "keyspace").Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// subRNG derives an independent deterministic stream per purpose, so adding
// a draw to one generator never shifts another's.
func subRNG(seed int64, purpose string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, b := range []byte(purpose) {
		h = (h ^ int64(b)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}

// A stream yields one client's requests. Streams are deterministic in
// (seed, workload, client) and independent of timing: the n-th request of
// a client is the same on every run.
type stream interface {
	next() (api.RecommendRequest, key)
}

func (k key) request() api.RecommendRequest {
	return api.RecommendRequest{App: k.tmpl.Spec.Name, SizeMB: k.sizeMB, Cluster: k.cluster}
}

// zipfStream draws keys Zipf(1.3): a few keys take most of the traffic,
// the regime the recommendation cache exists for.
type zipfStream struct {
	keys []key
	z    *rand.Zipf
}

func newZipfStream(keys []key, rng *rand.Rand) *zipfStream {
	return &zipfStream{keys: keys, z: rand.NewZipf(rng, 1.3, 1, uint64(len(keys)-1))}
}

func (s *zipfStream) next() (api.RecommendRequest, key) {
	k := s.keys[s.z.Uint64()]
	return k.request(), k
}

// uniformStream draws keys uniformly.
type uniformStream struct {
	keys []key
	rng  *rand.Rand
}

func (s *uniformStream) next() (api.RecommendRequest, key) {
	k := s.keys[s.rng.Intn(len(s.keys))]
	return k.request(), k
}

// unseenStream invents applications the server has never registered. Each
// takes a registered app's stage code as a template, renames a seeded
// subset of its identifiers, replaces a seeded subset of its DAG operations
// and appends seeded extra lines. How far it strays is drawn per request
// (see mutate), so similarity to the
// nearest stored neighbour ranges from near 1 to below the retrieval
// floor, and both the retrieval tier and the safe-default fall-through are
// exercised. A per-stream serial number in the app name and in one
// appended identifier makes every payload's feature hash unique, so the
// cache (on) never hits.
type unseenStream struct {
	keys   []key
	rng    *rand.Rand
	tag    string
	serial int
}

func (s *unseenStream) next() (api.RecommendRequest, key) {
	k := s.keys[s.rng.Intn(len(s.keys))]
	s.serial++
	return unseenRequest(k, s.rng, fmt.Sprintf("%s_%d", s.tag, s.serial)), k
}

// unseenRequest asks about a never-registered application derived from k's.
func unseenRequest(k key, rng *rand.Rand, id string) api.RecommendRequest {
	code, ops := mutate(k.tmpl, rng, id)
	return api.RecommendRequest{
		App: "Unseen_" + id, SizeMB: k.sizeMB, Cluster: k.cluster,
		Features: &api.AppFeatures{Code: code, Ops: ops},
	}
}

// mutate derives a never-seen application from tmpl.
func mutate(tmpl *workload.App, rng *rand.Rand, id string) (string, []string) {
	var code strings.Builder
	var ops []string
	for i := range tmpl.Spec.Stages {
		st := &tmpl.Spec.Stages[i]
		code.WriteString(st.Code)
		code.WriteByte('\n')
		ops = append(ops, st.Ops...)
	}
	src := code.String()

	// Distinct identifiers, in sorted order so the draw below is a pure
	// function of the rng.
	seen := map[string]bool{}
	var idents []string
	for _, tok := range feature.Tokenize(src) {
		if !seen[tok] && isIdent(tok) {
			seen[tok] = true
			idents = append(idents, tok)
		}
	}
	sort.Strings(idents)

	// share is how far this application strays from its template: the
	// chance each identifier is renamed and each DAG operation replaced by
	// another from the catalogue, and the scale of the appended code.
	share := rng.Float64()
	if share > 0.9 {
		// One time in ten the application is a stub with next to nothing in
		// common with any stored one: a non-negative bag-of-tokens embedding
		// only falls to the retrieval floor when it has very few tokens.
		return fmt.Sprintf("probe_%s.%s()\n", id, ops[0]), []string{sparksim.OpNames()[rng.Intn(len(sparksim.OpCatalog))]}
	}
	var pairs []string
	for _, ident := range idents {
		if rng.Float64() < share {
			pairs = append(pairs, ident, fmt.Sprintf("%s_%x", ident, rng.Intn(1<<16)))
		}
	}
	out := renameIdents(src, pairs)
	catalogue := sparksim.OpNames()
	for i := range ops {
		if rng.Float64() < share {
			ops[i] = catalogue[rng.Intn(len(catalogue))]
		}
	}

	var extra strings.Builder
	fmt.Fprintf(&extra, "val probe_%s = sc.longAccumulator\n", id)
	for n := rng.Intn(int(share*40) + 1); n > 0; n-- {
		v := rng.Intn(1 << 20)
		fmt.Fprintf(&extra, "val aux_%x = stage_%x.mapPartitions(it_%x => it_%x.filter(keep_%x))\n", v, v+1, v+2, v+2, v+3)
	}
	return out + extra.String(), ops
}

func isIdent(tok string) bool {
	c := tok[0]
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// renameIdents replaces whole identifiers (never substrings of longer
// ones); pairs is old, new, old, new, ….
func renameIdents(src string, pairs []string) string {
	if len(pairs) == 0 {
		return src
	}
	to := make(map[string]string, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		to[pairs[i]] = pairs[i+1]
	}
	isWord := func(c byte) bool {
		return c == '_' || (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
	}
	var b strings.Builder
	for i := 0; i < len(src); {
		if !isWord(src[i]) {
			b.WriteByte(src[i])
			i++
			continue
		}
		j := i
		for j < len(src) && isWord(src[j]) {
			j++
		}
		word := src[i:j]
		if repl, ok := to[word]; ok {
			word = repl
		}
		b.WriteString(word)
		i = j
	}
	return b.String()
}

// poissonSchedule returns the due times, as offsets from the phase start,
// of a Poisson arrival process at rate per second lasting d: exponential
// gaps, so arrivals bunch the way independent users do.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// workloadDef is one traffic mix.
type workloadDef struct {
	name string
	why  string
	// openRate is the open-loop phase's arrival rate, requests/second:
	// fixed per workload at about a third of what the reference box
	// sustains closed-loop, so the queue never grows and the latency is the
	// unloaded service time plus honest arrival bunching.
	openRate float64
	// noCache is what `liteserve -no-cache` sets.
	noCache bool
	// unseen selects never-registered applications (retrieval tier).
	unseen bool
	// openShare and updateShare are the shares of the measuring time given
	// to the open-loop and update phases; the closed loop takes the rest.
	openShare, updateShare float64
	// zipf selects Zipf(1.3) key popularity; otherwise uniform.
	zipf bool
}

var workloads = []workloadDef{
	{
		name:     "hot_zipf",
		why:      "Zipf(1.3) over 450 keys, default options: ~all cache hits, so HTTP/JSON/admission/cache do the work and the model none",
		openRate: 2000, zipf: true, openShare: 0.20, updateShare: 0.25,
	},
	{
		name:     "cold_miss",
		why:      "uniform keys with the cache disabled: every request pays ACG sampling, encoder hoist, tower GEMM and the batch window",
		openRate: 150, noCache: true, openShare: 0.20, updateShare: 0.25,
	},
	{
		name:     "unseen_app",
		why:      "never-registered apps carrying mutated code: natural cache misses served by embed, ANN lookup and adapt, no NECS",
		openRate: 250, unseen: true, openShare: 0.20, updateShare: 0.25,
	},
	{
		name:     "feedback_swap",
		why:      "hot_zipf reads, then most of the run beside a writer posting feedback: WAL, retrain, validation gate, persist, cache flush",
		openRate: 2000, zipf: true, openShare: 0.15, updateShare: 0.60,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// reader returns client c's request stream.
func (w *workloadDef) reader(seed int64, keys []key, c int) stream {
	tag := fmt.Sprintf("%s/reader/%d", w.name, c)
	rng := subRNG(seed, tag)
	switch {
	case w.unseen:
		return &unseenStream{keys: keys, rng: rng, tag: fmt.Sprintf("s%d_c%d", seed, c)}
	case w.zipf:
		return newZipfStream(keys, rng)
	default:
		return &uniformStream{keys: keys, rng: rng}
	}
}

// sweep returns one request per key of the workload's keyspace, in key
// order: the fixed set over which rec_speedup_geomean is taken and on which
// every answer is executed on the simulator.
func (w *workloadDef) sweep(seed int64, keys []key) []api.RecommendRequest {
	reqs := make([]api.RecommendRequest, len(keys))
	rng := subRNG(seed, w.name+"/sweep")
	for i, k := range keys {
		if w.unseen {
			reqs[i] = unseenRequest(k, rng, fmt.Sprintf("s%d_sweep_%d", seed, i))
		} else {
			reqs[i] = k.request()
		}
	}
	return reqs
}

// feedbackKeys is the writer's stream: uniform over the registered
// keyspace on every workload (feedback for an unregistered app is a 400).
func feedbackKeys(seed int64, keys []key) stream {
	return &uniformStream{keys: keys, rng: subRNG(seed, "feedback")}
}

// geomean of positive values.
func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
