package metrics

// This file adds the *runtime* metrics the serving subsystem exports —
// atomic counters, gauges and histograms with a Prometheus-style text
// exposition — alongside the paper's evaluation metrics (HR@K, NDCG, ETR)
// defined in metrics.go. Everything here is allocation-free on the hot
// path and safe for concurrent use.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down (e.g. the current model
// snapshot generation, the feedback-queue depth).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last value stored.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into cumulative-style buckets and tracks
// sum and count, like a Prometheus histogram. Observe is lock-free.
type Histogram struct {
	bounds []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// DefaultLatencyBuckets covers sub-millisecond cache hits up to multi-second
// cold recommendations (seconds).
var DefaultLatencyBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// NewHistogram builds a histogram over the given upper bounds (need not be
// sorted; a copy is taken). A nil/empty slice falls back to
// DefaultLatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Registry is a named collection of runtime metrics with text exposition.
// Metric names may carry Prometheus-style labels baked into the string,
// e.g. `http_requests_total{endpoint="recommend",code="200"}`. All
// methods are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	funcs  map[string]func() float64
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry, ready for concurrent use.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		funcs:  map[string]func() float64{},
		hists:  map[string]*Histogram{},
	}
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time (e.g. the scoring pool's current utilization). Registering the
// same name again replaces the callback. fn must be safe to call from any
// goroutine; it is invoked outside the registry lock, so it may itself
// read other metrics or locked state.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Histogram returns the histogram with the given name, creating it with the
// given bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// WriteText renders every metric in a Prometheus-compatible exposition
// format, sorted by name for deterministic output. Each metric family gets
// one `# TYPE` line (counter, gauge or histogram) ahead of its series, so
// strict parsers type the series instead of classifying them untyped.
func (r *Registry) WriteText(w io.Writer) error {
	// Copy name → pointer pairs while holding the lock: Counter/Gauge/
	// Histogram insert into these maps lazily on the hot path, so iterating
	// the live maps after unlocking would be a concurrent map read/write.
	r.mu.Lock()
	type counter struct {
		name string
		c    *Counter
	}
	type gauge struct {
		name string
		g    *Gauge
	}
	type hist struct {
		name string
		h    *Histogram
	}
	counters := make([]counter, 0, len(r.counts))
	for n, c := range r.counts {
		counters = append(counters, counter{n, c})
	}
	gauges := make([]gauge, 0, len(r.gauges))
	for n, g := range r.gauges {
		gauges = append(gauges, gauge{n, g})
	}
	funcs := make(map[string]func() float64, len(r.funcs))
	for n, fn := range r.funcs {
		funcs[n] = fn
	}
	hists := make([]hist, 0, len(r.hists))
	for n, h := range r.hists {
		hists = append(hists, hist{n, h})
	}
	r.mu.Unlock()

	// Gauge callbacks are evaluated here, outside the registry lock, and
	// merged with the stored gauges into one sorted section.
	type gaugeLine struct {
		name  string
		value float64
	}
	lines := make([]gaugeLine, 0, len(gauges)+len(funcs))
	for _, gg := range gauges {
		lines = append(lines, gaugeLine{gg.name, gg.g.Value()})
	}
	for n, fn := range funcs {
		lines = append(lines, gaugeLine{n, fn()})
	}

	// Sort by (family, full name), not the raw string: '{' sorts above
	// letters, so a plain string sort could interleave the labeled series
	// of one family with another family's — and strict parsers require a
	// family's series to be consecutive under its # TYPE line (emitted
	// exactly once per family, not per labeled series).
	familyOrder := func(a, b string) bool {
		fa, _ := splitLabels(a)
		fb, _ := splitLabels(b)
		if fa != fb {
			return fa < fb
		}
		return a < b
	}
	sort.Slice(counters, func(i, j int) bool { return familyOrder(counters[i].name, counters[j].name) })
	sort.Slice(lines, func(i, j int) bool { return familyOrder(lines[i].name, lines[j].name) })
	sort.Slice(hists, func(i, j int) bool { return familyOrder(hists[i].name, hists[j].name) })

	typeLine := func(lastFamily *string, name, kind string) error {
		family, _ := splitLabels(name)
		if family == *lastFamily {
			return nil
		}
		*lastFamily = family
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, kind)
		return err
	}

	var family string
	for _, cc := range counters {
		if err := typeLine(&family, cc.name, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", cc.name, cc.c.Value()); err != nil {
			return err
		}
	}
	family = ""
	for _, gl := range lines {
		if err := typeLine(&family, gl.name, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", gl.name, gl.value); err != nil {
			return err
		}
	}
	family = ""
	for _, hh := range hists {
		if err := typeLine(&family, hh.name, "histogram"); err != nil {
			return err
		}
		base, labels := splitLabels(hh.name)
		var cum uint64
		for i, b := range hh.h.bounds {
			cum += hh.h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", base, labels, trimFloat(b), cum); err != nil {
				return err
			}
		}
		cum += hh.h.counts[len(hh.h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", base, labels, cum); err != nil {
			return err
		}
		// The _sum/_count suffix attaches to the base name, before any
		// labels — `name_sum{a="b"}`, never `name{a="b"}_sum`.
		suffix := ""
		if labels != "" {
			suffix = "{" + strings.TrimSuffix(labels, ",") + "}"
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", base, suffix, hh.h.Sum(), base, suffix, hh.h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// splitLabels separates `name{a="b"}` into "name" and `a="b",` so bucket
// lines can append the le label; a plain name yields empty labels.
func splitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	inner := strings.TrimSuffix(name[i+1:], "}")
	if inner == "" {
		return name[:i], ""
	}
	return name[:i], inner + ","
}

// trimFloat formats a bucket bound compactly.
func trimFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}
