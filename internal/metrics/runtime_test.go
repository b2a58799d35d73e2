package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("reqs_total").Inc()
				r.Gauge("gen").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("reqs_total").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if g := r.Gauge("gen").Value(); g < 0 || g > 999 {
		t.Fatalf("gauge = %g out of range", g)
	}
}

func TestHistogramCountAndMean(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%8) + 0.5) // uniform over [0.5, 7.5]
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if mean := h.Mean(); math.Abs(mean-4) > 0.2 {
		t.Fatalf("mean = %g, want ~4", mean)
	}
	// Over-the-top observations land in the +Inf bucket and still count.
	h2 := NewHistogram([]float64{1})
	h2.Observe(100)
	h2.Observe(math.NaN()) // ignored
	if h2.Count() != 1 {
		t.Fatalf("NaN observation counted")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count())
	}
	if math.Abs(h.Sum()-4.0) > 1e-9 {
		t.Fatalf("sum = %g, want 4.0", h.Sum())
	}
}

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter(`http_requests_total{endpoint="recommend",code="200"}`).Add(3)
	r.Counter(`http_requests_total{endpoint="recommend",code="400"}`).Add(1)
	r.Gauge("snapshot_generation").Set(2)
	h := r.Histogram(`http_request_seconds{endpoint="recommend"}`, []float64{0.01, 0.1})
	h.Observe(0.05)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE http_requests_total counter",
		"# TYPE snapshot_generation gauge",
		"# TYPE http_request_seconds histogram",
		`http_requests_total{endpoint="recommend",code="200"} 3`,
		`http_requests_total{endpoint="recommend",code="400"} 1`,
		"snapshot_generation 2",
		`http_request_seconds_bucket{endpoint="recommend",le="0.1"} 1`,
		`http_request_seconds_sum{endpoint="recommend"} 0.05`,
		`http_request_seconds_count{endpoint="recommend"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family, not per labeled series.
	if got := strings.Count(out, "# TYPE http_requests_total counter"); got != 1 {
		t.Fatalf("family http_requests_total has %d TYPE lines, want exactly 1:\n%s", got, out)
	}
	// The suffix must land before the label braces, never after.
	if strings.Contains(out, `}_count`) || strings.Contains(out, `}_sum`) {
		t.Fatalf("suffix after label braces is invalid exposition format:\n%s", out)
	}
}

// TestRegistryWriteTextFamiliesConsecutive: under a plain string sort,
// `name{` sorts after `namez` ('{' > 'z'), which would split a labeled
// family around another family's series. Strict parsers require every
// series of a family to sit under its single # TYPE line.
func TestRegistryWriteTextFamiliesConsecutive(t *testing.T) {
	r := NewRegistry()
	r.Counter(`reqs{code="200"}`).Inc()
	r.Counter(`reqs{code="400"}`).Inc()
	r.Counter("reqsz").Inc() // sorts between reqs{...} series on raw strings
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	first := strings.Index(out, `reqs{code="200"}`)
	second := strings.Index(out, `reqs{code="400"}`)
	other := strings.Index(out, "reqsz")
	if first < 0 || second < 0 || other < 0 {
		t.Fatalf("missing series:\n%s", out)
	}
	if other > first && other < second {
		t.Fatalf("family reqs split by reqsz:\n%s", out)
	}
}

// TestRegistryWriteTextConcurrentCreate scrapes the registry while metrics
// are being created lazily — under -race this catches WriteText reading the
// live maps outside the registry lock.
func TestRegistryWriteTextConcurrentCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter(names[(g*1000+i)%len(names)]).Inc()
				r.Gauge(names[(g*1000+i+1)%len(names)]).Set(1)
				r.Histogram(names[(g*1000+i+2)%len(names)], nil).Observe(0.01)
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

var names = func() []string {
	out := make([]string, 512)
	for i := range out {
		out[i] = "m" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
	}
	return out
}()
