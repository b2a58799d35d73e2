package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lite/internal/core"
	"lite/internal/retrieval"
	"lite/internal/sparksim"
	"lite/internal/workload"
	"lite/pkg/api"
)

var (
	testOnce   sync.Once
	testTunerV *core.Tuner
	testSource []*core.Encoded
)

// testTuner trains one deliberately tiny tuner shared by the whole test
// suite (training dominates test runtime; every test clones or snapshots
// what it needs and never mutates the shared instance in place).
func testTuner(t testing.TB) (*core.Tuner, []*core.Encoded) {
	t.Helper()
	testOnce.Do(func() {
		apps := []*workload.App{workload.ByName("WordCount"), workload.ByName("KMeans")}
		opts := core.DefaultTrainOptions()
		opts.Collect.ConfigsPerInstance = 2
		opts.Collect.Sizes = []int{0}
		opts.Collect.Clusters = []sparksim.Environment{sparksim.ClusterC}
		opts.NECS.Epochs = 2
		tuner, ds := core.Train(apps, opts)
		tuner.NumCandidates = 6
		testTunerV = tuner
		testSource = core.EncodeAll(tuner.Model.Encoder, ds.Instances[:24])
	})
	return testTunerV, testSource
}

// newTestServer builds a started server around a clone of the shared tuner.
func newTestServer(t testing.TB, opts Options) *Server {
	t.Helper()
	tuner, source := testTuner(t)
	if opts.SourceSample == nil {
		opts.SourceSample = source
	}
	s := New(tuner.CloneForUpdate(1), opts)
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		done := make(chan struct{})
		go func() { time.Sleep(120 * time.Second); close(done) }()
		if err := s.Shutdown(done); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func TestRecommendEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(api.RecommendRequest{App: "WordCount", SizeMB: 512, Cluster: "C"})
	res, err := http.Post(srv.URL+"/v1/recommend", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", res.StatusCode)
	}
	var resp api.RecommendResponse
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Tier == "" {
		t.Fatal("empty tier")
	}
	if len(resp.Config) != sparksim.NumKnobs {
		t.Fatalf("config has %d knobs, want %d", len(resp.Config), sparksim.NumKnobs)
	}
	cfg, err := ConfigFromMap(resp.Config)
	if err != nil {
		t.Fatal(err)
	}
	env, _ := ClusterByName("C")
	if !sparksim.Feasible(cfg, env) {
		t.Fatal("recommended configuration infeasible")
	}

	// Same key again: must be a cache hit.
	res2, err := http.Post(srv.URL+"/v1/recommend", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	var resp2 api.RecommendResponse
	if err := json.NewDecoder(res2.Body).Decode(&resp2); err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached {
		t.Fatal("second identical request not served from cache")
	}
	if got := s.Metrics().Counter("lite_cache_hits_total").Value(); got == 0 {
		t.Fatal("cache hit counter not incremented")
	}
}

func TestRecommendBadRequests(t *testing.T) {
	s := newTestServer(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"unknown app", `{"app":"Nope","cluster":"C"}`, http.StatusBadRequest},
		{"unknown cluster", `{"app":"WordCount","cluster":"Z"}`, http.StatusBadRequest},
		{"bad json", `{"app":`, http.StatusBadRequest},
		{"unknown field", `{"app":"WordCount","cluster":"C","nope":1}`, http.StatusBadRequest},
	} {
		res, err := http.Post(srv.URL+"/v1/recommend", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, res.StatusCode, tc.want)
		}
	}
	res, err := http.Get(srv.URL + "/v1/recommend")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/recommend: status = %d, want 405", res.StatusCode)
	}
}

func TestFeedbackHealthzMetricsEndpoints(t *testing.T) {
	s := newTestServer(t, Options{UpdateBatch: 100}) // never triggers a retrain here
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	res, err := http.Post(srv.URL+"/v1/feedback", "application/json",
		strings.NewReader(`{"app":"WordCount","size_mb":512,"cluster":"C"}`))
	if err != nil {
		t.Fatal(err)
	}
	var fb api.FeedbackResponse
	if err := json.NewDecoder(res.Body).Decode(&fb); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || !fb.Queued {
		t.Fatalf("feedback: status=%d queued=%v", res.StatusCode, fb.Queued)
	}

	res, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.HealthResponse
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: status=%d body=%+v", res.StatusCode, h)
	}

	res, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(res.Body)
	res.Body.Close()
	out := buf.String()
	for _, want := range []string{"lite_feedback_total", "lite_snapshot_generation", "lite_http_requests_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestFeedbackQueueFull(t *testing.T) {
	tuner, source := testTuner(t)
	// Unstarted server: the queue fills because nothing drains it.
	s := New(tuner.CloneForUpdate(2), Options{SourceSample: source})
	req := api.FeedbackRequest{App: "WordCount", SizeMB: 128, Cluster: "C"}
	for i := 0; i < feedbackQueueLen; i++ {
		if _, err := s.Feedback(req); err != nil {
			t.Fatalf("feedback %d: %v", i, err)
		}
	}
	if _, err := s.Feedback(req); err != ErrQueueFull {
		t.Fatalf("overflow feedback error = %v, want ErrQueueFull", err)
	}
}

// TestBucketSharersGetConsistentAnswers: two different sizes in one bucket
// must receive the same config/prediction (computed at the bucket's
// canonical size), while each response's size_mb echoes what its caller
// asked for — never the leader's size.
func TestBucketSharersGetConsistentAnswers(t *testing.T) {
	s := newTestServer(t, Options{})
	r600, err := s.Recommend(api.RecommendRequest{App: "WordCount", SizeMB: 600, Cluster: "C"})
	if err != nil {
		t.Fatal(err)
	}
	r1000, err := s.Recommend(api.RecommendRequest{App: "WordCount", SizeMB: 1000, Cluster: "C"})
	if err != nil {
		t.Fatal(err)
	}
	if !r1000.Cached {
		t.Fatal("1000 MB shares 600 MB's bucket and must hit its cache entry")
	}
	if r600.SizeMB != 600 || r1000.SizeMB != 1000 {
		t.Fatalf("size_mb must echo the caller's request: got %g and %g", r600.SizeMB, r1000.SizeMB)
	}
	for name, v := range r600.Config {
		if r1000.Config[name] != v {
			t.Fatalf("bucket sharers disagree on knob %s: %g vs %g", name, v, r1000.Config[name])
		}
	}
	if (r600.PredictedSeconds == nil) != (r1000.PredictedSeconds == nil) {
		t.Fatal("bucket sharers disagree on prediction presence")
	}
	if r600.PredictedSeconds != nil && *r600.PredictedSeconds != *r1000.PredictedSeconds {
		t.Fatalf("bucket sharers disagree on prediction: %g vs %g", *r600.PredictedSeconds, *r1000.PredictedSeconds)
	}
}

func TestSizeBucketAndKeys(t *testing.T) {
	if retrieval.SizeBucket(900) != retrieval.SizeBucket(1000) {
		t.Fatal("900 MB and 1000 MB should share a bucket")
	}
	if got := bucketSizeMB(retrieval.SizeBucket(600)); got != 1024 {
		t.Fatalf("canonical size for the 600 MB bucket = %g, want 1024", got)
	}
	if got := bucketSizeMB(retrieval.SizeBucket(512)); got != 512 {
		t.Fatalf("powers of two are their own canonical size: got %g for 512", got)
	}
	if retrieval.SizeBucket(1024) == retrieval.SizeBucket(100*1024) {
		t.Fatal("1 GB and 100 GB must not share a bucket")
	}
	envC, _ := ClusterByName("C")
	envA, _ := ClusterByName("A")
	if requestKey("X", 512, envC) == requestKey("X", 512, envA) {
		t.Fatal("different clusters must not share cache keys")
	}
	faulty := envC.WithFaults(sparksim.ScaledFaults(1, 3))
	if requestKey("X", 512, envC) == requestKey("X", 512, faulty) {
		t.Fatal("faulty and clean environments must not share cache keys")
	}
}

// A NaN or infinite size is a client error, answered at once: the size
// bucket of +Inf used to be a halving loop that never ended.
func TestRoutingKeyRejectsNonFiniteSizePromptly(t *testing.T) {
	for _, size := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		done := make(chan error, 1)
		go func() {
			_, err := RoutingKey("WordCount", size, "C")
			done <- err
		}()
		select {
		case err := <-done:
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("RoutingKey(size %g): error %v, want a *RequestError (400)", size, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("RoutingKey(size %g) did not return within 5 s", size)
		}
	}
}

// A size above MaxSizeMB is a client error on both the routing and the
// serving path: 1e300 MB used to be served by the NECS tier with a
// prediction of 0 s, and 1e308 MB scored at a bucket size of +Inf. A
// size within the bound, such as the benchmark's largest, still answers.
func TestSizeAboveTheBoundIsRejected(t *testing.T) {
	s := newTestServer(t, Options{})
	for _, size := range []float64{1e300, 1e308, 2 * MaxSizeMB} {
		var reqErr *RequestError
		if _, err := RoutingKey("WordCount", size, "C"); !errors.As(err, &reqErr) {
			t.Errorf("RoutingKey(size %g): error %v, want a *RequestError", size, err)
		}
		if _, err := s.Recommend(api.RecommendRequest{App: "WordCount", SizeMB: size, Cluster: "C"}); !errors.As(err, &reqErr) {
			t.Errorf("Recommend(size %g): error %v, want a *RequestError", size, err)
		}
	}
	for _, size := range []float64{32768, MaxSizeMB} {
		if _, err := RoutingKey("WordCount", size, "C"); err != nil {
			t.Errorf("RoutingKey(size %g): %v", size, err)
		}
		if resp, err := s.Recommend(api.RecommendRequest{App: "WordCount", SizeMB: size, Cluster: "C"}); err != nil || len(resp.Config) == 0 {
			t.Errorf("Recommend(size %g) = %+v, %v; want a configuration", size, resp, err)
		}
	}
}
