package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lite/internal/core"
	"lite/internal/instrument"
	"lite/internal/retrieval"
	"lite/internal/sparksim"
	"lite/internal/workload"
	"lite/pkg/api"
)

// testStore builds a retrieval store from one measured run per named app.
func testStore(t testing.TB, apps ...string) *retrieval.Store {
	t.Helper()
	env := sparksim.ClusterC
	var runs []instrument.AppInstance
	for _, name := range apps {
		app := workload.ByName(name)
		if app == nil {
			t.Fatalf("unknown workload %q", name)
		}
		run := instrument.Run(app.Spec, app.Spec.MakeData(512), env, sparksim.DefaultConfig())
		if run.Result.Failed {
			t.Fatalf("seed run for %s failed", name)
		}
		runs = append(runs, run)
	}
	return retrieval.BuildFromRuns(runs)
}

// specFeatures extracts a wire-shaped feature payload from a registered
// app's spec — what a client would send for an application this server has
// never heard of.
func specFeatures(app *workload.App) *api.AppFeatures {
	var code strings.Builder
	var ops []string
	for i := range app.Spec.Stages {
		st := &app.Spec.Stages[i]
		code.WriteString(st.Code)
		code.WriteString("\n")
		ops = append(ops, st.Ops...)
	}
	return &api.AppFeatures{Code: code.String(), Ops: ops}
}

// TestDegradedTierCacheNotPinned is the regression test for the cache
// pinning bug: a non-NECS answer must expire on the short degraded TTL,
// not stay pinned for the full CacheTTL. On the old behaviour (full TTL
// for every tier) the third request below is still a hit and the test
// fails.
func TestDegradedTierCacheNotPinned(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	// A gutted tuner answers every request from the safe-default tier —
	// the permanently degraded worst case.
	s := New(&core.Tuner{}, Options{CacheTTL: 30 * time.Second, Now: clock})

	req := api.RecommendRequest{App: "WordCount", SizeMB: 512, Cluster: "C"}
	r1, err := s.RecommendCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Tier != string(core.TierSafeDefault) {
		t.Fatalf("tier = %q, want safe-default", r1.Tier)
	}
	if r1.Cached {
		t.Fatal("first request must not be a cache hit")
	}

	// Within the degraded TTL the answer is still served from cache.
	advance(time.Second)
	r2, err := s.RecommendCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("request 1s after a degraded answer should hit the cache")
	}

	// Past the degraded TTL but well within CacheTTL: the entry must be
	// gone, so the request re-scores against the (possibly recovered)
	// model instead of replaying the demoted answer.
	advance(3 * time.Second)
	r3, err := s.RecommendCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Fatal("degraded-tier answer was pinned past its short TTL (old caching behaviour)")
	}
}

// TestNECSTierStillCachesFullTTL pins the other half of the contract: a
// healthy NECS answer keeps the long TTL.
func TestNECSTierStillCachesFullTTL(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	tuner, _ := testTuner(t)
	s := New(tuner.CloneForUpdate(1), Options{CacheTTL: 30 * time.Second, Now: clock})
	req := api.RecommendRequest{App: "WordCount", SizeMB: 512, Cluster: "C"}
	r1, err := s.RecommendCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Tier != string(core.TierNECS) {
		t.Skipf("test tuner did not answer from NECS (tier %q)", r1.Tier)
	}
	advance(10 * time.Second) // far beyond degradedCacheTTL, inside CacheTTL
	r2, err := s.RecommendCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("NECS answer must stay cached for the full TTL")
	}
}

func TestFaultProfileFingerprintsDistinct(t *testing.T) {
	env := sparksim.ClusterC
	p1 := &sparksim.FaultProfile{TaskFailureProb: 0.01, StragglerProb: 0.05, StragglerMult: 3, MaxTaskFailures: 4, MaxStageAttempts: 2, Seed: 1}
	p2 := &sparksim.FaultProfile{TaskFailureProb: 0.20, StragglerProb: 0.05, StragglerMult: 3, MaxTaskFailures: 4, MaxStageAttempts: 2, Seed: 1}
	k0 := requestKey("WordCount", 512, env)
	k1 := requestKey("WordCount", 512, env.WithFaults(p1))
	k2 := requestKey("WordCount", 512, env.WithFaults(p2))
	if k0 == k1 || k0 == k2 {
		t.Fatalf("faulty and clean environments share a key: %q", k1)
	}
	if k1 == k2 {
		t.Fatalf("two distinct fault profiles share the request key %q — cache/routing entries collapse", k1)
	}
}

func TestUnseenAppServedFromRetrievalTier(t *testing.T) {
	store := testStore(t, "WordCount", "Terasort")
	s := New(&core.Tuner{}, Options{Retrieval: store})

	req := api.RecommendRequest{
		App:      "BrandNewWordCountLike",
		SizeMB:   2048,
		Cluster:  "C",
		Features: specFeatures(workload.ByName("WordCount")),
	}
	resp, err := s.RecommendCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tier != string(core.TierRetrieval) {
		t.Fatalf("tier = %q, want retrieval", resp.Tier)
	}
	if resp.App != "BrandNewWordCountLike" || resp.SizeMB != 2048 {
		t.Fatalf("response echoes app=%q size=%g", resp.App, resp.SizeMB)
	}
	cfg, err := ConfigFromMap(resp.Config)
	if err != nil {
		t.Fatal(err)
	}
	if !sparksim.Feasible(cfg, sparksim.ClusterC) {
		t.Fatal("cold recommendation infeasible")
	}

	// Unknown app without features stays a 400-class request error.
	_, err = s.RecommendCtx(context.Background(), api.RecommendRequest{App: "Mystery", SizeMB: 512, Cluster: "C"})
	var reqErr *RequestError
	if err == nil || !isRequestError(err, &reqErr) {
		t.Fatalf("featureless unknown app: err = %v, want RequestError", err)
	}

	// Unknown cluster still rejects even with features.
	req.Cluster = "Z"
	if _, err := s.RecommendCtx(context.Background(), req); err == nil {
		t.Fatal("unknown cluster must stay a request error")
	}
}

// isRequestError unwraps err into target, mirroring errors.As without
// importing it twice in this file's tests.
func isRequestError(err error, target **RequestError) bool {
	re, ok := err.(*RequestError)
	if ok {
		*target = re
	}
	return ok
}

// TestUnseenAppHTTP drives the full wire path: POST /v1/recommend for an
// unregistered app with features answers 200 with tier "retrieval".
func TestUnseenAppHTTP(t *testing.T) {
	store := testStore(t, "WordCount", "KMeans")
	s := newTestServer(t, Options{Retrieval: store})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(api.RecommendRequest{
		App:      "NeverRegistered",
		SizeMB:   1024,
		Cluster:  "C",
		Features: specFeatures(workload.ByName("KMeans")),
	})
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
	if resp.Tier != string(core.TierRetrieval) {
		t.Fatalf("tier = %q, want retrieval", resp.Tier)
	}

	// And without features the same app is still a 400.
	body, _ = json.Marshal(api.RecommendRequest{App: "NeverRegistered", SizeMB: 1024, Cluster: "C"})
	res2, err := http.Post(srv.URL+"/v1/recommend", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	if res2.StatusCode != http.StatusBadRequest {
		t.Fatalf("featureless status = %d, want 400", res2.StatusCode)
	}
}

func TestRoutingKeyUnknownApp(t *testing.T) {
	key, err := RoutingKey("NeverSeen", 0, "C")
	if err != nil {
		t.Fatalf("unknown app must still place consistently, got err %v", err)
	}
	want := requestKey("NeverSeen", coldDefaultSizeMB, sparksim.ClusterC)
	if key != want {
		t.Fatalf("key = %q, want %q", key, want)
	}
	// Stated sizes bucket exactly like registered apps.
	k1, _ := RoutingKey("NeverSeen", 900, "C")
	k2, _ := RoutingKey("NeverSeen", 1000, "C")
	if k1 != k2 {
		t.Fatalf("same-bucket sizes routed apart: %q vs %q", k1, k2)
	}
	// Unknown cluster is still an error: there is no environment to
	// fingerprint, so no meaningful placement exists.
	if _, err := RoutingKey("NeverSeen", 512, "Z"); err == nil {
		t.Fatal("unknown cluster must error")
	}
}
