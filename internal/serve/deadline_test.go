package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lite/pkg/api"
)

// holdKey makes the test the singleflight leader for key: until release is
// called, every request for that key parks in the cache as a waiter; then
// the leader runs compute and hands them its result.
func holdKey(t *testing.T, s *Server, key string, compute func() (api.RecommendResponse, error)) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.cache.getOrDo(context.Background(), key, func() (api.RecommendResponse, error) {
			<-gate
			return compute()
		})
	}()
	waitInflight(t, s.cache, key)
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }); <-done }
	t.Cleanup(release)
	return release
}

// scoreOf is the computation the serving path runs on a miss of req's key.
func scoreOf(t *testing.T, s *Server, req api.RecommendRequest) func() (api.RecommendResponse, error) {
	t.Helper()
	r, err := resolve(req.App, req.SizeMB, req.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	return func() (api.RecommendResponse, error) { return s.score(context.Background(), r, req.Features) }
}

// TestEndToEndShedAndCancel exercises the full admission-control story on a
// real server: with MaxInFlight=1, the first request parks behind another
// caller's in-flight computation of its key, holding the only pipeline
// slot, so
//
//   - a second HTTP request is shed with 503 + Retry-After while
//     lite_requests_shed_total increments, and
//   - cancelling the parked request's context makes it return
//     context.Canceled promptly (it would otherwise wait for the leader
//     indefinitely), releasing the slot.
func TestEndToEndShedAndCancel(t *testing.T) {
	s := newTestServer(t, Options{MaxInFlight: 1, DisableCache: true})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Park request 1: it acquires the in-flight slot, finds its key being
	// computed and waits for that leader until cancelled.
	envC, _ := ClusterByName("C")
	holdKey(t, s, requestKey("WordCount", 512, envC), func() (api.RecommendResponse, error) {
		return api.RecommendResponse{}, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parked := make(chan error, 1)
	go func() {
		_, err := s.RecommendCtx(ctx, api.RecommendRequest{App: "WordCount", SizeMB: 512, Cluster: "C"})
		parked <- err
	}()
	waitFor(t, func() bool { return len(s.inflight) == 1 })

	// Request 2 (different key) must be shed immediately: 503, Retry-After,
	// and the shed counter moves.
	body, _ := json.Marshal(api.RecommendRequest{App: "KMeans", SizeMB: 1024, Cluster: "C"})
	res, err := http.Post(srv.URL+"/v1/recommend", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After header")
	}
	var e api.ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil || e.Error.Code != api.CodeOverloaded {
		t.Fatalf("shed response body: %+v err=%v", e, err)
	}
	if c := s.reg.Counter("lite_requests_shed_total").Value(); c != 1 {
		t.Fatalf("lite_requests_shed_total = %d, want 1", c)
	}
	// The in-process API sheds with the typed error.
	if _, err := s.RecommendCtx(context.Background(),
		api.RecommendRequest{App: "KMeans", SizeMB: 1024, Cluster: "C"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("in-process shed err = %v, want ErrOverloaded", err)
	}

	// Cancel the parked request: it must return promptly with
	// context.Canceled — the leader never finishes — and free the slot.
	cancel()
	select {
	case err := <-parked:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parked request err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled request still stuck in the pipeline")
	}
	if c := s.reg.Counter("lite_requests_cancelled_total").Value(); c != 1 {
		t.Fatalf("lite_requests_cancelled_total = %d, want 1", c)
	}
	waitFor(t, func() bool { return len(s.inflight) == 0 })
}

// TestEndToEndCancelWhileOthersComplete: several requests wait on one
// in-flight computation of their key. One is cancelled and returns
// context.Canceled promptly; then the leader itself gives up. Neither
// impatient caller kills the answer for the rest: the remaining waiters
// retry, one of them scores, and all of them complete normally.
func TestEndToEndCancelWhileOthersComplete(t *testing.T) {
	const others = 4
	s := newTestServer(t, Options{MaxInFlight: others + 1, DisableCache: true})
	envC, _ := ClusterByName("C")
	req := api.RecommendRequest{App: "WordCount", SizeMB: 256, Cluster: "C"}
	leaderGivesUp := holdKey(t, s, requestKey(req.App, req.SizeMB, envC), func() (api.RecommendResponse, error) {
		return api.RecommendResponse{}, context.Canceled
	})

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := s.RecommendCtx(ctx, req)
		cancelled <- err
	}()
	var wg sync.WaitGroup
	resps := make([]api.RecommendResponse, others)
	errs := make([]error, others)
	for i := 0; i < others; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.RecommendCtx(context.Background(), req)
		}(i)
	}
	waitParked(t, s.cache, requestKey(req.App, req.SizeMB, envC), others+1)

	cancel()
	select {
	case err := <-cancelled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled request did not detach")
	}

	leaderGivesUp()
	select {
	case <-waitGroupDone(&wg):
	case <-time.After(60 * time.Second):
		t.Fatal("remaining requests on the key did not complete")
	}
	for i := 0; i < others; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d err = %v", i, errs[i])
		}
		if resps[i].Tier == "" || resps[i].BatchSize != 1 || len(resps[i].Config) == 0 {
			t.Fatalf("request %d: tier=%q batch=%d config=%v, want a scored answer",
				i, resps[i].Tier, resps[i].BatchSize, resps[i].Config)
		}
	}
	if c := s.reg.Counter("lite_requests_cancelled_total").Value(); c != 1 {
		t.Fatalf("lite_requests_cancelled_total = %d, want 1 (only the caller that cancelled)", c)
	}
}

// waitGroupDone returns a channel closed once wg.Wait returns.
func waitGroupDone(wg *sync.WaitGroup) <-chan struct{} {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	return done
}

// TestDisabledCacheCoalescesSameKey: with the cache disabled, requests
// that arrive while their key is being scored share that one scoring pass
// — exactly one score call, coalesced=true on every request that waited —
// and the next request scores again because nothing was stored.
func TestDisabledCacheCoalescesSameKey(t *testing.T) {
	const n = 8
	s := newTestServer(t, Options{MaxInFlight: n, DisableCache: true})
	envC, _ := ClusterByName("C")
	req := api.RecommendRequest{App: "WordCount", SizeMB: 512, Cluster: "C"}
	scored := s.reg.Counter(`lite_recommendations_total{tier="necs"}`)

	// The leader is a real scoring pass, held at its start so the requests
	// below are certain to arrive while it is in flight.
	score := holdKey(t, s, requestKey(req.App, req.SizeMB, envC), scoreOf(t, s, req))

	var wg sync.WaitGroup
	resps := make([]api.RecommendResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.RecommendCtx(context.Background(), req)
		}(i)
	}
	waitParked(t, s.cache, requestKey(req.App, req.SizeMB, envC), n)
	score()
	wg.Wait()

	if got := scored.Value(); got != 1 {
		t.Fatalf("%d score calls for %d concurrent same-key requests, want exactly 1", got, n)
	}
	for i := range resps {
		if errs[i] != nil {
			t.Fatalf("request %d err = %v", i, errs[i])
		}
		if !resps[i].Coalesced || resps[i].Cached || resps[i].Tier != "necs" || resps[i].SizeMB != req.SizeMB {
			t.Fatalf("request %d: coalesced=%v cached=%v tier=%q size=%v", i,
				resps[i].Coalesced, resps[i].Cached, resps[i].Tier, resps[i].SizeMB)
		}
	}
	again, err := s.RecommendCtx(context.Background(), req)
	if err != nil || again.Cached || again.Coalesced || scored.Value() != 2 {
		t.Fatalf("follow-up request: resp=%+v err=%v score calls=%d, want a fresh uncoalesced score", again, err, scored.Value())
	}
}

// TestEndToEndRequestTimeout: with a server-imposed RequestTimeout already
// expired on arrival, the HTTP handler answers 504 and the deadline counter
// moves — the client's own context never fired.
func TestEndToEndRequestTimeout(t *testing.T) {
	s := newTestServer(t, Options{RequestTimeout: time.Nanosecond, DisableCache: true})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(api.RecommendRequest{App: "WordCount", SizeMB: 512, Cluster: "C"})
	res, err := http.Post(srv.URL+"/v1/recommend", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", res.StatusCode)
	}
	if c := s.reg.Counter("lite_requests_deadline_exceeded_total").Value(); c != 1 {
		t.Fatalf("lite_requests_deadline_exceeded_total = %d, want 1", c)
	}
	if c := s.reg.Counter(`lite_http_requests_total{endpoint="recommend",code="504"}`).Value(); c != 1 {
		t.Fatalf("504 status counter = %d, want 1", c)
	}
}
