package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lite/internal/core"
	"lite/internal/serve"
	"lite/internal/session"
	"lite/pkg/api"
)

// fakeShard is an in-process stand-in for a liteserve shard: it serves the
// JSON /healthz contract, echoes /recommend and /feedback, and applies
// /admin/flip by adopting the requested generation.
type fakeShard struct {
	id         string
	createdAt  string // RFC3339 stamp its fake session list advertises
	srv        *httptest.Server
	gen        atomic.Uint64
	healthy    atomic.Bool
	recs       atomic.Int64
	feeds      atomic.Int64
	sessionOps atomic.Int64
	lastFlip   atomic.Value // api.FlipRequest
	// wedged makes /v1/admin/flip accept the request and never answer it
	// (until the caller gives up); flipsHeld counts those left hanging.
	wedged    atomic.Bool
	flipsHeld atomic.Int64
}

func newFakeShard(t *testing.T, id string) *fakeShard {
	t.Helper()
	f := &fakeShard{id: id, createdAt: fmt.Sprintf("2026-01-01T00:00:0%cZ", id[len(id)-1])}
	f.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !f.healthy.Load() {
			http.Error(w, "sick", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(api.HealthResponse{Status: "ok", Generation: f.gen.Load(), Follower: id != "shard0"})
	})
	mux.HandleFunc("/v1/recommend", func(w http.ResponseWriter, r *http.Request) {
		f.recs.Add(1)
		json.NewEncoder(w).Encode(map[string]any{"served_by": f.id, "generation": f.gen.Load()})
	})
	mux.HandleFunc("/v1/feedback", func(w http.ResponseWriter, r *http.Request) {
		f.feeds.Add(1)
		json.NewEncoder(w).Encode(map[string]any{"queued": true})
	})
	mux.HandleFunc("/v1/admin/flip", func(w http.ResponseWriter, r *http.Request) {
		if f.wedged.Load() {
			// Read the body first: the server notices a client that hangs
			// up (and cancels r.Context) only once the body is consumed.
			io.Copy(io.Discard, r.Body)
			f.flipsHeld.Add(1)
			<-r.Context().Done()
			return
		}
		var req api.FlipRequest
		json.NewDecoder(r.Body).Decode(&req)
		f.lastFlip.Store(req)
		f.gen.Store(req.Generation)
		json.NewEncoder(w).Encode(api.FlipResponse{Generation: req.Generation})
	})
	// Session endpoints: enough of the /v1/tuning/sessions contract for the
	// router's placement, fan-out list and promotion paths.
	mux.HandleFunc("POST /v1/tuning/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req api.CreateSessionRequest
		json.NewDecoder(r.Body).Decode(&req)
		json.NewEncoder(w).Encode(api.Session{
			ID:  session.FormatID(req.App, req.SizeMB, req.Cluster, 0xabc),
			App: req.App, SizeMB: req.SizeMB, Cluster: req.Cluster, State: "active",
		})
	})
	mux.HandleFunc("GET /v1/tuning/sessions", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.SessionListResponse{Sessions: []api.Session{
			{ID: f.id + "-sess", CreatedAt: f.createdAt},
		}})
	})
	mux.HandleFunc("/v1/tuning/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.sessionOps.Add(1)
		json.NewEncoder(w).Encode(api.Session{ID: r.PathValue("id"), State: "active"})
	})
	mux.HandleFunc("POST /v1/tuning/sessions/{id}/proposal", func(w http.ResponseWriter, r *http.Request) {
		f.sessionOps.Add(1)
		json.NewEncoder(w).Encode(api.ProposalResponse{SessionID: r.PathValue("id"), Trial: 1})
	})
	mux.HandleFunc("POST /v1/tuning/sessions/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		f.sessionOps.Add(1)
		json.NewEncoder(w).Encode(api.ReportResultResponse{
			SessionID: r.PathValue("id"), Trial: 1, Improved: true, Promoted: true,
			Promotion: &api.FeedbackRequest{App: "WordCount", SizeMB: 512, Cluster: "C"},
		})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func recommendBody(app, cluster string, sizeMB float64) []byte {
	b, _ := json.Marshal(map[string]any{"app": app, "size_mb": sizeMB, "cluster": cluster})
	return b
}

// testBodies is a spread of real (app, size, cluster) keys so requests
// land across several shards.
func testBodies() [][]byte {
	apps := []string{"WordCount", "KMeans", "PageRank", "TeraSort"}
	clusters := []string{"A", "B", "C"}
	sizes := []float64{256, 1024, 4096}
	var out [][]byte
	for i, app := range apps {
		for j, cl := range clusters {
			out = append(out, recommendBody(app, cl, sizes[(i+j)%len(sizes)]))
		}
	}
	return out
}

func post(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// TestRoutingKeyUnknownAppPlacement: an app absent from the workload
// registry must still hash to a proper (app, size bucket, env fingerprint)
// key — not the raw-field fallback — so unseen-app traffic served by the
// retrieval tier keeps one shard's cache hot instead of scattering.
func TestRoutingKeyUnknownAppPlacement(t *testing.T) {
	k1 := routingKey(recommendBody("NeverSeenApp", "C", 900))
	k2 := routingKey(recommendBody("NeverSeenApp", "C", 1000))
	if k1 != k2 {
		t.Fatalf("same-bucket sizes routed apart: %q vs %q", k1, k2)
	}
	want, err := serve.RoutingKey("NeverSeenApp", 900, "C")
	if err != nil {
		t.Fatalf("serve.RoutingKey: %v", err)
	}
	if k1 != want {
		t.Fatalf("router key %q diverges from serve.RoutingKey %q", k1, want)
	}
	// The raw-field fallback remains for bodies with no resolvable cluster.
	if got := routingKey(recommendBody("NeverSeenApp", "Nowhere", 900)); got == k1 {
		t.Fatal("unknown-cluster body must not share the placed key")
	}
}

// TestUnversionedPathsAre404: a shard and the router route only /v1 and
// /metrics, so each unversioned path of earlier releases answers 404.
func TestUnversionedPathsAre404(t *testing.T) {
	handlers := []struct {
		name string
		h    http.Handler
	}{
		{"serve", serve.New(&core.Tuner{}, serve.Options{EnableAdmin: true}).Handler()},
		{"router", NewRouter(Options{}).Handler()},
	}
	body := `{"app":"WordCount","size_mb":512,"cluster":"C"}`
	for _, tc := range handlers {
		for _, path := range []string{"/recommend", "/feedback", "/healthz", "/admin/flip"} {
			for _, method := range []string{http.MethodGet, http.MethodPost} {
				rec := httptest.NewRecorder()
				tc.h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
				if rec.Code != http.StatusNotFound {
					t.Errorf("%s: %s %s = %d, want 404", tc.name, method, path, rec.Code)
				}
			}
		}
	}
}

// TestSessionListWithNoShardUp: with no shard up the fleet cannot know
// which sessions exist, so the list answers 503 unavailable like
// /v1/recommend does, not an empty 200.
func TestSessionListWithNoShardUp(t *testing.T) {
	h := NewRouter(Options{}).Handler()
	for _, path := range []string{"/v1/tuning/sessions", "/v1/recommend"} {
		method := http.MethodGet
		if path == "/v1/recommend" {
			method = http.MethodPost
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(`{"app":"WordCount","size_mb":512,"cluster":"C"}`)))
		var env api.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s %s: body %q is not the envelope: %v", method, path, rec.Body, err)
		}
		if rec.Code != http.StatusServiceUnavailable || env.Error.Code != api.CodeUnavailable || env.Error.RetryAfterMS != 1000 {
			t.Fatalf("%s %s = %d %+v, want 503 unavailable retry_after_ms 1000", method, path, rec.Code, env.Error)
		}
	}
}

// TestRouterConsistentPlacement: the same body always lands on the same
// shard, and the key spread uses more than one shard.
func TestRouterConsistentPlacement(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard0"), newFakeShard(t, "shard1"), newFakeShard(t, "shard2")}
	rt := NewRouter(Options{})
	for _, f := range shards {
		rt.AddShard(f.id, f.srv.URL)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	used := map[string]bool{}
	for _, body := range testBodies() {
		var owner string
		for rep := 0; rep < 5; rep++ {
			resp := post(t, front.URL+"/v1/recommend", body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			got := resp.Header.Get("X-Lite-Shard")
			if owner == "" {
				owner = got
			} else if got != owner {
				t.Fatalf("body %s flapped %s -> %s", body, owner, got)
			}
		}
		used[owner] = true
	}
	if len(used) < 2 {
		t.Fatalf("all keys landed on one shard: %v", used)
	}
}

// TestRouterFailoverUnderTraffic kills one shard under concurrent load and
// requires zero client-visible errors: in-window requests re-route to ring
// successors on connection failure, and the health checker ejects the dead
// shard so later requests never try it.
func TestRouterFailoverUnderTraffic(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard0"), newFakeShard(t, "shard1"), newFakeShard(t, "shard2")}
	rt := NewRouter(Options{
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		FailAfter:     2,
		RecoverAfter:  2,
	})
	rt.readmitBackoffMin = 10 * time.Millisecond
	for _, f := range shards {
		rt.AddShard(f.id, f.srv.URL)
	}
	rt.Start()
	defer rt.Stop()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	bodies := testBodies()
	var failures atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(front.URL+"/v1/recommend", "application/json",
					bytes.NewReader(bodies[(w+i)%len(bodies)]))
				if err != nil {
					failures.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
				resp.Body.Close()
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	victim := shards[1]
	victim.srv.CloseClientConnections()
	victim.srv.Close()

	// Let the health checker notice and traffic continue through it.
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d client-visible failures across the shard kill, want 0 (successor re-route)", n)
	}
	if got := rt.Metrics().Counter("lite_fleet_ejections_total").Value(); got < 1 {
		t.Fatalf("dead shard never ejected (ejections=%d)", got)
	}

	// After the window the dead shard is out of the ring: its arc belongs
	// to successors and no request touches it.
	preRecs := victim.recs.Load()
	for _, body := range bodies {
		resp := post(t, front.URL+"/v1/recommend", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-window request failed: %d", resp.StatusCode)
		}
		if sh := resp.Header.Get("X-Lite-Shard"); sh == victim.id {
			t.Fatalf("request routed to dead shard %s after ejection", sh)
		}
	}
	if victim.recs.Load() != preRecs {
		t.Fatal("dead shard served requests after ejection")
	}
}

// TestRouterEjectAndReadmit: a shard whose /healthz starts failing is
// ejected after FailAfter probes; once healthy again it is re-admitted
// after its backoff plus RecoverAfter good probes, and its old arc comes
// back to it (ring ownership is a pure function of membership).
func TestRouterEjectAndReadmit(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard0"), newFakeShard(t, "shard1"), newFakeShard(t, "shard2")}
	rt := NewRouter(Options{
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		FailAfter:     2,
		RecoverAfter:  2,
	})
	rt.readmitBackoffMin = 20 * time.Millisecond
	for _, f := range shards {
		rt.AddShard(f.id, f.srv.URL)
	}
	rt.Start()
	defer rt.Stop()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", desc)
	}
	upGauge := rt.Metrics().Gauge(fmt.Sprintf("lite_fleet_shard_up{shard=%q}", "shard2"))

	shards[2].healthy.Store(false)
	waitFor("ejection", func() bool { return upGauge.Value() == 0 })
	if rt.ring.Len() != 2 {
		t.Fatalf("ring has %d members after ejection, want 2", rt.ring.Len())
	}

	shards[2].healthy.Store(true)
	waitFor("readmission", func() bool { return upGauge.Value() == 1 })
	if rt.ring.Len() != 3 {
		t.Fatalf("ring has %d members after readmission, want 3", rt.ring.Len())
	}
	if got := rt.Metrics().Counter("lite_fleet_readmissions_total").Value(); got < 1 {
		t.Fatalf("readmissions counter = %d, want >= 1", got)
	}
}

// TestCoordinatorFlipsFleet: when the trainer's generation advances, every
// other live shard is flipped to the trainer's published snapshot at that
// generation, and the fleet /healthz converges to one generation.
func TestCoordinatorFlipsFleet(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard0"), newFakeShard(t, "shard1"), newFakeShard(t, "shard2")}
	rt := NewRouter(Options{
		ProbeInterval:   10 * time.Millisecond,
		TrainerID:       "shard0",
		TrainerSnapshot: "/fleet/shard0/snapshot.json",
	})
	for _, f := range shards {
		rt.AddShard(f.id, f.srv.URL)
	}
	rt.Start()
	defer rt.Stop()

	shards[0].gen.Store(3) // the trainer publishes generation 3

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if shards[1].gen.Load() == 3 && shards[2].gen.Load() == 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if shards[1].gen.Load() != 3 || shards[2].gen.Load() != 3 {
		t.Fatalf("followers at generations %d/%d, want 3/3", shards[1].gen.Load(), shards[2].gen.Load())
	}
	flip, _ := shards[1].lastFlip.Load().(api.FlipRequest)
	if flip.SnapshotPath != "/fleet/shard0/snapshot.json" || flip.Generation != 3 {
		t.Fatalf("flip request = %+v, want trainer snapshot at generation 3", flip)
	}

	// The fleet /healthz reports one generation across live shards.
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(front.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var fh FleetHealth
		json.NewDecoder(resp.Body).Decode(&fh)
		resp.Body.Close()
		ok := fh.Status == "ok" && fh.Generation == 3 && len(fh.Shards) == 3
		for _, sh := range fh.Shards {
			ok = ok && sh.Up && sh.Generation == 3
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet health never converged to generation 3: %+v", fh)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFlipSurvivesAWedgedShard: a shard that accepts /v1/admin/flip and
// never answers costs the flip pass one flip deadline, not the fleet: the
// other follower still reaches the trainer's generation, and Stop returns
// at once even with a flip to the wedged shard in flight.
func TestFlipSurvivesAWedgedShard(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard0"), newFakeShard(t, "shard1"), newFakeShard(t, "shard2")}
	shards[1].wedged.Store(true)
	rt := NewRouter(Options{
		ProbeInterval:   10 * time.Millisecond,
		TrainerID:       "shard0",
		TrainerSnapshot: "/fleet/shard0/snapshot.json",
	})
	rt.flipTimeout = 100 * time.Millisecond
	for _, f := range shards {
		rt.AddShard(f.id, f.srv.URL)
	}
	rt.Start()
	defer rt.Stop()
	shards[0].gen.Store(3)

	deadline := time.Now().Add(5 * time.Second)
	for shards[2].gen.Load() != 3 || shards[1].flipsHeld.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("shard2 at generation %d, %d flips held by the wedged shard; want 3 and >= 2",
				shards[2].gen.Load(), shards[1].flipsHeld.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := rt.Metrics().Counter("lite_fleet_flip_errors_total").Value(); got < 1 {
		t.Fatalf("flip errors = %d, want >= 1 (the wedged shard's flips time out)", got)
	}

	stopped := make(chan struct{})
	go func() {
		rt.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not return within 2 s of a flip to a wedged shard")
	}
}

// TestStopMidFlipIsNotAFlipError: a flip that Stop cancels is shutdown,
// not a failure — it is neither counted in lite_fleet_flip_errors_total
// nor logged as one to retry.
func TestStopMidFlipIsNotAFlipError(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard0"), newFakeShard(t, "shard1")}
	shards[1].wedged.Store(true)
	var logged []string
	var logMu sync.Mutex
	rt := NewRouter(Options{
		ProbeInterval:   10 * time.Millisecond,
		TrainerID:       "shard0",
		TrainerSnapshot: "/fleet/shard0/snapshot.json",
		Logf: func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			logged = append(logged, fmt.Sprintf(format, args...))
		},
	})
	rt.flipTimeout = time.Minute // no flip ends before Stop
	for _, f := range shards {
		rt.AddShard(f.id, f.srv.URL)
	}
	rt.Start()
	shards[0].gen.Store(3)

	deadline := time.Now().Add(5 * time.Second)
	for shards[1].flipsHeld.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no flip reached the wedged shard")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rt.Stop()
	if got := rt.Metrics().Counter("lite_fleet_flip_errors_total").Value(); got != 0 {
		t.Fatalf("flip errors = %d after a clean Stop mid-flip, want 0", got)
	}
	logMu.Lock()
	defer logMu.Unlock()
	for _, l := range logged {
		if strings.Contains(l, "will retry") {
			t.Fatalf("a flip Stop cancelled was logged as a failure: %q", l)
		}
	}
}

// TestFeedbackGoesToTheTrainer: with a trainer designated, every feedback
// is answered by the trainer, synchronously — its count is exact when the
// last response returns — and no follower ever receives one, although the
// keys hash across the whole ring.
func TestFeedbackGoesToTheTrainer(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard0"), newFakeShard(t, "shard1"), newFakeShard(t, "shard2")}
	rt := NewRouter(Options{TrainerID: "shard0"})
	for _, f := range shards {
		rt.AddShard(f.id, f.srv.URL)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	bodies := testBodies()
	offTrainer := 0
	for _, b := range bodies {
		if rt.ring.Successors(routingKey(b), 1)[0] != "shard0" {
			offTrainer++
		}
	}
	if offTrainer == 0 {
		t.Fatal("every test key hashes to the trainer; the test would prove nothing")
	}
	for i, b := range bodies {
		resp := post(t, front.URL+"/v1/feedback", b)
		var ack api.FeedbackResponse
		json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !ack.Queued {
			t.Fatalf("feedback %d: status %d queued=%v, want 200 queued", i, resp.StatusCode, ack.Queued)
		}
		if sh := resp.Header.Get("X-Lite-Shard"); sh != "shard0" {
			t.Fatalf("feedback %d answered by %s, want the trainer shard0", i, sh)
		}
		if got := shards[0].feeds.Load(); got != int64(i+1) {
			t.Fatalf("trainer holds %d feedbacks after %d answers", got, i+1)
		}
	}
	for _, f := range shards[1:] {
		if got := f.feeds.Load(); got != 0 {
			t.Fatalf("follower %s received %d feedbacks, want 0", f.id, got)
		}
	}
}

// TestFeedbackWithTrainerDown: while the trainer cannot be reached,
// feedback answers 503 unavailable with Retry-After, so the client
// retries, and the router never hands the run to a follower instead.
func TestFeedbackWithTrainerDown(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard0"), newFakeShard(t, "shard1"), newFakeShard(t, "shard2")}
	rt := NewRouter(Options{TrainerID: "shard0"})
	for _, f := range shards {
		rt.AddShard(f.id, f.srv.URL)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	shards[0].srv.Close()

	for _, b := range testBodies() {
		resp := post(t, front.URL+"/v1/feedback", b)
		var env api.ErrorResponse
		err := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != api.CodeUnavailable {
			t.Fatalf("feedback with the trainer down = %d %+v (%v), want 503 unavailable", resp.StatusCode, env.Error, err)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("503 without Retry-After")
		}
	}
	for _, f := range shards {
		if got := f.feeds.Load(); got != 0 {
			t.Fatalf("shard %s received %d feedbacks, want 0", f.id, got)
		}
	}
}

// TestSessionRoutingAndPromotionTee: session sub-resource requests are
// placed by the routing key embedded in the session ID — always on the
// shard that created the session — and a promotion in a follower's result
// response is at the trainer's feedback endpoint before the result
// response returns. The fleet-wide GET merges every shard's list in
// CreatedAt order.
func TestSessionRoutingAndPromotionTee(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard0"), newFakeShard(t, "shard1"), newFakeShard(t, "shard2")}
	rt := NewRouter(Options{
		ProbeInterval: 10 * time.Millisecond,
		TrainerID:     "shard0",
	})
	for _, f := range shards {
		rt.AddShard(f.id, f.srv.URL)
	}
	rt.Start()
	defer rt.Stop()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Create sessions until one lands on a follower (the interesting case:
	// its promotions must be carried to the trainer).
	var sessID, owner string
	for _, b := range testBodies() {
		resp := post(t, front.URL+"/v1/tuning/sessions", b)
		var sess api.Session
		json.NewDecoder(resp.Body).Decode(&sess)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("create status %d", resp.StatusCode)
		}
		if sh := resp.Header.Get("X-Lite-Shard"); sh != "shard0" {
			sessID, owner = sess.ID, sh
			break
		}
	}
	if sessID == "" {
		t.Fatal("no session key hashed off the trainer")
	}

	// Every sub-resource call on that ID must land on the owning shard —
	// the router derives the key from the ID alone, no lookup table.
	for _, sub := range []string{"", "/proposal", "/result"} {
		var resp *http.Response
		if sub == "" {
			var err error
			resp, err = http.Get(front.URL + "/v1/tuning/sessions/" + sessID)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			resp = post(t, front.URL+"/v1/tuning/sessions/"+sessID+sub, []byte(`{"trial":1,"seconds":10}`))
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q status %d", sub, resp.StatusCode)
		}
		if sh := resp.Header.Get("X-Lite-Shard"); sh != owner {
			t.Fatalf("sub-resource %q routed to %s, owner is %s", sub, sh, owner)
		}
		if sub == "/result" {
			// The follower's result carried a Promotion; the router posted
			// it to the trainer before relaying the result.
			if got := shards[0].feeds.Load(); got != 1 {
				t.Fatalf("trainer holds %d feedbacks when the result returns, want the 1 promotion", got)
			}
			if got := rt.Metrics().Counter("lite_fleet_session_promotions_forwarded_total").Value(); got != 1 {
				t.Fatalf("promotions forwarded = %d, want 1", got)
			}
		}
	}

	// A malformed ID cannot be routed and must fail with the envelope, not
	// land on an arbitrary shard.
	resp := post(t, front.URL+"/v1/tuning/sessions/garbage/proposal", nil)
	var env api.ErrorResponse
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != api.CodeInvalidArgument {
		t.Fatalf("malformed id = (%d, %q), want (400, invalid_argument)", resp.StatusCode, env.Error.Code)
	}

	// A create without size_mb is rejected: the router would place it by a
	// key the session's ID cannot reproduce.
	resp = post(t, front.URL+"/v1/tuning/sessions", []byte(`{"app":"WordCount","cluster":"C"}`))
	env = api.ErrorResponse{}
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != api.CodeInvalidArgument {
		t.Fatalf("sizeless create = (%d, %q), want (400, invalid_argument)", resp.StatusCode, env.Error.Code)
	}

	// Fleet-wide list: one merged answer with every shard's sessions in
	// CreatedAt order.
	lresp, err := http.Get(front.URL + "/v1/tuning/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list api.SessionListResponse
	json.NewDecoder(lresp.Body).Decode(&list)
	lresp.Body.Close()
	if len(list.Sessions) != len(shards) {
		t.Fatalf("merged list has %d sessions, want %d (one per shard)", len(list.Sessions), len(shards))
	}
	for i := 1; i < len(list.Sessions); i++ {
		if list.Sessions[i-1].CreatedAt > list.Sessions[i].CreatedAt {
			t.Fatalf("merged list out of CreatedAt order: %+v", list.Sessions)
		}
	}
}
