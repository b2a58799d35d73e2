package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lite/internal/core"
	"lite/internal/retrieval"
	"lite/internal/sparksim"
	"lite/internal/workload"
	"lite/pkg/api"
)

// serveRecommend posts req to /v1/recommend through h and returns the
// recorded response.
func serveRecommend(t *testing.T, h http.Handler, req api.RecommendRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/recommend", bytes.NewReader(body)))
	return rec
}

// checkEncoderBody fails unless rec holds a 200 recommend answer whose
// bytes are what json.NewEncoder writes for the struct the body decodes
// to, and returns that struct.
func checkEncoderBody(t *testing.T, name string, rec *httptest.ResponseRecorder) api.RecommendResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: Content-Type %q", name, ct)
	}
	var resp api.RecommendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("%s: handler wrote\n%s\njson.NewEncoder writes\n%s", name, rec.Body, want.Bytes())
	}
	return resp
}

// TestRecommendBodiesMatchEncodingJSON: every kind of answer the handler
// writes — a miss, a hit, a coalesced wait, the retrieval tier under a
// non-ASCII app name, and safe-default — is byte for byte what
// json.NewEncoder wrote for it.
func TestRecommendBodiesMatchEncodingJSON(t *testing.T) {
	s := newTestServer(t, Options{Retrieval: testStore(t, "WordCount", "KMeans")})
	h := s.Handler()
	req := api.RecommendRequest{App: "WordCount", SizeMB: 700, Cluster: "C"}
	if r := checkEncoderBody(t, "miss", serveRecommend(t, h, req)); r.Cached || r.PredictedSeconds == nil {
		t.Fatalf("miss: %+v", r)
	}
	if r := checkEncoderBody(t, "hit", serveRecommend(t, h, req)); !r.Cached || r.Tier != "necs" {
		t.Fatalf("hit: %+v", r)
	}
	for _, app := range []string{"NeverRegistered", "Spärk ジョブ <&> \u2028\u2029 \"q\" \\ \x7f\t"} {
		r := checkEncoderBody(t, "unseen "+app, serveRecommend(t, h, api.RecommendRequest{
			App: app, SizeMB: 1024, Cluster: "C", Features: specFeatures(workload.ByName("KMeans")),
		}))
		if r.App != app || r.Tier != string(core.TierRetrieval) {
			t.Fatalf("unseen %q: %+v", app, r)
		}
	}

	degraded := New(&core.Tuner{}, Options{})
	if r := checkEncoderBody(t, "safe-default", serveRecommend(t, degraded.Handler(), req)); r.Tier != string(core.TierSafeDefault) {
		t.Fatalf("safe-default: %+v", r)
	}

	// Coalesced: requests parked behind another caller's in-flight
	// computation of their key.
	const n = 3
	cs := newTestServer(t, Options{MaxInFlight: n, DisableCache: true})
	envC, _ := ClusterByName("C")
	key := requestKey(req.App, req.SizeMB, envC)
	release := holdKey(t, cs, key, scoreOf(t, cs, req))
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(req)
			recs[i] = httptest.NewRecorder()
			cs.Handler().ServeHTTP(recs[i], httptest.NewRequest(http.MethodPost, "/v1/recommend", bytes.NewReader(body)))
		}(i)
	}
	waitParked(t, cs.cache, key, n)
	release()
	wg.Wait()
	for i, rec := range recs {
		if r := checkEncoderBody(t, fmt.Sprintf("coalesced %d", i), rec); !r.Coalesced {
			t.Fatalf("coalesced %d: %+v", i, r)
		}
	}
}

// TestPostBodiesRejectTrailingData: every /v1 endpoint that reads a body
// takes exactly one JSON value. Trailing garbage or a second value is a
// 400 invalid_argument; trailing whitespace is fine.
func TestPostBodiesRejectTrailingData(t *testing.T) {
	h := newTestServer(t, Options{EnableAdmin: true}).Handler()
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	created := post("/v1/tuning/sessions", `{"app":"WordCount","cluster":"C","max_trials":8}`)
	var sess api.Session
	if err := json.Unmarshal(created.Body.Bytes(), &sess); err != nil || sess.ID == "" {
		t.Fatalf("create session: %d %s", created.Code, created.Body)
	}
	if rec := post("/v1/tuning/sessions/"+sess.ID+"/proposal", ""); rec.Code != http.StatusOK {
		t.Fatalf("proposal: %d %s", rec.Code, rec.Body)
	}

	for _, tc := range []struct{ path, body string }{
		{"/v1/recommend", `{"app":"WordCount","size_mb":512,"cluster":"C"}`},
		{"/v1/feedback", `{"app":"WordCount","size_mb":512,"cluster":"C"}`},
		{"/v1/tuning/sessions", `{"app":"WordCount","cluster":"C"}`},
		{"/v1/tuning/sessions/" + sess.ID + "/result", `{"trial":0,"seconds":100}`},
		{"/v1/admin/flip", `{"snapshot_path":"does-not-exist.json","generation":5}`},
	} {
		for _, tail := range []string{"garbage", tc.body, "{}", "]", `"x"`} {
			rec := post(tc.path, tc.body+tail)
			var env api.ErrorResponse
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &env) != nil ||
				env.Error.Code != api.CodeInvalidArgument || !strings.HasPrefix(env.Error.Message, "bad request body: ") {
				t.Fatalf("%s with trailing %q: %d %s, want 400 invalid_argument", tc.path, tail, rec.Code, rec.Body)
			}
		}
		// Whitespace after the value passes decoding; whatever the
		// endpoint answers then, it is not a body error.
		rec := post(tc.path, tc.body+" \n\t\r")
		if strings.Contains(rec.Body.String(), "bad request body") {
			t.Fatalf("%s with trailing whitespace: %d %s", tc.path, rec.Code, rec.Body)
		}
	}
}

// TestBadBodiesAnswerAsBefore: request bodies off the reflection-free
// recommend path — and bodies the other endpoints read — answer with the
// status, code and message the streaming json.Decoder gave them. The
// expected messages are that decoder's, recorded before bodies were read
// whole. The one deliberate difference is the last row: a body over 1 MiB
// is "request body too large" even when a complete value came first.
func TestBadBodiesAnswerAsBefore(t *testing.T) {
	h := newTestServer(t, Options{Retrieval: testStore(t, "WordCount", "KMeans")}).Handler()
	const unknownApp = ` (send features.code and/or features.ops to serve it from the retrieval tier)`
	big := strings.Repeat("a", 1<<20)
	for _, tc := range []struct {
		name, path, body string
		status           int
		message          string // the error message, or the answering app on a 200
	}{
		{"unknown field", "/v1/recommend", `{"app":"WordCount","size_mb":512,"cluster":"C","colour":"red"}`,
			400, `bad request body: json: unknown field "colour"`},
		{"unknown features field", "/v1/recommend", `{"app":"FreshApp","cluster":"C","features":{"code":"x","lang":"scala"}}`,
			400, `bad request body: json: unknown field "lang"`},
		{"upper-case key", "/v1/recommend", `{"APP":"WordCount","size_mb":512,"cluster":"C"}`, 200, "WordCount"},
		{"duplicate key", "/v1/recommend", `{"app":"Nope","app":"WordCount","size_mb":512,"cluster":"C"}`, 200, "WordCount"},
		{"features null", "/v1/recommend", `{"app":"FreshApp","cluster":"C","features":null}`,
			400, `unknown application "FreshApp"` + unknownApp},
		{"lone surrogate", "/v1/recommend", `{"app":"\ud800","cluster":"C"}`,
			400, "unknown application \"\ufffd\"" + unknownApp},
		{"invalid UTF-8", "/v1/recommend", "{\"app\":\"Word\xffCount\",\"cluster\":\"C\"}",
			400, "unknown application \"Word\ufffdCount\"" + unknownApp},
		{"number out of range", "/v1/recommend", `{"app":"WordCount","size_mb":1e400,"cluster":"C"}`,
			400, "bad request body: json: cannot unmarshal number 1e400 into Go struct field RecommendRequest.size_mb of type float64"},
		{"wrong type", "/v1/recommend", `{"app":"WordCount","cluster":"C","features":{"ops":"map"}}`,
			400, "bad request body: json: cannot unmarshal string into Go struct field AppFeatures.features.ops of type []string"},
		{"BOM", "/v1/recommend", "\xef\xbb\xbf{\"app\":\"WordCount\",\"cluster\":\"C\"}",
			400, "bad request body: invalid character 'ï' looking for beginning of value"},
		{"empty body", "/v1/recommend", ``, 400, "bad request body: EOF"},
		{"trailing data", "/v1/recommend", `{"app":"WordCount","cluster":"C"} {}`,
			400, "bad request body: unexpected data after the JSON value"},
		{"over 1 MiB", "/v1/recommend", `{"app":"FreshApp","cluster":"C","features":{"code":"` + big + `"}}`,
			400, "bad request body: http: request body too large"},
		{"feedback unknown field", "/v1/feedback", `{"app":"WordCount","size_mb":512,"cluster":"C","colour":"red"}`,
			400, `bad request body: json: unknown field "colour"`},
		{"feedback trailing data", "/v1/feedback", `{"app":"WordCount","cluster":"C"}x`,
			400, "bad request body: unexpected data after the JSON value"},
		{"session number out of range", "/v1/tuning/sessions", `{"app":"WordCount","cluster":"C","max_trials":1e400}`,
			400, "bad request body: json: cannot unmarshal number 1e400 into Go struct field CreateSessionRequest.max_trials of type int"},
		{"over 1 MiB after a complete value", "/v1/recommend", `{"app":"WordCount","cluster":"C"}` + strings.Repeat(" ", 1<<20),
			400, "bad request body: http: request body too large"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body)
		}
		if tc.status == http.StatusOK {
			var resp api.RecommendResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.App != tc.message {
				t.Fatalf("%s: %s, want an answer for %s", tc.name, rec.Body, tc.message)
			}
			continue
		}
		var env api.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != api.CodeInvalidArgument ||
			env.Error.Message != tc.message {
			t.Fatalf("%s: %s\nwant code %s, message %q", tc.name, rec.Body, api.CodeInvalidArgument, tc.message)
		}
	}
}

// TestKeysMatchFormattedKeys: the concatenated cache keys and the inlined
// feature hash equal the fmt / hash/fnv formulation they replaced, for the
// built-in clusters and for an environment with a fault profile.
func TestKeysMatchFormattedKeys(t *testing.T) {
	faulty := sparksim.ClusterB.WithFaults(&sparksim.FaultProfile{TaskFailureProb: 0.05, StragglerMult: 2.5, MaxTaskFailures: 4, Seed: 7})
	envs := append(append([]sparksim.Environment{}, sparksim.AllClusters...), faulty)
	features := []*api.AppFeatures{
		{Code: "val x = rdd.map(f)", Ops: []string{"map", "reduceByKey"}},
		{Code: "héllo\xff"},
		{Ops: []string{"", "a"}},
	}
	for _, env := range envs {
		for _, size := range []float64{0, 1, 700, 1 << 20} {
			want := fmt.Sprintf("%s|b%d|%s", "WordCount", retrieval.SizeBucket(size), retrieval.EnvFingerprint(env))
			if got := requestKey("WordCount", size, env); got != want {
				t.Fatalf("requestKey = %q, want %q", got, want)
			}
		}
		for _, f := range features {
			h := fnv.New64a()
			h.Write([]byte(f.Code))
			for _, op := range f.Ops {
				h.Write([]byte{0})
				h.Write([]byte(op))
			}
			if got := featureHash(f); got != h.Sum64() {
				t.Fatalf("featureHash(%+v) = %x, want %x", f, got, h.Sum64())
			}
		}
	}
}

// TestRequestCountersBySeries: the per-code counters resolved once per
// endpoint count every response under its code, from many goroutines,
// and expose exactly the series of the codes that occurred.
func TestRequestCountersBySeries(t *testing.T) {
	s := bareServer()
	codes := []int{http.StatusOK, http.StatusNotFound, http.StatusServiceUnavailable}
	h := s.instrument("mixed", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var code int
		fmt.Sscan(r.URL.Query().Get("code"), &code)
		w.WriteHeader(code)
	}))
	const workers, per = 4, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				code := codes[(w+i)%len(codes)]
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, fmt.Sprintf("/x?code=%d", code), nil))
			}
		}(w)
	}
	wg.Wait()
	var text bytes.Buffer
	s.reg.WriteText(&text)
	series := 0
	for _, line := range strings.Split(text.String(), "\n") {
		if strings.HasPrefix(line, `lite_http_requests_total{endpoint="mixed"`) {
			series++
		}
	}
	if series != len(codes) {
		t.Fatalf("%d lite_http_requests_total series for the endpoint, want %d:\n%s", series, len(codes), text.String())
	}
	for _, code := range codes {
		name := fmt.Sprintf(`lite_http_requests_total{endpoint="mixed",code="%d"}`, code)
		if got := s.reg.Counter(name).Value(); got != uint64(workers*per/len(codes)) {
			t.Fatalf("%s = %d, want %d", name, got, workers*per/len(codes))
		}
	}
}
