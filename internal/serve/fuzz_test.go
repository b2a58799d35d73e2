package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"lite/pkg/api"
)

// FuzzV1RequestBodies posts arbitrary bytes to every /v1 endpoint that
// reads a request body. Whatever the body, the server must not fail on
// its own account (no status >= 500 other than 503), and every rejection
// must carry the {"error":{"code":...}} envelope.
func FuzzV1RequestBodies(f *testing.F) {
	// A follower validates and acknowledges feedback without retraining,
	// so each input costs one request's work, not a model update.
	h := newTestServer(f, Options{Follower: true, Retrieval: testStore(f, "WordCount", "KMeans")}).Handler()
	for _, seed := range []string{
		`{"app":"WordCount","size_mb":512,"cluster":"C"}`,
		`{"app":"NeverSeen","cluster":"c","features":{"code":"sc.textFile(p).flatMap(_.split(\" \"))","ops":["textFile","flatMap"]}}`,
		`{"app":"WordCount","cluster":"C","config":{"spark.no.such.knob":1}}`,
		`{"app":"KMeans","size_mb":1e308,"cluster":"B"}`,
		`{"app":"WordCount","cluster":"Z"}`,
		`{"app":"WordCount","cluster":"C","strategy":"aggressive","max_trials":3,"safety_bound":1.2}`,
		`{"app":"WordCount","cluster":"C"} {}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/recommend", "/v1/feedback", "/v1/tuning/sessions"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
			}
			if rec.Code < 400 {
				continue
			}
			var env api.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
				t.Fatalf("POST %s %q: status %d without the error envelope: %s", path, body, rec.Code, rec.Body)
			}
		}
	})
}
