package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"lite/pkg/api"
)

// TestRecommendDecodesAnyValidJSON: Recommend reads the server's flat body
// on its fast path, and any other valid JSON exactly as json.Unmarshal
// reads it; a body json.Unmarshal rejects is a decoding error.
func TestRecommendDecodesAnyValidJSON(t *testing.T) {
	bodies := []string{
		`{"app":"WordCount","size_mb":512,"cluster":"C","config":{"b":2,"a":1},"predicted_seconds":3.5,"tier":"necs","generation":4,"cached":true,"coalesced":false,"batch_size":1,"overhead_ms":0.02}` + "\n",
		`{"App":"upper","CONFIG":{"x":1},"extra":[1,{"y":null}],"tier":"caf\u00e9 \"q\""}`,
		`{"app":"dup","app":"last","config":null}`,
		"  {\"size_mb\":1e-7}\n\n",
	}
	var body string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(body))
	}))
	defer srv.Close()
	cl := New(srv.URL)
	for _, body = range bodies {
		got, err := cl.Recommend(context.Background(), api.RecommendRequest{App: "x"})
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		var want api.RecommendResponse
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %+v\nwant %+v", body, got, want)
		}
	}
	for _, body = range []string{`{"app":"x"} trailing`, `{"app":`, `[]`} {
		if _, err := cl.Recommend(context.Background(), api.RecommendRequest{}); err == nil ||
			!strings.Contains(err.Error(), "client: decoding /v1/recommend response") {
			t.Fatalf("%q: err = %v, want a decoding error", body, err)
		}
	}
}
