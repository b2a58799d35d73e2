package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
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

// TestRecommendSendsMarshalBytes: concurrent Recommend calls each send
// exactly json.Marshal's bytes for their own request, with a matching
// Content-Length — and a request the encoder rejects fails before
// anything is sent.
func TestRecommendSendsMarshalBytes(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		var req api.RecommendRequest
		if err == nil {
			err = json.Unmarshal(body, &req)
		}
		want, _ := json.Marshal(req)
		if err != nil || !bytes.Equal(body, want) || r.ContentLength != int64(len(body)) ||
			r.Header.Get("Content-Type") != "application/json" {
			t.Errorf("server got %q (Content-Length %d, err %v), want %q", body, r.ContentLength, err, want)
		}
		w.Write([]byte(`{"app":` + strconv.Quote(req.App) + `}`))
	}))
	defer srv.Close()
	cl := New(srv.URL)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				req := api.RecommendRequest{App: fmt.Sprintf("app-%d-%d", g, i), SizeMB: float64(i), Cluster: "C"}
				if i%2 == 1 {
					req.Features = &api.AppFeatures{Code: strings.Repeat("val x = \"<q>\"\n", i*g), Ops: []string{"map"}}
				}
				resp, err := cl.Recommend(context.Background(), req)
				if err != nil || resp.App != req.App {
					t.Errorf("%s: %+v, %v", req.App, resp, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := cl.Recommend(context.Background(), api.RecommendRequest{SizeMB: math.NaN()}); err == nil ||
		!strings.Contains(err.Error(), "client: encoding /v1/recommend request") {
		t.Fatalf("NaN size: err = %v, want an encoding error", err)
	}
}

// TestRecommendWritesRequestAtOnce: a recommend request leaves in one
// write, headers and body together. A body type the transport does not
// know as in-memory makes it flush the headers in a write of their own,
// and the server's first read then often finds no body.
func TestRecommendWritesRequestAtOnce(t *testing.T) {
	var writes []int
	cl := New("http://lite.test", WithHTTPClient(&http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		w := &writeCounter{}
		if err := r.Write(w); err != nil {
			return nil, err
		}
		writes = append(writes, w.n)
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
			Body: io.NopCloser(strings.NewReader(`{"app":"x"}`))}, nil
	})}))
	for _, req := range []api.RecommendRequest{
		{App: "WordCount", SizeMB: 512, Cluster: "C"},
		{App: "FreshApp", Cluster: "C", Features: &api.AppFeatures{Code: strings.Repeat("val x = \"<q>\"\n", 100), Ops: []string{"map"}}},
	} {
		writes = writes[:0]
		if _, err := cl.Recommend(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if len(writes) != 1 || writes[0] != 1 {
			t.Fatalf("%s: the request took %v writes, want one", req.App, writes)
		}
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// writeCounter counts the writes a request is serialized in.
type writeCounter struct{ n int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.n++
	return len(p), nil
}
