package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// sampleResponse is a hit as the server writes it: sixteen knobs, a
// prediction, and every scalar field set.
func sampleResponse() RecommendResponse {
	p := 183.25
	cfg := map[string]float64{}
	for i, k := range strings.Fields("spark.executor.cores spark.executor.memory spark.executor.instances " +
		"spark.default.parallelism spark.driver.memory spark.driver.cores spark.memory.fraction " +
		"spark.memory.storageFraction spark.shuffle.compress spark.shuffle.spill.compress " +
		"spark.io.compression.codec spark.reducer.maxSizeInFlight spark.shuffle.file.buffer " +
		"spark.broadcast.blockSize spark.speculation spark.locality.wait") {
		cfg[k] = float64(i)*1.5 + 0.125
	}
	return RecommendResponse{
		App: "WordCount", SizeMB: 812.5, Cluster: "C", Config: cfg, PredictedSeconds: &p,
		Tier: "necs", Generation: 3, Cached: true, BatchSize: 1, OverheadMS: 0.004321,
	}
}

// checkAppend fails unless AppendRecommendResponse writes json.Marshal's
// bytes for r, or fails exactly when json.Marshal does.
func checkAppend(t *testing.T, r *RecommendResponse) {
	t.Helper()
	want, wantErr := json.Marshal(r)
	prefix := []byte("prefix")
	got, err := AppendRecommendResponse(prefix, r)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("append err = %v, json.Marshal err = %v", err, wantErr)
	}
	if err != nil {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("append extended dst on error: %q", got)
		}
		return
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("append wrote\n%s\njson.Marshal wrote\n%s", got[len(prefix):], want)
	}
}

// checkDecode fails unless DecodeRecommendResponse and json.Unmarshal
// agree on data, from the same starting value: both error or neither, and
// both leave the same value behind, float bits included.
func checkDecode(t *testing.T, data []byte, start RecommendResponse) {
	t.Helper()
	got, want := start, start
	if start.Config != nil {
		got.Config, want.Config = cloneMap(start.Config), cloneMap(start.Config)
	}
	err := DecodeRecommendResponse(data, &got)
	wantErr := json.Unmarshal(data, &want)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("decode %q: err = %v, json.Unmarshal err = %v", data, err, wantErr)
	}
	if !sameResponse(&got, &want) {
		t.Fatalf("decode %q:\n got %+v\nwant %+v", data, got, want)
	}
}

func cloneMap(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// sameResponse is reflect.DeepEqual with floats compared by bits, so −0
// and 0 differ.
func sameResponse(a, b *RecommendResponse) bool {
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	if (a.PredictedSeconds == nil) != (b.PredictedSeconds == nil) ||
		a.PredictedSeconds != nil && bits(*a.PredictedSeconds) != bits(*b.PredictedSeconds) {
		return false
	}
	if (a.Config == nil) != (b.Config == nil) || len(a.Config) != len(b.Config) {
		return false
	}
	for k, v := range a.Config {
		w, ok := b.Config[k]
		if !ok || bits(v) != bits(w) {
			return false
		}
	}
	ac, bc := *a, *b
	ac.PredictedSeconds, bc.PredictedSeconds, ac.Config, bc.Config = nil, nil, nil, nil
	return bits(ac.SizeMB) == bits(bc.SizeMB) && bits(ac.OverheadMS) == bits(bc.OverheadMS) &&
		reflect.DeepEqual(ac, bc)
}

func TestAppendRecommendResponseMatchesMarshal(t *testing.T) {
	r := sampleResponse()
	checkAppend(t, &r)
	r.PredictedSeconds, r.Config = nil, nil
	checkAppend(t, &r)
	r.Config = map[string]float64{}
	checkAppend(t, &r)
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e20, 1e21, 123456789e13,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1, 1.0 / 3} {
		r.SizeMB, r.OverheadMS = f, -f
		r.Config = map[string]float64{"k": f}
		checkAppend(t, &r)
	}
	for _, s := range []string{"", "plain", `quote" back\ slash`, "<tag>&amp;", "tab\tnl\ncr\rbs\bff\f",
		"\x00\x01\x1f\x7f", "caf\xc3\xa9", "bad\xff\xfeutf8", "\xe2\x80\xa8\xe2\x80\xa9", "\xed\xa0\x80", "日本語"} {
		r.App, r.Cluster, r.Tier = s, s+"x", "x"+s
		r.Config = map[string]float64{s: 1, s + "2": 2}
		checkAppend(t, &r)
	}
}

// jsonTags lists a struct type's JSON key names in declaration order.
func jsonTags(v any) []string {
	var tags []string
	rt := reflect.TypeOf(v)
	for i := 0; i < rt.NumField(); i++ {
		tags = append(tags, strings.Split(rt.Field(i).Tag.Get("json"), ",")[0])
	}
	return tags
}

// keysAt lists, in order, the keys of the objects nested depth levels
// deep in body (depth 1 is the top-level object).
func keysAt(t *testing.T, body []byte, depth int) []string {
	t.Helper()
	type frame struct{ obj, wantKey bool }
	var stack []frame
	var keys []string
	valueDone := func() {
		if n := len(stack); n > 0 && stack[n-1].obj {
			stack[n-1].wantKey = true
		}
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return keys
		}
		if err != nil {
			t.Fatal(err)
		}
		if n := len(stack); n > 0 && stack[n-1].wantKey && tok != json.Delim('}') {
			if n == depth {
				keys = append(keys, tok.(string))
			}
			stack[n-1].wantKey = false
			continue
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, frame{obj: true, wantKey: true})
		case json.Delim('['):
			stack = append(stack, frame{})
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
			valueDone()
		default:
			valueDone()
		}
	}
}

// TestCodecCoversEveryField: the hand-written encoders write one key per
// field of RecommendResponse, RecommendRequest and AppFeatures, in
// declaration order, and the decoders read each of them on their fast
// path. A field added to a struct fails here until both halves know it,
// even when its zero value would be omitted.
func TestCodecCoversEveryField(t *testing.T) {
	r := sampleResponse()
	body, err := AppendRecommendResponse(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	if keys, tags := keysAt(t, body, 1), jsonTags(RecommendResponse{}); !slices.Equal(keys, tags) {
		t.Fatalf("response encoder writes keys %q, struct has %q", keys, tags)
	}
	var out RecommendResponse
	if d := (reader{b: body}); !d.response(&out) || !sameResponse(&out, &r) {
		t.Fatalf("fast path did not read the full response back: %+v", out)
	}

	req := sampleRequest()
	body, err = AppendRecommendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	if keys, tags := keysAt(t, body, 1), jsonTags(RecommendRequest{}); !slices.Equal(keys, tags) {
		t.Fatalf("request encoder writes keys %q, struct has %q", keys, tags)
	}
	if keys, tags := keysAt(t, body, 2), jsonTags(AppFeatures{}); !slices.Equal(keys, tags) {
		t.Fatalf("request encoder writes features keys %q, struct has %q", keys, tags)
	}
	var in RecommendRequest
	if d := (reader{b: body}); !d.request(&in) || !sameRequest(&in, &req) {
		t.Fatalf("fast path did not read the full request back: %+v", in)
	}
}

// TestAppendConfigKeySetsConcurrently: answers whose knob sets differ —
// same size or not — keep their own sorted order when written from many
// goroutines at once, whatever key order the previous answer left behind.
func TestAppendConfigKeySetsConcurrently(t *testing.T) {
	sets := []map[string]float64{
		{"b": 1, "a": 2, "c": 3},
		{"b": 1, "a": 2, "d": 3},
		{"z": 1, "a": 2},
		sampleResponse().Config,
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m := sets[(g+i)%len(sets)]
				want, _ := json.Marshal(m)
				got, err := appendConfig(nil, m)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("appendConfig = %s, %v; want %s", got, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestAppendRecommendResponseRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 4; field++ {
			r := sampleResponse()
			switch field {
			case 0:
				r.SizeMB = f
			case 1:
				r.Config["spark.speculation"] = f
			case 2:
				*r.PredictedSeconds = f
			case 3:
				r.OverheadMS = f
			}
			_, err := AppendRecommendResponse(nil, &r)
			var uve *json.UnsupportedValueError
			if _, wantErr := json.Marshal(&r); wantErr == nil || err == nil || err.Error() != wantErr.Error() ||
				!errors.As(err, &uve) {
				t.Fatalf("field %d = %v: err = %v, want %v", field, f, err, wantErr)
			}
		}
	}
}

// decodeSeeds are bodies on and off the fast path: the server's own
// output, then every way a valid body can leave the flat shape, then
// inputs json.Unmarshal rejects.
var decodeSeeds = []string{
	`{}`, `null`, ` {} `, "{\n}\n", `[]`, `{`, `{}x`, `{} {}`, ``,
	`{"app":"WordCount","size_mb":512,"cluster":"C","config":{"a":1,"b":2.5},"predicted_seconds":1.5,"tier":"necs","generation":2,"cached":true,"coalesced":false,"batch_size":1,"overhead_ms":0.01}`,
	` { "app" : "x" , "config" : { } , "cached" : false } ` + "\n",
	`{"config":null}`, `{"predicted_seconds":null}`, `{"app":null}`, `{"size_mb":null}`, `{"config":{"a":null}}`,
	`{"app":"a","app":"b"}`, `{"config":{"a":1},"config":{"b":2}}`, `{"config":{"a":1,"a":2}}`,
	`{"APP":"x"}`, `{"App":"x","app":"y"}`, `{"unknown":1,"app":"x"}`, `{"unknown":{"nested":[1,2]}}`,
	"{\"app\":\"esc\x5c\"aped\"}", "{\"app\":\"\x5cu00e9\x5cu2028\"}", `{"app":"esc\x5c"aped"}`, `{"app":"caf` + "\xc3\xa9" + `"}`, `{"app":"bad` + "\xff" + `"}`,
	`{"app":"ctl` + "\x01" + `"}`, `{"app":"` + "\xe2\x80\xa8" + `"}`, `{"app":"` + "\xed\xa0\x80" + `"}`,
	`{"size_mb":-0}`, `{"size_mb":1e-7}`, `{"size_mb":1E+21}`, `{"size_mb":1e400}`, `{"size_mb":-1e-400}`,
	`{"size_mb":01}`, `{"size_mb":1.}`, `{"size_mb":.5}`, `{"size_mb":+1}`, `{"size_mb":0x10}`, `{"size_mb":NaN}`,
	`{"size_mb":"1"}`, `{"generation":-1}`, `{"generation":1.0}`, `{"generation":18446744073709551616}`,
	`{"batch_size":1e2}`, `{"batch_size":-9223372036854775808}`, `{"cached":1}`, `{"cached":tru}`, `{"cached":"true"}`,
	`{"app":"x",}`, `{"app":"x" "tier":"y"}`, `{,}`, "\xef\xbb\xbf{}", `{"config":[]}`, `{"config":{"a":"1"}}`,
}

func TestDecodeRecommendResponseMatchesUnmarshal(t *testing.T) {
	r := sampleResponse()
	body, err := AppendRecommendResponse(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	prefilled := RecommendResponse{App: "prefilled", Tier: "t", Generation: 7, Cached: true}
	withMap := prefilled
	withMap.Config = map[string]float64{"kept": 1}
	for _, seed := range append(decodeSeeds, string(body)) {
		for _, start := range []RecommendResponse{{}, prefilled, withMap} {
			checkDecode(t, []byte(seed), start)
		}
	}
}

// TestDecodeRecommendResponseFastPathAllocs pins the point of the fast
// path: a server body decodes with a handful of allocations (the string
// copy, the map, the prediction), not encoding/json's fifty.
func TestDecodeRecommendResponseFastPathAllocs(t *testing.T) {
	r := sampleResponse()
	body, _ := AppendRecommendResponse(nil, &r)
	body = append(body, '\n')
	allocs := testing.AllocsPerRun(100, func() {
		var out RecommendResponse
		if err := DecodeRecommendResponse(body, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("fast-path decode: %v allocs, want at most 8", allocs)
	}
}

func BenchmarkAppendRecommendResponse(b *testing.B) {
	r := sampleResponse()
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendRecommendResponse(buf[:0], &r)
	}
}

func BenchmarkDecodeRecommendResponse(b *testing.B) {
	r := sampleResponse()
	body, _ := AppendRecommendResponse(nil, &r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var out RecommendResponse
		if err := DecodeRecommendResponse(body, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzRecommendResponseCodec checks both halves against encoding/json:
// the response built from the fuzzed fields must append to json.Marshal's
// bytes, and the fuzzed body — as well as the appended one — must decode
// as json.Unmarshal decodes it.
func FuzzRecommendResponseCodec(f *testing.F) {
	r := sampleResponse()
	body, _ := AppendRecommendResponse(nil, &r)
	f.Add(body, "WordCount", "C", "necs", 512.0, 183.25, 0.004, uint64(3), 1, uint8(3), "spark.executor.cores", 4.0)
	for _, seed := range decodeSeeds {
		f.Add([]byte(seed), "", "", "", 0.0, 0.0, 0.0, uint64(0), 0, uint8(0), "", 0.0)
	}
	f.Add([]byte(`{}`), "<esc\"aped>&\\", "bad\xff", "\xe2\x80\xa8\xe2\x80\xa9", math.Copysign(0, -1), 1e-7, 1e21,
		uint64(math.MaxUint64), -1, uint8(1), "K\x00", math.NaN())
	f.Add([]byte(`{}`), "", "", "", math.Inf(1), 0.0, 0.0, uint64(0), 0, uint8(7), "", 0.0)
	f.Fuzz(func(t *testing.T, data []byte, app, cluster, tier string, size, pred, overhead float64,
		gen uint64, batch int, flags uint8, knob string, knobVal float64) {
		r := RecommendResponse{App: app, SizeMB: size, Cluster: cluster, Tier: tier, Generation: gen,
			Cached: flags&1 != 0, Coalesced: flags&2 != 0, BatchSize: batch, OverheadMS: overhead}
		if flags&4 != 0 {
			r.PredictedSeconds = &pred
		}
		if flags&8 == 0 {
			r.Config = map[string]float64{knob: knobVal, knob + app: size, "spark.x": pred}
		}
		checkAppend(t, &r)
		checkDecode(t, data, RecommendResponse{})
		checkDecode(t, data, RecommendResponse{App: "prefilled", Generation: 9})
		if enc, err := AppendRecommendResponse(nil, &r); err == nil {
			checkDecode(t, enc, RecommendResponse{})
		}
	})
}
