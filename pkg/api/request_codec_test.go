package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sampleCode is stage code shaped like an unseen-app request's: about
// 2 kB of Scala with quoted literals and newlines, so its JSON form
// carries a few dozen escapes.
var sampleCode = strings.Repeat(`val lines_7f3a = sc.textFile("hdfs://data/in/part-*").repartition(64)
val counts = lines_7f3a.flatMap(_.split(" ")).map(w => (w, 1)).reduceByKey(_ + _)
counts.filter { case (w, n) => n > 3 && w != "\t" }.saveAsTextFile("hdfs://out")
`, 7)

// sampleRequest is an unseen-app request with every field set.
func sampleRequest() RecommendRequest {
	return RecommendRequest{
		App: "Unseen_s1_c0_17", SizeMB: 2048, Cluster: "C",
		Features: &AppFeatures{Code: sampleCode, Ops: []string{"textFile", "repartition", "flatMap", "map", "reduceByKey", "filter", "saveAsTextFile"}},
	}
}

// sameRequest is reflect.DeepEqual with size_mb compared by bits.
func sameRequest(a, b *RecommendRequest) bool {
	ac, bc := *a, *b
	ac.SizeMB, bc.SizeMB = 0, 0
	return math.Float64bits(a.SizeMB) == math.Float64bits(b.SizeMB) && reflect.DeepEqual(ac, bc)
}

// strictDecode is the strict body decoder spelled out on its own:
// json.Decoder with DisallowUnknownFields, then nothing but whitespace.
func strictDecode(data []byte, r *RecommendRequest) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(r); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// checkAppendRequest fails unless AppendRecommendRequest writes
// json.Marshal's bytes for r, or fails exactly when json.Marshal does.
func checkAppendRequest(t *testing.T, r *RecommendRequest) {
	t.Helper()
	want, wantErr := json.Marshal(r)
	prefix := []byte("prefix")
	got, err := AppendRecommendRequest(prefix, r)
	if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
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

// cloneRequest copies r with its own features, so decoding into the copy
// leaves r as it was.
func cloneRequest(r RecommendRequest) RecommendRequest {
	if f := r.Features; f != nil {
		r.Features = &AppFeatures{Code: f.Code, Ops: append([]string(nil), f.Ops...)}
	}
	return r
}

// checkDecodeRequest fails unless DecodeRecommendRequest and the strict
// decoder agree on data from the same starting value: the same error or
// none, and the same value. It reports whether the fast path accepted
// data, after checking that whatever it accepts the strict decoder
// accepts with the same value.
func checkDecodeRequest(t *testing.T, data []byte, start RecommendRequest) (fast bool) {
	t.Helper()
	want := cloneRequest(start)
	wantErr := strictDecode(data, &want)
	if start.Features == nil {
		var out RecommendRequest
		d := reader{b: data}
		if fast = d.request(&out); fast {
			var strict RecommendRequest
			if err := strictDecode(data, &strict); err != nil || !sameRequest(&out, &strict) {
				t.Fatalf("fast path accepted %q as %+v; strict decoder: %+v, %v", data, out, strict, err)
			}
		}
	}
	got := cloneRequest(start)
	err := DecodeRecommendRequest(data, &got)
	if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("decode %q: err = %v, strict decoder err = %v", data, err, wantErr)
	}
	if err == nil && !sameRequest(&got, &want) {
		t.Fatalf("decode %q:\n got %+v\nwant %+v", data, got, want)
	}
	return fast
}

// requestSeeds are bodies on and off the request fast path: the flat
// shape with every escape, then every way a body leaves it — case,
// duplicates, null, surrogates, invalid UTF-8, numbers out of range, a
// BOM, trailing data — and malformed input.
var requestSeeds = []string{
	`{"app":"WordCount","size_mb":512,"cluster":"C"}`,
	` { "app" : "x" , "size_mb" : -0 , "cluster" : "c" , "features" : { "code" : "" , "ops" : [ ] } } ` + "\n\t\r",
	`{"features":{}}`, `{}`, `{"features":{"ops":["a","b"]}}`, `{"features":{"ops":[]}}`,
	`{"app":"esc \" \\ \/ \b \f \n \r \t \u00e9 \u00E9 \u2028 \u0000 \u003c"}`,
	`{"features":{"code":"val x = \"a\"\nval y = x.map(_ + 1)\n","ops":["map"]}}`,
	`{"app":"caf` + "\xc3\xa9" + ` 日本"}`,
	`{"APP":"WordCount"}`, `{"App":"x","app":"y"}`, `{"app":"x","app":"y"}`, `{"features":{"code":"a","code":"b"}}`,
	`{"features":{"ops":["a"]},"features":{"code":"b"}}`, `{"features":{"CODE":"a"}}`,
	`{"features":null}`, `{"app":null}`, `{"size_mb":null}`, `{"features":{"ops":null}}`, `{"features":{"ops":[null]}}`, `null`,
	`{"app":"\ud800"}`, `{"app":"\ud83d\ude00"}`, `{"app":"\udc00x"}`, `{"app":"bad` + "\xff" + `"}`, `{"app":"` + "\xed\xa0\x80" + `"}`,
	`{"app":"ctl` + "\x01" + `"}`, `{"app":"\x"}`, `{"app":"\u12"}`, `{"app":"\u12g4"}`, `{"app":"unterminated`, `{"app":"\`,
	`{"size_mb":1e400}`, `{"size_mb":-1e-400}`, `{"size_mb":1E+21}`, `{"size_mb":01}`, `{"size_mb":1.}`, `{"size_mb":.5}`,
	`{"size_mb":+1}`, `{"size_mb":"1"}`, `{"size_mb":NaN}`, `{"app":1}`, `{"features":[]}`, `{"features":{"ops":"map"}}`,
	"\xef\xbb\xbf{}", ``, ` `, `{`, `{}x`, `{} {}`, `{}]`, `[]`, `{"app":"x",}`, `{"app":"x" "cluster":"y"}`, `{,}`,
	`{"unknown":1}`, `{"app":"x","extra":{"nested":[1,2]}}`, `{"features":{"code":"x","lang":"scala"}}`,
	`{"\u0061pp":"x"}`, `{"app":"x"}` + "\x00",
}

func TestAppendRecommendRequestMatchesMarshal(t *testing.T) {
	r := sampleRequest()
	checkAppendRequest(t, &r)
	for _, f := range []*AppFeatures{nil, {}, {Code: "x"}, {Ops: []string{}}, {Ops: []string{"", "a"}}, {Code: "c", Ops: []string{"o"}}} {
		r.Features = f
		checkAppendRequest(t, &r)
	}
	for _, size := range []float64{0, math.Copysign(0, -1), 1e-7, 1e21, math.MaxFloat64, math.NaN(), math.Inf(-1)} {
		r.SizeMB = size
		checkAppendRequest(t, &r)
	}
	r.SizeMB = 1
	for _, s := range []string{"", `quote" back\ slash`, "<tag>&amp;", "tab\tnl\ncr\rbs\bff\f", "\x00\x1f\x7f",
		"bad\xff\xfeutf8", "\xe2\x80\xa8\xe2\x80\xa9", "\xed\xa0\x80", "日本語"} {
		r.App, r.Cluster = s, s+"x"
		r.Features = &AppFeatures{Code: s, Ops: []string{s, "x" + s}}
		checkAppendRequest(t, &r)
	}
}

func TestDecodeRecommendRequestMatchesStrict(t *testing.T) {
	r := sampleRequest()
	body, err := AppendRecommendRequest(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	if !checkDecodeRequest(t, body, RecommendRequest{}) {
		t.Fatalf("the fast path did not take an encoded request: %s", body)
	}
	prefilled := RecommendRequest{App: "prefilled", SizeMB: 3, Cluster: "B"}
	withFeatures := prefilled
	withFeatures.Features = &AppFeatures{Code: "kept", Ops: []string{"a", "b", "c"}}
	for _, seed := range requestSeeds {
		for _, start := range []RecommendRequest{{}, prefilled, withFeatures} {
			checkDecodeRequest(t, []byte(seed), start)
		}
	}
}

// TestDecodeRecommendRequestFastPathAllocs pins the point of the fast
// path: an unseen-app body decodes with four allocations — the kept
// strings' one buffer, the features, the ops slice and the destination,
// which escapes into the strict fallback — not encoding/json's thirty.
func TestDecodeRecommendRequestFastPathAllocs(t *testing.T) {
	r := sampleRequest()
	body, _ := AppendRecommendRequest(nil, &r)
	allocs := testing.AllocsPerRun(100, func() {
		var out RecommendRequest
		if err := DecodeRecommendRequest(body, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("fast-path decode: %v allocs, want at most 4", allocs)
	}
}

func BenchmarkDecodeRecommendRequest(b *testing.B) {
	r := sampleRequest()
	body, _ := AppendRecommendRequest(nil, &r)
	for _, bc := range []struct {
		name   string
		decode func([]byte, *RecommendRequest) error
	}{{"codec", DecodeRecommendRequest}, {"json", strictDecode}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var out RecommendRequest
				if err := bc.decode(body, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAppendRecommendRequest(b *testing.B) {
	r := sampleRequest()
	b.Run("codec", func(b *testing.B) {
		buf := make([]byte, 0, 4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = AppendRecommendRequest(buf[:0], &r)
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			json.Marshal(&r)
		}
	})
}

// FuzzRecommendRequestCodec checks both halves against encoding/json: the
// request built from the fuzzed fields must append to json.Marshal's
// bytes and decode back on the fast path, and the fuzzed body must decode
// as the strict decoder decodes it — whatever the fast path accepts, the
// strict decoder accepts with the same value and float bits, and both
// reject the same inputs with the same error.
func FuzzRecommendRequestCodec(f *testing.F) {
	r := sampleRequest()
	body, _ := AppendRecommendRequest(nil, &r)
	f.Add(body, r.App, r.Cluster, r.Features.Code, r.SizeMB, "map", "reduceByKey", uint8(3))
	for _, seed := range requestSeeds {
		f.Add([]byte(seed), "", "", "", 0.0, "", "", uint8(0))
	}
	f.Add([]byte(`{}`), "<esc\"aped>&\\", "bad\xff", "\xe2\x80\xa8\x00\t\"", math.Copysign(0, -1), "\xed\xa0\x80", "", uint8(7))
	f.Add([]byte(`{}`), "", "", "", math.NaN(), "", "", uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, app, cluster, code string, size float64, op1, op2 string, flags uint8) {
		r := RecommendRequest{App: app, SizeMB: size, Cluster: cluster}
		if flags&1 != 0 {
			r.Features = &AppFeatures{Code: code}
			switch flags >> 1 & 3 {
			case 1:
				r.Features.Ops = []string{}
			case 2:
				r.Features.Ops = []string{op1}
			case 3:
				r.Features.Ops = []string{op1, op2}
			}
		}
		checkAppendRequest(t, &r)
		checkDecodeRequest(t, data, RecommendRequest{})
		checkDecodeRequest(t, data, RecommendRequest{App: "prefilled", SizeMB: 9})
		if enc, err := AppendRecommendRequest(nil, &r); err == nil && !checkDecodeRequest(t, enc, RecommendRequest{}) {
			t.Fatalf("the fast path did not take an encoded request: %s", enc)
		}
	})
}
