package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"testing"
	"time"

	"lite/internal/retrieval"
	"lite/pkg/api"
)

// streamBytes is the wire form of the first n requests every generator of
// a workload produces for a seed: two readers, the open-loop stream, the
// arrival schedule, the sweep and the feedback keys.
func streamBytes(t *testing.T, w *workloadDef, seed int64, n int) []byte {
	t.Helper()
	keys := keyspace(seed)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	emit := func(st stream) {
		for i := 0; i < n; i++ {
			req, _ := st.next()
			if err := enc.Encode(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	emit(w.reader(seed, keys, 0))
	emit(w.reader(seed, keys, 1))
	emit(w.reader(seed, keys, -1))
	emit(feedbackKeys(seed, keys))
	if err := enc.Encode(poissonSchedule(subRNG(seed, w.name+"/arrivals"), w.openRate, time.Second)); err != nil {
		t.Fatal(err)
	}
	sweep := w.sweep(seed, keys)
	if err := enc.Encode(sweep[:n]); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := streamBytes(t, w, 7, 50), streamBytes(t, w, 7, 50)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed produced two different request streams", w.name)
		}
		if c := streamBytes(t, w, 8, 50); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 produced the same request stream", w.name)
		}
	}
}

func TestClientsDrawDifferentStreams(t *testing.T) {
	w := workloadByName("cold_miss")
	keys := keyspace(1)
	a, b := w.reader(1, keys, 0), w.reader(1, keys, 1)
	same := 0
	for i := 0; i < 100; i++ {
		ra, _ := a.next()
		rb, _ := b.next()
		if ra.App == rb.App && ra.SizeMB == rb.SizeMB && ra.Cluster == rb.Cluster {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("clients 0 and 1 agree on %d of 100 draws; their streams are not independent", same)
	}
}

func TestKeyspace(t *testing.T) {
	keys := keyspace(1)
	if len(keys) != 450 {
		t.Fatalf("%d keys, want 15 apps x 10 sizes x 3 clusters = 450", len(keys))
	}
	seen := map[api.RecommendRequest]bool{}
	for _, k := range keys {
		seen[k.request()] = true
	}
	if len(seen) != len(keys) {
		t.Fatalf("%d distinct keys of %d", len(seen), len(keys))
	}
}

// featureHash is internal/serve's cache-key fingerprint of a feature
// payload.
func featureHash(f *api.AppFeatures) uint64 {
	h := fnv.New64a()
	h.Write([]byte(f.Code))
	for _, op := range f.Ops {
		h.Write([]byte{0})
		h.Write([]byte(op))
	}
	return h.Sum64()
}

func TestUnseenPayloadsAreUniqueAndSpreadAcrossTheFloor(t *testing.T) {
	w := workloadByName("unseen_app")
	keys := keyspace(1)
	hashes := map[uint64]bool{}
	names := map[string]bool{}
	add := func(req api.RecommendRequest) {
		if req.Features == nil || req.Features.Code == "" || len(req.Features.Ops) == 0 {
			t.Fatalf("unseen request %q carries no features", req.App)
		}
		hashes[featureHash(req.Features)] = true
		names[req.App] = true
	}
	const perStream = 500
	var sims []float64
	for c := -1; c < 2; c++ {
		st := w.reader(1, keys, c)
		for i := 0; i < perStream; i++ {
			req, k := st.next()
			add(req)
			// Cosine similarity to the template the payload was derived from.
			a, b := retrieval.EmbedCode(req.Features.Code, req.Features.Ops), retrieval.EmbedApp(k.tmpl.Spec)
			var dot float64
			for j := range a {
				dot += a[j] * b[j]
			}
			sims = append(sims, dot)
		}
	}
	sweep := w.sweep(1, keys)
	for _, req := range sweep {
		add(req)
	}
	if want := 3*perStream + len(sweep); len(hashes) != want || len(names) != want {
		t.Fatalf("%d distinct feature hashes and %d distinct names over %d payloads", len(hashes), len(names), want)
	}
	near, far := 0, 0
	for _, s := range sims {
		if s > 0.8 {
			near++
		}
		if s < 0.6 {
			far++
		}
	}
	if near == 0 || far == 0 {
		t.Fatalf("similarity to the template does not vary: %d near, %d far of %d", near, far, len(sims))
	}
}

func TestRenameIdentsReplacesWholeWordsOnly(t *testing.T) {
	got := renameIdents("val data = dataSet.map(data => data_1)", []string{"data", "d_x"})
	if want := "val d_x = dataSet.map(d_x => data_1)"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestPoissonSchedule(t *testing.T) {
	due := poissonSchedule(subRNG(1, "t"), 1000, 10*time.Second)
	if n := len(due); n < 9500 || n > 10500 {
		t.Fatalf("%d arrivals in 10 s at 1000/s", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("due times go back at %d", i)
		}
	}
	if last := due[len(due)-1]; last >= 10*time.Second {
		t.Fatalf("arrival at %v is past the phase", last)
	}
}
