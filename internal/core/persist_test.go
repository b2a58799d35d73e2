package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"lite/internal/sparksim"
	"lite/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	apps := []*workload.App{workload.ByName("WordCount"), workload.ByName("PageRank")}
	ds := smallDataset(t, apps, 3, 31)
	cfg := fastConfig()
	rng := rand.New(rand.NewSource(32))
	enc := NewEncoder(ds.Instances, cfg)
	model := NewNECS(enc, cfg, rng)
	model.Fit(EncodeAll(enc, ds.Instances), rng)

	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadNECS(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Predictions must be bit-identical across the round trip.
	app := workload.ByName("PageRank").Spec
	d := app.MakeData(512)
	for i := 0; i < 10; i++ {
		c := sparksim.RandomConfig(rng)
		a := model.PredictApp(app, d, sparksim.ClusterC, c)
		b := loaded.PredictApp(app, d, sparksim.ClusterC, c)
		if math.Abs(a-b) > 1e-12*(1+math.Abs(a)) {
			t.Fatalf("prediction mismatch after load: %v vs %v", a, b)
		}
	}
}

func TestLoadRejectsWrongFormat(t *testing.T) {
	if _, err := LoadNECS(strings.NewReader(`{"format":"other"}`)); err == nil {
		t.Fatal("expected format error")
	}
	if _, err := LoadNECS(strings.NewReader(`not json`)); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestLoadRejectsCorruptedParams(t *testing.T) {
	apps := []*workload.App{workload.ByName("WordCount")}
	ds := smallDataset(t, apps, 2, 33)
	cfg := fastConfig()
	cfg.Epochs = 1
	rng := rand.New(rand.NewSource(34))
	enc := NewEncoder(ds.Instances, cfg)
	model := NewNECS(enc, cfg, rng)

	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncate the parameter list.
	s := buf.String()
	s = strings.Replace(s, `"params":[[`, `"params":[[999999],[`, 1)
	if _, err := LoadNECS(strings.NewReader(s)); err == nil {
		t.Fatal("expected corruption error")
	}
}

func TestSavePreservesVocabularies(t *testing.T) {
	apps := []*workload.App{workload.ByName("Terasort")}
	ds := smallDataset(t, apps, 2, 35)
	cfg := fastConfig()
	cfg.Epochs = 1
	rng := rand.New(rand.NewSource(36))
	enc := NewEncoder(ds.Instances, cfg)
	model := NewNECS(enc, cfg, rng)

	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadNECS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range []string{"sortByKey", "partitionBy", "TeraSortPartitioner"} {
		if loaded.Encoder.Vocab.ID(tok) != enc.Vocab.ID(tok) {
			t.Fatalf("token %q id changed across save/load", tok)
		}
	}
	if loaded.Encoder.OpVocab.Width() != enc.OpVocab.Width() {
		t.Fatal("op vocabulary width changed")
	}
}

func TestTunerSaveLoadRoundTrip(t *testing.T) {
	apps := []*workload.App{workload.ByName("WordCount"), workload.ByName("Terasort")}
	opts := DefaultTrainOptions()
	opts.NECS = fastConfig()
	opts.NECS.Epochs = 2
	opts.Collect.ConfigsPerInstance = 4
	opts.Collect.Clusters = []sparksim.Environment{sparksim.ClusterA, sparksim.ClusterC}
	opts.Collect.Sizes = []int{0, 3}
	tuner, _ := Train(apps, opts)

	var buf bytes.Buffer
	if err := tuner.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTuner(bytes.NewReader(buf.Bytes()), 99)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumCandidates != tuner.NumCandidates {
		t.Fatal("NumCandidates lost")
	}

	app := workload.ByName("Terasort")
	data := app.Spec.MakeData(app.Sizes.Test)

	// NECS predictions identical.
	cfg := sparksim.DefaultConfig()
	a := tuner.Model.PredictApp(app.Spec, data, sparksim.ClusterC, cfg)
	b := loaded.Model.PredictApp(app.Spec, data, sparksim.ClusterC, cfg)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("prediction differs after tuner load: %v vs %v", a, b)
	}
	// ACG regions identical.
	lo1, hi1 := tuner.ACG.Region("Terasort", data)
	lo2, hi2 := loaded.ACG.Region("Terasort", data)
	for d := 0; d < sparksim.NumKnobs; d++ {
		if math.Abs(lo1[d]-lo2[d]) > 1e-9 || math.Abs(hi1[d]-hi2[d]) > 1e-9 {
			t.Fatalf("ACG region differs for knob %d after load", d)
		}
	}
	// The loaded tuner must actually work.
	rec := loaded.Recommend(app.Spec, data, sparksim.ClusterC)
	if len(rec.Ranked) != loaded.NumCandidates {
		t.Fatal("loaded tuner cannot recommend")
	}
}

func TestLoadTunerRejectsBadInput(t *testing.T) {
	if _, err := LoadTuner(strings.NewReader("{}"), 1); err == nil {
		t.Fatal("expected format error")
	}
	if _, err := LoadTuner(strings.NewReader("garbage"), 1); err == nil {
		t.Fatal("expected decode error")
	}
}

// TestLoadTunerValidatesNumCandidates: num_candidates sizes every
// request's candidate draw, so LoadTuner rejects a value below 1 — a
// negative one panics every Recommend, and zero sends every answer to a
// fallback tier. A snapshot from before update_batch was retired (the same
// bytes with that field after num_candidates) still loads.
func TestLoadTunerValidatesNumCandidates(t *testing.T) {
	tuner := persistFaultTuner(t)
	var buf bytes.Buffer
	if err := tuner.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.String()
	field := fmt.Sprintf(`,"num_candidates":%d`, tuner.NumCandidates)
	if n := strings.Count(snap, field); n != 1 {
		t.Fatalf("snapshot holds %s %d times, want once", field, n)
	}
	cases := []struct {
		name, tail string
		ok         bool
	}{
		{"negative", `,"num_candidates":-3`, false},
		{"zero", `,"num_candidates":0`, false},
		{"missing", ``, false},
		{"with retired update_batch", field + `,"update_batch":10`, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			loaded, err := LoadTuner(strings.NewReader(strings.Replace(snap, field, c.tail, 1)), 1)
			switch {
			case !c.ok && err == nil:
				t.Fatalf("loaded with num_candidates %d", loaded.NumCandidates)
			case c.ok && err != nil:
				t.Fatal(err)
			case c.ok && loaded.NumCandidates != tuner.NumCandidates:
				t.Fatalf("NumCandidates %d, saved %d", loaded.NumCandidates, tuner.NumCandidates)
			}
		})
	}
}

// A tuner snapshot written before the data-parallel training option and
// the censoring weight were retired still loads: its model config carries
// both retired keys, which encoding/json ignores.
// testdata/necs_config_parent.json is that config exactly as the earlier
// code serialized it (default architecture, one epoch); the test splices
// it into a current snapshot of the same architecture and loads the
// result.
func TestLoadTunerIgnoresRetiredConfigKey(t *testing.T) {
	parentCfg, err := os.ReadFile("testdata/necs_config_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"FitWorkers":1`, `"CensoredWeight":0`} {
		if !bytes.Contains(parentCfg, []byte(key)) {
			t.Fatalf("the fixture lost the retired key %s; the test proves nothing", key)
		}
	}
	opts := DefaultTrainOptions()
	opts.NECS.Epochs = 1
	opts.Collect.ConfigsPerInstance = 1
	opts.Collect.Sizes = []int{0}
	opts.Collect.Clusters = []sparksim.Environment{sparksim.ClusterC}
	tuner, _ := Train([]*workload.App{workload.ByName("WordCount")}, opts)

	var buf bytes.Buffer
	if err := tuner.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var tf map[string]json.RawMessage
	var mf map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tf["model"], &mf); err != nil {
		t.Fatal(err)
	}
	mf["config"] = bytes.TrimSpace(parentCfg)
	if tf["model"], err = json.Marshal(mf); err != nil {
		t.Fatal(err)
	}
	snapshot, err := json.Marshal(tf)
	if err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadTuner(bytes.NewReader(snapshot), 1)
	if err != nil {
		t.Fatalf("snapshot with the retired config key: %v", err)
	}
	if !reflect.DeepEqual(loaded.Model.Cfg, tuner.Model.Cfg) {
		t.Fatalf("loaded config %+v, saved %+v", loaded.Model.Cfg, tuner.Model.Cfg)
	}
	if weightChecksum(loaded.Model) != weightChecksum(tuner.Model) {
		t.Fatal("weights changed across the round trip")
	}
}
