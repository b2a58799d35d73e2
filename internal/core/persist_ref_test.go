package core

// Reference encoders for the snapshot format: Tuner.Save and the ACG's
// MarshalJSON as they were before the ACG's forests were encoded once per
// generator and the envelope written directly. Every case below must keep
// the snapshot byte-identical to them: the on-disk format has not changed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"lite/internal/forest"
	"lite/internal/sparksim"
	"lite/internal/workload"
)

// refACGJSON is the old acgJSON, fields in order.
type refACGJSON struct {
	Models     []*forest.Forest `json:"models"`
	Sigma      []float64        `json:"sigma"`
	AppIdx     map[string]int   `json:"app_idx"`
	NumApps    int              `json:"num_apps"`
	SigmaScale float64          `json:"sigma_scale"`
}

// refACGMarshal is the old CandidateGenerator.MarshalJSON: every forest
// encoded on every call.
func refACGMarshal(g *CandidateGenerator) ([]byte, error) {
	out := refACGJSON{AppIdx: g.appIdx, NumApps: g.numApps, SigmaScale: g.SigmaScale}
	for d := 0; d < sparksim.NumKnobs; d++ {
		out.Models = append(out.Models, g.models[d])
		out.Sigma = append(out.Sigma, g.sigma[d])
	}
	return json.Marshal(&out)
}

// refACG marshals a CandidateGenerator through refACGMarshal.
type refACG CandidateGenerator

func (g *refACG) MarshalJSON() ([]byte, error) { return refACGMarshal((*CandidateGenerator)(g)) }

// refTunerSave is the old Tuner.Save: the model encoded from a copy of
// every parameter, json.Marshal of the ACG, and both passed as
// json.RawMessage through a json.Encoder envelope.
func refTunerSave(t *Tuner, w io.Writer) error {
	var model bytes.Buffer
	if err := refModelSave(t.Model, &model); err != nil {
		return err
	}
	acg, err := json.Marshal((*refACG)(t.ACG))
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(&tunerFile{
		Format:        tunerFormat,
		Model:         model.Bytes(),
		ACG:           acg,
		NumCandidates: t.NumCandidates,
	})
}

// refModelSave is the old NECS.Save: a modelFile of copied parameters
// through a json.Encoder.
func refModelSave(m *NECS, w io.Writer) error {
	mf := modelFile{
		Format:  modelFormat,
		Config:  m.Cfg,
		Vocab:   m.Encoder.Vocab.Export(),
		OpVocab: m.Encoder.OpVocab.Export(),
		UseOOV:  m.Encoder.Vocab.UseOOV,
	}
	for _, p := range m.Params() {
		mf.Shapes = append(mf.Shapes, [2]int{p.Value.Rows, p.Value.Cols})
		mf.Params = append(mf.Params, append([]float64(nil), p.Value.Data...))
	}
	return json.NewEncoder(w).Encode(&mf)
}

// requireSameSnapshot saves t both ways and fails unless the bytes match.
func requireSameSnapshot(t *testing.T, what string, tuner *Tuner) []byte {
	t.Helper()
	var got, want bytes.Buffer
	if err := tuner.Save(&got); err != nil {
		t.Fatalf("%s: Save: %v", what, err)
	}
	if err := refTunerSave(tuner, &want); err != nil {
		t.Fatalf("%s: reference Save: %v", what, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("%s: snapshot differs from the reference at byte %d of %d/%d: …%q… vs …%q…",
			what, i, len(g), len(w), g[max(0, i-40):min(len(g), i+40)], w[max(0, i-40):min(len(w), i+40)])
	}
	return got.Bytes()
}

func snapshotTuner() (*Tuner, *Dataset) {
	apps := []*workload.App{workload.ByName("WordCount"), workload.ByName("KMeans")}
	opts := DefaultTrainOptions()
	opts.Collect.ConfigsPerInstance = 4
	opts.Collect.Sizes = []int{0, 1}
	opts.Collect.Clusters = []sparksim.Environment{sparksim.ClusterC}
	opts.NECS.Epochs = 1
	return Train(apps, opts)
}

func TestTunerSaveMatchesReferenceBytes(t *testing.T) {
	tuner, ds := snapshotTuner()
	first := requireSameSnapshot(t, "fresh Train", tuner)

	loaded, err := LoadTuner(bytes.NewReader(first), 1)
	if err != nil {
		t.Fatal(err)
	}
	if again := requireSameSnapshot(t, "LoadTuner round trip", loaded); !bytes.Equal(again, first) {
		t.Fatal("a loaded snapshot saves to different bytes")
	}

	// Two generations sharing one ACG, each retrained: the forests' cache
	// is shared, the weights are not.
	enc := EncodeAll(tuner.Model.Encoder, ds.Instances)
	gen1 := tuner.CloneForUpdate(2)
	AdaptiveModelUpdate(gen1.Model, enc[:8], enc[len(enc)-4:], DefaultAMUConfig(), rand.New(rand.NewSource(3)))
	gen2 := gen1.CloneForUpdate(4)
	AdaptiveModelUpdate(gen2.Model, enc[4:12], enc[:4], DefaultAMUConfig(), rand.New(rand.NewSource(5)))
	if gen1.ACG != tuner.ACG || gen2.ACG != tuner.ACG {
		t.Fatal("CloneForUpdate no longer shares the ACG; the test proves nothing")
	}
	b1 := requireSameSnapshot(t, "generation 1", gen1)
	b2 := requireSameSnapshot(t, "generation 2", gen2)
	if bytes.Equal(b1, b2) || bytes.Equal(b1, first) {
		t.Fatal("retrained generations saved the same bytes; the weights did not reach the snapshot")
	}
	var model, refModel bytes.Buffer
	if err := gen2.Model.Save(&model); err != nil {
		t.Fatal(err)
	}
	if err := refModelSave(gen2.Model, &refModel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(model.Bytes(), refModel.Bytes()) {
		t.Fatal("NECS.Save differs from the reference model encoder")
	}

	// The generations share the Encoder's memo of the vocabularies and
	// encoder weights; each input of those bytes that moves must reach
	// the file: one encoder weight one ulp away, the config, UseOOV.
	moved := gen2.CloneForUpdate(6)
	w := moved.Model.Code.Embedding.Value.Data
	w[0] = math.Nextafter(w[0], math.Inf(1))
	moved.Model.RefreshFingerprint()
	if ulp := requireSameSnapshot(t, "encoder weight one ulp away", moved); bytes.Equal(ulp, b2) {
		t.Fatal("an encoder weight one ulp away saved generation 2's bytes")
	}
	w[0] = math.Nextafter(w[0], math.Inf(-1))
	moved.Model.RefreshFingerprint()
	if back := requireSameSnapshot(t, "encoder weight moved back", moved); !bytes.Equal(back, b2) {
		t.Fatal("the weights of generation 2 saved other bytes the second time")
	}
	moved.Model.Cfg.Epochs++
	if cfg := requireSameSnapshot(t, "config changed", moved); bytes.Equal(cfg, b2) {
		t.Fatal("a changed config did not reach the snapshot")
	}
	moved.Model.Cfg.Epochs--
	vocab := moved.Model.Encoder.Vocab
	vocab.UseOOV = !vocab.UseOOV
	oov := requireSameSnapshot(t, "UseOOV changed", moved)
	vocab.UseOOV = !vocab.UseOOV
	if bytes.Equal(oov, b2) {
		t.Fatal("a changed UseOOV did not reach the snapshot")
	}

	// The forests are cached, the span scale is not.
	tuner.ACG.SigmaScale = 1.75
	scaled := requireSameSnapshot(t, "SigmaScale changed after the first save", tuner)
	if bytes.Equal(scaled, first) || !bytes.Contains(scaled, []byte(`"sigma_scale":1.75`)) {
		t.Fatal("a changed SigmaScale did not reach the snapshot")
	}
	reloaded, err := LoadTuner(bytes.NewReader(scaled), 1)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.ACG.SigmaScale != 1.75 {
		t.Fatalf("SigmaScale %v after reload, want 1.75", reloaded.ACG.SigmaScale)
	}
}

// UnmarshalJSON into a generator that has already encoded its forests
// must drop that encoding.
func TestACGUnmarshalResetsForestCache(t *testing.T) {
	a, _ := snapshotTuner()
	b, _ := concurrencyTuner(t)
	ab, err := json.Marshal(a.ACG)
	if err != nil {
		t.Fatal(err)
	}
	g := &CandidateGenerator{}
	if err := json.Unmarshal(ab, g); err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(g); err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b.ACG)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bb, g); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refACGMarshal(b.ACG)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("re-decoded ACG still encodes its previous forests")
	}
}

// Save encodes the ACG's forests on first use while serving reads sample
// from the same generator; run with -race.
func TestTunerSaveConcurrentWithSampling(t *testing.T) {
	tuner, _ := snapshotTuner()
	app := workload.ByName("KMeans")
	data := app.Spec.MakeData(app.Sizes.Train[0])
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c := tuner.ACG.SampleFeasible(app.Spec.Name, data, sparksim.ClusterC, 4, rng); len(c) != 4 {
					t.Errorf("sampled %d candidates, want 4", len(c))
					return
				}
			}
		}(int64(w))
	}
	var saves [3][]byte
	var sw sync.WaitGroup
	for i := range saves {
		sw.Add(1)
		go func(i int) {
			defer sw.Done()
			var buf bytes.Buffer
			if err := tuner.CloneForUpdate(int64(i)).Save(&buf); err != nil {
				t.Error(err)
			}
			saves[i] = buf.Bytes()
		}(i)
	}
	sw.Wait()
	close(stop)
	wg.Wait()
	for i := 1; i < len(saves); i++ {
		if !bytes.Equal(saves[i], saves[0]) {
			t.Fatalf("concurrent save %d differs from save 0", i)
		}
	}
	requireSameSnapshot(t, "after concurrent saves", tuner)
}

// corruptACGTree saves tuner, applies edit to the first ACG tree whose
// root is a split (decoded as a generic map), and re-encodes the snapshot.
func corruptACGTree(t *testing.T, tuner *Tuner, edit func(tree map[string]any)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tuner.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	for _, f := range snap["acg"].(map[string]any)["models"].([]any) {
		for _, tr := range f.([]any) {
			tree := tr.(map[string]any)
			if tree["leaf"].([]any)[0].(bool) {
				continue
			}
			edit(tree)
			b, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	t.Fatal("every ACG tree is a single leaf; the test proves nothing")
	return nil
}

// loadPromptly runs LoadTuner with a deadline: a snapshot that decodes
// into a cyclic tree must fail at load, not hang the first Predict.
func loadPromptly(t *testing.T, b []byte) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("sampling from the loaded tuner panicked: %v", r)
			}
		}()
		tuner, err := LoadTuner(bytes.NewReader(b), 1)
		if err == nil {
			// A load that wrongly succeeds must show what it loaded.
			app := workload.ByName("KMeans")
			tuner.ACG.SampleFeasible(app.Spec.Name, app.Spec.MakeData(app.Sizes.Train[0]), sparksim.ClusterC, 1, rand.New(rand.NewSource(1)))
		}
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("LoadTuner or sampling from what it loaded did not return within 10s")
		return nil
	}
}

func TestLoadTunerRejectsCraftedForests(t *testing.T) {
	tuner, _ := snapshotTuner()
	width := 2 + tuner.ACG.numApps
	for _, tc := range []struct {
		name string
		edit func(tree map[string]any)
		want string
	}{
		{"child points back at its parent", func(tree map[string]any) {
			tree["left"].([]any)[0] = 0
		}, "children"},
		{"split past the feature row", func(tree map[string]any) {
			tree["feature"].([]any)[0] = width
		}, fmt.Sprintf("feature %d of a %d-wide row", width, width)},
		{"negative split feature", func(tree map[string]any) {
			tree["feature"].([]any)[0] = -1
		}, "feature -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := loadPromptly(t, corruptACGTree(t, tuner, tc.edit))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadTuner error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}
