package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"lite/internal/sparksim"
	"lite/internal/workload"
)

// tinySnapshot returns the Save bytes of a tuner trained for one epoch on
// WordCount's runs at one size on one cluster, with every NECS width cut
// to a few units: a snapshot of every section in a few kilobytes.
func tinySnapshot(tb testing.TB) []byte {
	tb.Helper()
	opts := DefaultTrainOptions()
	opts.NECS = NECSConfig{TokenLen: 8, EmbDim: 2, Kernels: []int{2, 3}, FiltersPerKernel: 2, CodeDim: 2,
		GCNHidden: []int{3, 2}, TowerFirst: 4, TowerMin: 2, Epochs: 1, BatchSize: 8, LR: 0.01}
	opts.Collect.ConfigsPerInstance = 1
	opts.Collect.Sizes = []int{0}
	opts.Collect.Clusters = []sparksim.Environment{sparksim.ClusterC}
	tuner, _ := Train([]*workload.App{workload.ByName("WordCount")}, opts)
	var buf bytes.Buffer
	if err := tuner.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// A snapshot whose model lists no shapes, or whose config asks for a
// negative width or a TokenLen no encoder can allocate, is an error, not a
// panic in LoadNECS, NewNECS or the first Recommend. The
// unmodified snapshot, with two kernel widths and two GCN layers, loads.
func TestLoadTunerRejectsMalformedModel(t *testing.T) {
	snap := string(tinySnapshot(t))
	if _, err := LoadTuner(strings.NewReader(snap), 1); err != nil {
		t.Fatalf("the tiny snapshot does not load: %v", err)
	}
	for _, c := range []struct{ name, old, new string }{
		{"no shapes", `"shapes":[[`, `"shapes":[],"x":[[`},
		{"negative EmbDim", `"EmbDim":2`, `"EmbDim":-1`},
		{"zero TowerMin", `"TowerMin":2`, `"TowerMin":0`},
		{"kernel wider than TokenLen", `"Kernels":[2,3]`, `"Kernels":[2,9]`},
		{"a wrong shape", `"shapes":[[30,2]`, `"shapes":[[30,3]`},
		{"one shape fewer than params", `,[1,1]],"params"`, `],"params"`},
		{"TokenLen past the ceiling", `"TokenLen":8`, `"TokenLen":4611686018427387904`},
	} {
		t.Run(c.name, func(t *testing.T) {
			if !strings.Contains(snap, c.old) {
				t.Fatalf("snapshot lacks %s", c.old)
			}
			if _, err := LoadTuner(strings.NewReader(strings.Replace(snap, c.old, c.new, 1)), 1); err == nil {
				t.Fatal("loaded")
			}
		})
	}
}

// FuzzLoadTuner: no input panics LoadTuner, and none makes it allocate
// more than a fixed multiple of the input's size: the model's tensors and
// the ACG's forests are sized by the values the file holds, never by a
// count it merely states.
func FuzzLoadTuner(f *testing.F) {
	snap := tinySnapshot(f)
	f.Add(snap)
	for _, n := range []int{0, 1, len(snap) / 3, len(snap) / 2, len(snap) - 2} {
		f.Add(snap[:n])
	}
	f.Add(bytes.Replace(snap, []byte(`"TokenLen":8`), []byte(`"TokenLen":4611686018427387904`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		LoadTuner(bytes.NewReader(data), 1)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+1<<20; got > limit {
			t.Fatalf("LoadTuner allocated %d bytes for a %d-byte input (limit %d)", got, len(data), limit)
		}
	})
}
