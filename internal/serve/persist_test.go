package serve

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lite/internal/core"
	"lite/internal/sparksim"
	"lite/internal/workload"
	"lite/pkg/api"
)

// TestSnapshotPersistRoundTrip drives the serve loop until it publishes and
// persists an adapted snapshot, then reloads the file with core.LoadTuner
// and checks the reloaded tuner produces bit-for-bit identical rankings on
// a fixed candidate set — the restart path must serve exactly what the
// crashed server was serving.
func TestSnapshotPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.json")
	s := newTestServer(t, Options{
		UpdateBatch:  2,
		SnapshotPath: path,
		Seed:         11,
	})

	for i := 0; i < 2; i++ {
		if _, err := s.Feedback(api.FeedbackRequest{App: "KMeans", SizeMB: 64, Cluster: "C"}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for s.Snapshot().Gen == 0 {
		if time.Now().After(deadline) {
			t.Fatal("serve loop never published generation 1")
		}
		time.Sleep(10 * time.Millisecond)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("persisted snapshot missing: %v", err)
	}
	loaded, err := core.LoadTuner(f, 1)
	f.Close()
	if err != nil {
		t.Fatalf("loading persisted snapshot: %v", err)
	}

	// Fixed candidate set on a fixed seed: scores must agree bit-for-bit.
	live := s.Snapshot().Tuner
	app := workload.ByName("WordCount")
	env, _ := ClusterByName("C")
	data := app.Spec.MakeData(512)
	rng := rand.New(rand.NewSource(42))
	cands := []sparksim.Config{sparksim.DefaultConfig()}
	for i := 0; i < 7; i++ {
		cands = append(cands, core.ForceFeasible(sparksim.RandomConfig(rng), env))
	}

	recLive := live.RecommendFrom(app.Spec, data, env, cands)
	recLoaded := loaded.RecommendFrom(app.Spec, data, env, cands)
	if len(recLive.Ranked) != len(recLoaded.Ranked) {
		t.Fatalf("ranking lengths differ: %d vs %d", len(recLive.Ranked), len(recLoaded.Ranked))
	}
	for i := range recLive.Ranked {
		a, b := recLive.Ranked[i], recLoaded.Ranked[i]
		if a.Config != b.Config {
			t.Fatalf("rank %d: configs diverge after reload", i)
		}
		if math.Float64bits(a.Predicted) != math.Float64bits(b.Predicted) {
			t.Fatalf("rank %d: score %v != %v (not bit-for-bit)", i, a.Predicted, b.Predicted)
		}
	}
	if recLive.Config != recLoaded.Config {
		t.Fatal("winning configuration diverges after reload")
	}
}
