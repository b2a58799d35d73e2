package serve

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lite/internal/core"
	"lite/internal/wal"
	"lite/pkg/api"
)

// TestPoolGaugesExposed: the server registers scoring-pool gauges that show
// up in /metrics exposition with live values.
func TestPoolGaugesExposed(t *testing.T) {
	t.Cleanup(func() { core.SetScoreWorkers(0) })
	core.SetScoreWorkers(3)
	s := newTestServer(t, Options{})
	if _, err := s.Recommend(api.RecommendRequest{App: "WordCount", SizeMB: 64, Cluster: "C"}); err != nil {
		t.Fatalf("recommend: %v", err)
	}

	var buf bytes.Buffer
	if err := s.Metrics().WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, name := range []string{
		"lite_score_pool_workers 3",
		"lite_score_pool_busy ",
		"lite_score_pool_utilization ",
		"lite_score_pool_items_total ",
	} {
		if !strings.Contains(out, name) {
			t.Fatalf("exposition missing %q:\n%s", name, out)
		}
	}
	// At least one recommendation's candidates went through the pool.
	if strings.Contains(out, "lite_score_pool_items_total 0\n") {
		t.Fatal("pool items gauge never advanced")
	}
}

// TestServeParallelScoringRace overlaps pooled batch scoring with
// adaptive updates and a hot-swap. Run with -race: concurrent
// recommendations fan their candidates across the scoring pool while the
// update loop retrains a clone beside them.
func TestServeParallelScoringRace(t *testing.T) {
	t.Cleanup(func() { core.SetScoreWorkers(0) })
	core.SetScoreWorkers(4)
	s := newTestServer(t, Options{DisableCache: true, UpdateBatch: 2})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := s.Feedback(api.FeedbackRequest{App: "KMeans", SizeMB: 64, Cluster: "C"})
			if err != nil && err != ErrQueueFull {
				t.Errorf("feedback: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var rwg sync.WaitGroup
	sizes := []float64{64, 512, 4096}
	for g := 0; g < 8; g++ {
		rwg.Add(1)
		go func(g int) {
			defer rwg.Done()
			for i := 0; i < 6; i++ {
				resp, err := s.Recommend(api.RecommendRequest{
					App:     "WordCount",
					SizeMB:  sizes[(g+i)%len(sizes)],
					Cluster: "C",
				})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if resp.Tier == "" {
					t.Errorf("goroutine %d: empty tier", g)
				}
			}
		}(g)
	}
	rwg.Wait()

	deadline := time.Now().Add(120 * time.Second)
	for s.Snapshot().Gen < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no retrain landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// TestStageRepCacheExposed: the stage-representation table shows up in
// /metrics — a key's first miss fills it, the next miss is served from it,
// a generation flipped in from a snapshot (an Encoder of its own) starts
// empty — and the deleted batcher series are gone.
func TestStageRepCacheExposed(t *testing.T) {
	s := newTestServer(t, Options{DisableCache: true})
	req := api.RecommendRequest{App: "WordCount", SizeMB: 64, Cluster: "C"}
	entries := func() int { return s.Snapshot().Tuner.Model.StageRepEntries() }

	// The test tuner's Encoder is shared with other tests; a flip to its
	// snapshot brings an Encoder, and a table, of its own.
	path := filepath.Join(t.TempDir(), "next.json")
	if err := wal.WriteFileAtomic(wal.OSFS{}, path, s.Snapshot().Tuner.Save); err != nil {
		t.Fatal(err)
	}
	if gen, err := s.FlipTo(path, 1); err != nil || gen != 1 {
		t.Fatalf("FlipTo: gen=%d err=%v", gen, err)
	}
	if n := entries(); n != 0 {
		t.Fatalf("generation 1 inherited %d stage representations", n)
	}

	if _, err := s.Recommend(req); err != nil {
		t.Fatalf("recommend: %v", err)
	}
	filled := entries()
	if filled == 0 {
		t.Fatal("a NECS-tier miss left the stage-representation table empty")
	}
	hits0, misses0 := s.Snapshot().Tuner.Model.StageRepStats()
	if _, err := s.Recommend(req); err != nil {
		t.Fatalf("recommend: %v", err)
	}
	hits1, misses1 := s.Snapshot().Tuner.Model.StageRepStats()
	if hits1-hits0 != uint64(filled) || misses1 != misses0 {
		t.Fatalf("second miss on the key: %d hits, %d misses; want %d hits and no encoder forward",
			hits1-hits0, misses1-misses0, filled)
	}

	var buf bytes.Buffer
	if err := s.Metrics().WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		fmt.Sprintf("lite_stage_rep_cache_entries %d\n", filled),
		fmt.Sprintf("lite_stage_rep_cache_hits_total %d\n", hits1),
		fmt.Sprintf("lite_stage_rep_cache_misses_total %d\n", misses1),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "lite_batch") {
		t.Fatalf("exposition still carries a batcher series:\n%s", out)
	}
}

// TestSwappedGenerationRunsNoEncoder: a retrained generation keeps its
// predecessor's CNN and GCN weights, so it reads every stage
// representation the predecessor filled, and its first miss on a key the
// predecessor served runs no encoder forward.
func TestSwappedGenerationRunsNoEncoder(t *testing.T) {
	s := newTestServer(t, Options{DisableCache: true, UpdateBatch: 1})
	req := api.RecommendRequest{App: "WordCount", SizeMB: 64, Cluster: "C"}
	if _, err := s.Recommend(req); err != nil {
		t.Fatalf("recommend: %v", err)
	}
	filled := s.Snapshot().Tuner.Model.StageRepEntries()
	if _, err := s.Feedback(api.FeedbackRequest{App: "KMeans", SizeMB: 64, Cluster: "C"}); err != nil {
		t.Fatalf("feedback: %v", err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for s.Snapshot().Gen < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no retrain landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m := s.Snapshot().Tuner.Model
	if n := m.StageRepEntries(); n < filled {
		t.Fatalf("generation 1 reads %d stage representations, generation 0 had filled %d", n, filled)
	}
	_, misses0 := m.StageRepStats()
	resp, err := s.Recommend(req)
	if err != nil || resp.Generation != 1 {
		t.Fatalf("recommend after the swap: generation %d, err %v", resp.Generation, err)
	}
	if _, misses1 := m.StageRepStats(); misses1 != misses0 {
		t.Fatalf("the first miss on generation 1 ran the encoders %d times", misses1-misses0)
	}
}
