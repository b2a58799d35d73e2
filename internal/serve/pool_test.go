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
)

// TestPoolGaugesExposed: the server registers scoring-pool gauges that show
// up in /metrics exposition with live values.
func TestPoolGaugesExposed(t *testing.T) {
	t.Cleanup(func() { core.SetScoreWorkers(0) })
	s := newTestServer(t, Options{ScoreWorkers: 3})

	if got := core.ScoreWorkers(); got != 3 {
		t.Fatalf("Options.ScoreWorkers not applied: pool width %d", got)
	}
	if _, err := s.Recommend(RecommendRequest{App: "WordCount", SizeMB: 64, Cluster: "C"}); err != nil {
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
	s := newTestServer(t, Options{
		ScoreWorkers:  4,
		DisableCache:  true,
		UpdateBatch:   2,
		FeedbackQueue: 8,
	})

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
			_, err := s.Feedback(FeedbackRequest{App: "KMeans", SizeMB: 64, Cluster: "C"})
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
				resp, err := s.Recommend(RecommendRequest{
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

// TestStageRepCacheExposed: the stage-representation cache shows up in
// /metrics — a key's first miss fills it, the next miss is served from it,
// a hot-swapped generation starts empty — and the deleted batcher series
// are gone.
func TestStageRepCacheExposed(t *testing.T) {
	s := newTestServer(t, Options{DisableCache: true})
	req := RecommendRequest{App: "WordCount", SizeMB: 64, Cluster: "C"}
	entries := func() int { return s.Snapshot().Tuner.Model.StageRepEntries() }

	if _, err := s.Recommend(req); err != nil {
		t.Fatalf("recommend: %v", err)
	}
	filled := entries()
	if filled == 0 {
		t.Fatal("a NECS-tier miss left the stage-representation cache empty")
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
}
