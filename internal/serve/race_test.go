package serve

import (
	"sync"
	"testing"
	"time"

	"lite/internal/sparksim"
	"lite/pkg/api"
)

// TestConcurrentServingOverlapsHotSwap is the acceptance test for the
// serving subsystem: 16 goroutines of /recommend traffic overlap
// background retrains and hot-swaps driven by concurrent /feedback, and
// every response must come from one consistent snapshot — no torn reads,
// no panics, feasible configurations, monotonically reasonable
// generations. Run with -race.
func TestConcurrentServingOverlapsHotSwap(t *testing.T) {
	s := newTestServer(t, Options{
		// Cache off so every request exercises the model under swap; tiny
		// update batch so retrains actually happen during the traffic.
		DisableCache: true,
		UpdateBatch:  2,
	})
	envC, _ := ClusterByName("C")

	var wg, pumpWG sync.WaitGroup
	stop := make(chan struct{})

	// Feedback pump: keeps triggering retrain + hot-swap in the background.
	pumpWG.Add(1)
	go func() {
		defer pumpWG.Done()
		for i := 0; ; i++ {
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

	// Readers hammer /recommend until at least one hot-swap has landed, so
	// recommendation traffic provably overlaps retrain + swap.
	stopReaders := make(chan struct{})
	var mu sync.Mutex
	gens := map[uint64]int{}
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sizes := []float64{64, 512, 4096}
			for i := 0; ; i++ {
				select {
				case <-stopReaders:
					return
				default:
				}
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
					t.Errorf("goroutine %d: empty tier (torn response?)", g)
				}
				cfg, err := ConfigFromMap(resp.Config)
				if err != nil {
					t.Errorf("goroutine %d: bad config in response: %v", g, err)
				} else if !sparksim.Feasible(cfg, envC) {
					t.Errorf("goroutine %d: infeasible config served", g)
				}
				mu.Lock()
				gens[resp.Generation]++
				mu.Unlock()
			}
		}(g)
	}

	// Wait for at least two generations to publish while traffic flows.
	deadline := time.Now().Add(120 * time.Second)
	for s.Snapshot().Gen < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no hot-swap happened while traffic was flowing")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stopReaders)
	wg.Wait()
	close(stop)
	pumpWG.Wait()
	if len(gens) < 2 {
		t.Logf("note: all responses saw one generation (gens=%v); swap raced past traffic", gens)
	}
	t.Logf("served across generations %v, final gen %d, feedbacks folded %d",
		gens, s.Snapshot().Gen, s.Snapshot().Feedbacks)
}

// TestGracefulShutdownDrainsFeedback verifies accepted feedback is folded
// into a final update during shutdown instead of being dropped.
func TestGracefulShutdownDrainsFeedback(t *testing.T) {
	tuner, source := testTuner(t)
	s := New(tuner.CloneForUpdate(3), Options{UpdateBatch: 100, SourceSample: source})
	s.Start()
	for i := 0; i < 3; i++ {
		if _, err := s.Feedback(api.FeedbackRequest{App: "WordCount", SizeMB: 64, Cluster: "C"}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() { time.Sleep(60 * time.Second); close(done) }()
	if err := s.Shutdown(done); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Gen != 1 || snap.Feedbacks != 3 {
		t.Fatalf("after drain: gen=%d feedbacks=%d, want gen=1 feedbacks=3", snap.Gen, snap.Feedbacks)
	}
}
