package serve

// Crash/recovery tests (DESIGN.md §9): in-process equivalents of the
// scripts/chaos_smoke.sh harness. "Crash" here means abandoning a server
// without Shutdown — its goroutines are parked but its fsynced WAL state is
// exactly what a SIGKILL would leave behind; a second server on the same
// directories then plays the role of the restarted process.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lite/internal/core"
	"lite/internal/wal"
	"lite/internal/workload"
	"lite/pkg/api"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// shutdownServer is a clean Shutdown with a generous deadline.
func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	done := make(chan struct{})
	go func() { time.Sleep(120 * time.Second); close(done) }()
	if err := s.Shutdown(done); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// crashServer abandons a server the way SIGKILL would: no final retrain, no
// WAL close, no fsync beyond what already happened. The stop channel is only
// closed at test end so the leaked goroutines unwind, and the cleanup waits
// for them: the update loop folds what it holds on stop and persists it
// into the test's temp directory, whose removal must wait for that write.
func crashServer(t *testing.T, s *Server) {
	t.Helper()
	t.Cleanup(func() {
		s.stopOnce.Do(func() { close(s.stopCh) })
		s.wg.Wait()
	})
}

func feedbackN(t *testing.T, s *Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Feedback(api.FeedbackRequest{App: "WordCount", SizeMB: 64, Cluster: "C"}); err != nil {
			t.Fatalf("feedback %d: %v", i, err)
		}
	}
}

// TestWALReplaysFeedbackAfterCrash is the core durability loop: feedback
// fsynced by a crashed server must be recovered, replayed ahead of new
// traffic, folded into the next generation, and then never replayed again.
func TestWALReplaysFeedbackAfterCrash(t *testing.T) {
	tuner, source := testTuner(t)
	dir := t.TempDir()
	base := Options{
		SourceSample: source,
		WALDir:       filepath.Join(dir, "wal"),
		SnapshotPath: filepath.Join(dir, "model.json"),
		WALSyncEvery: 1, WALSyncInterval: -1,
	}

	// Server A: batch size too large to ever retrain, so when it "crashes"
	// its feedback exists only in the WAL.
	aOpts := base
	aOpts.UpdateBatch = 100
	a := New(tuner.CloneForUpdate(1), aOpts)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	crashServer(t, a)

	const n = 5
	for i := 0; i < n; i++ {
		resp, err := a.Feedback(api.FeedbackRequest{App: "WordCount", SizeMB: 64, Cluster: "C"})
		if err != nil {
			t.Fatalf("feedback %d: %v", i, err)
		}
		if resp.Seq != uint64(i+1) {
			t.Fatalf("feedback %d: seq = %d, want %d", i, resp.Seq, i+1)
		}
	}

	// The crash always leaves a loadable snapshot: generation 0 is persisted
	// at Start, before any traffic.
	f, err := os.Open(base.SnapshotPath)
	if err != nil {
		t.Fatalf("no snapshot after crash: %v", err)
	}
	if _, err := core.LoadTuner(f, 1); err != nil {
		t.Fatalf("snapshot left by crashed server not loadable: %v", err)
	}
	f.Close()

	// Server B (the restart): recovers all n fsynced records and folds them
	// into generation 1.
	bOpts := base
	bOpts.UpdateBatch = n
	b := New(tuner.CloneForUpdate(1), bOpts)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if got := b.Metrics().Counter("lite_wal_recovered_records_total").Value(); got != n {
		t.Fatalf("recovered records = %d, want %d", got, n)
	}
	waitUntil(t, 60*time.Second, "replayed feedback to fold into generation 1", func() bool {
		return b.Snapshot().Gen >= 1
	})
	// The folded counter is incremented after the snapshot store (the WAL
	// cursor write sits between them), so poll rather than assert instantly.
	waitUntil(t, 60*time.Second, "folded counter to reach the replayed batch", func() bool {
		return b.Metrics().Counter("lite_feedback_folded_total").Value() == n
	})
	shutdownServer(t, b)

	// Folded records must not replay a second time.
	w, recs, stats, err := wal.Open(wal.Options{Dir: base.WALDir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(recs) != 0 || stats.Recovered != 0 {
		t.Fatalf("after fold: %d records would replay (stats %+v), want 0", len(recs), stats)
	}
}

// TestServerSkipsTornWALTail: a torn tail (the unfsynced bytes a crash can
// leave) is discarded and counted; every whole record ahead of it replays.
func TestServerSkipsTornWALTail(t *testing.T) {
	tuner, source := testTuner(t)
	walDir := t.TempDir()

	w, _, _, err := wal.Open(wal.Options{Dir: walDir, SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := json.Marshal(api.FeedbackRequest{App: "WordCount", SizeMB: 64, Cluster: "C"})
	for i := 0; i < 3; i++ {
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(walDir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (%v)", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A partial frame header: what a crash mid-append leaves behind.
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := New(tuner.CloneForUpdate(1), Options{
		SourceSample: source, WALDir: walDir,
		UpdateBatch: 3, WALSyncEvery: 1, WALSyncInterval: -1,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Counter("lite_wal_corrupt_records_total").Value(); got != 1 {
		t.Fatalf("corrupt tails = %d, want 1", got)
	}
	if got := s.Metrics().Counter("lite_wal_recovered_records_total").Value(); got != 3 {
		t.Fatalf("recovered records = %d, want 3", got)
	}
	waitUntil(t, 60*time.Second, "recovered feedback to fold into generation 1", func() bool {
		return s.Snapshot().Gen >= 1
	})
	shutdownServer(t, s)
}

// TestWALReplayValidatesLikeTheHandler: a WAL record is replayed exactly
// when /v1/feedback accepts its body (both build the item with
// newFeedbackItem); the rest are skipped and counted, and a replayed item
// carries the size the handler would have defaulted.
func TestWALReplayValidatesLikeTheHandler(t *testing.T) {
	tuner, source := testTuner(t)
	walDir := t.TempDir()
	bodies := []string{
		`{"app":"WordCount","cluster":"C"}`,
		`{"app":"kmeans","size_mb":256,"cluster":"b","config":{"spark.executor.cores":2}}`,
		`{"app":"NoSuchApp","size_mb":256,"cluster":"C"}`,
		`{"app":"WordCount","size_mb":256,"cluster":"Z"}`,
		`{"app":"WordCount","cluster":"C","config":{"spark.no.such.knob":1}}`,
		`not json`,
	}
	w, _, _, err := wal.Open(wal.Options{Dir: walDir, SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	live := newTestServer(t, Options{Follower: true}) // validates and acks, never retrains
	accepted := 0
	for _, b := range bodies {
		if _, err := w.Append([]byte(b)); err != nil {
			t.Fatal(err)
		}
		var req api.FeedbackRequest
		if json.Unmarshal([]byte(b), &req) == nil {
			if _, err := live.Feedback(req); err == nil {
				accepted++
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if accepted != 2 {
		t.Fatalf("live handler accepted %d of the bodies, want 2", accepted)
	}

	w, recs, _, err := wal.Open(wal.Options{Dir: walDir, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := New(tuner.CloneForUpdate(1), Options{SourceSample: source})
	items := s.replayable(recs)
	if len(items) != accepted {
		t.Fatalf("replayed %d records, want the %d the handler accepts", len(items), accepted)
	}
	if got := s.Metrics().Counter("lite_wal_replay_skipped_total").Value(); got != uint64(len(bodies)-accepted) {
		t.Fatalf("replay skipped %d records, want %d", got, len(bodies)-accepted)
	}
	if got, want := items[0].req.SizeMB, workload.ByName("WordCount").Sizes.Test; got != want {
		t.Fatalf("replayed size = %v, want the defaulted %v", got, want)
	}
}

// TestFollowerKeepsNoRecoveredFeedback: a follower never retrains, so it
// counts the unfolded WAL records it boots over but holds none of them in
// memory, and leaves every one on disk for the fleet trainer.
func TestFollowerKeepsNoRecoveredFeedback(t *testing.T) {
	const n = 5
	tuner, source := testTuner(t)
	walDir := t.TempDir()
	w, _, _, err := wal.Open(wal.Options{Dir: walDir, SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := json.Marshal(api.FeedbackRequest{App: "WordCount", SizeMB: 64, Cluster: "C"})
	for i := 0; i < n; i++ {
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s := New(tuner.CloneForUpdate(1), Options{SourceSample: source, WALDir: walDir, Follower: true, WALSyncInterval: -1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if s.recovered != nil {
		t.Fatalf("follower retains %d recovered records, want none", len(s.recovered))
	}
	if got := s.Metrics().Counter("lite_wal_recovered_records_total").Value(); got != n {
		t.Fatalf("recovered records = %d, want %d", got, n)
	}
	shutdownServer(t, s)

	w, recs, _, err := wal.Open(wal.Options{Dir: walDir, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(recs) != n {
		t.Fatalf("%d records left on disk after the follower ran, want %d", len(recs), n)
	}
}

// TestValidationGateRejectsPoisonedCandidate: a retrain whose candidate
// cannot score the held-out set (chaos-poisoned weights) must be rejected —
// the live generation keeps serving, the batch is quarantined, backoff arms,
// and the quarantined feedback never replays.
func TestValidationGateRejectsPoisonedCandidate(t *testing.T) {
	tuner, source := testTuner(t)
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	s := New(tuner.CloneForUpdate(1), Options{
		SourceSample: source,
		WALDir:       walDir,
		SnapshotPath: filepath.Join(dir, "model.json"),
		WALSyncEvery: 1, WALSyncInterval: -1,
		UpdateBatch:        2,
		Validation:         ValidationOptions{Enable: true, Cases: 2},
		ChaosCorruptEveryN: 1,
		RetrainBackoffMin:  time.Millisecond,
		RetrainBackoffMax:  4 * time.Millisecond,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	feedbackN(t, s, 2)
	waitUntil(t, 60*time.Second, "hot-swap rejection", func() bool {
		return s.Metrics().Counter("lite_hotswap_rejected_total").Value() >= 1
	})

	if gen := s.Snapshot().Gen; gen != 0 {
		t.Fatalf("generation = %d after rejected swap, want 0 (old model keeps serving)", gen)
	}
	if _, err := s.Recommend(api.RecommendRequest{App: "WordCount", SizeMB: 64, Cluster: "C"}); err != nil {
		t.Fatalf("serving broken after rejected swap: %v", err)
	}
	if got := s.Metrics().Counter("lite_feedback_quarantined_total").Value(); got != 2 {
		t.Fatalf("quarantined feedback = %d, want 2", got)
	}
	if got := s.Metrics().Gauge("lite_retrain_backoff_seconds").Value(); got <= 0 {
		t.Fatalf("retrain backoff gauge = %g, want > 0 after rejection", got)
	}

	// The quarantine sidecar names the batch: reason, seqs and raw records.
	qdata, err := os.ReadFile(filepath.Join(walDir, "quarantine.jsonl"))
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	var entry quarantineEntry
	line := strings.SplitN(strings.TrimSpace(string(qdata)), "\n", 2)[0]
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("quarantine line not JSON: %v", err)
	}
	if entry.Reason == "" || len(entry.Records) != 2 || len(entry.Seqs) != 2 {
		t.Fatalf("quarantine entry incomplete: %+v", entry)
	}

	shutdownServer(t, s)

	// Quarantined feedback is folded out of the WAL: a restart must not
	// replay the poisoned batch into the model.
	w, recs, _, err := wal.Open(wal.Options{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(recs) != 0 {
		t.Fatalf("%d quarantined records would replay on restart, want 0", len(recs))
	}
}

// TestUpdateLoopPanicRestarts: a panicking retrain must not kill the update
// loop — the supervisor restarts it (counted) while serving continues, and
// the in-memory batches the panics destroyed stay durable in the WAL.
func TestUpdateLoopPanicRestarts(t *testing.T) {
	tuner, source := testTuner(t)
	walDir := t.TempDir()
	s := New(tuner.CloneForUpdate(1), Options{
		SourceSample: source,
		WALDir:       walDir,
		WALSyncEvery: 1, WALSyncInterval: -1,
		UpdateBatch:       1,
		ChaosPanicEveryN:  1,
		RetrainBackoffMin: time.Millisecond,
		RetrainBackoffMax: 2 * time.Millisecond,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	const n = 3
	feedbackN(t, s, n)
	waitUntil(t, 60*time.Second, "update loop restarts", func() bool {
		return s.Metrics().Counter("lite_update_loop_restarts_total").Value() >= n
	})
	if gen := s.Snapshot().Gen; gen != 0 {
		t.Fatalf("generation = %d, want 0 (no retrain ever completed)", gen)
	}
	if _, err := s.Recommend(api.RecommendRequest{App: "WordCount", SizeMB: 64, Cluster: "C"}); err != nil {
		t.Fatalf("serving broken while update loop crash-loops: %v", err)
	}
	shutdownServer(t, s)

	// Each panic lost its in-memory batch; all of it is still in the WAL.
	w, recs, _, err := wal.Open(wal.Options{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(recs) != n {
		t.Fatalf("WAL holds %d unfolded records after panic-lost batches, want %d", len(recs), n)
	}
}

// TestValidationGateAcceptsHealthySwap: with generous slack and no chaos,
// the gate publishes the retrained generation and exports its scores.
func TestValidationGateAcceptsHealthySwap(t *testing.T) {
	s := newTestServer(t, Options{
		UpdateBatch: 2,
		Validation: ValidationOptions{
			Enable: true, Cases: 2,
			// Mechanics under test, not model quality: any finite candidate
			// passes.
			NDCGSlack: 1, RegretSlack: regretCap,
		},
	})
	feedbackN(t, s, 2)
	waitUntil(t, 60*time.Second, "gated hot-swap to publish generation 1", func() bool {
		return s.Snapshot().Gen >= 1
	})
	if got := s.Metrics().Counter("lite_hotswap_accepted_total").Value(); got != 1 {
		t.Fatalf("accepted swaps = %d, want 1", got)
	}
	if got := s.Metrics().Counter("lite_hotswap_rejected_total").Value(); got != 0 {
		t.Fatalf("rejected swaps = %d, want 0", got)
	}
}
