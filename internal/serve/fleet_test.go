package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lite/pkg/api"
)

// saveTestSnapshot writes the shared test tuner to a file the flip tests
// can load, standing in for the trainer's published snapshot.
func saveTestSnapshot(t *testing.T) string {
	t.Helper()
	tuner, _ := testTuner(t)
	path := filepath.Join(t.TempDir(), "snapshot.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tuner.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlipTo: a flip to a newer generation swaps the snapshot and renumbers
// it; flips to the current or an older generation are no-ops; a snapshot
// that cannot be opened or parsed never replaces the serving model.
func TestFlipTo(t *testing.T) {
	s := newTestServer(t, Options{EnableAdmin: true})
	snap := saveTestSnapshot(t)

	gen, err := s.FlipTo(snap, 5)
	if err != nil || gen != 5 {
		t.Fatalf("FlipTo(5) = (%d, %v), want (5, nil)", gen, err)
	}
	if got := s.Snapshot().Gen; got != 5 {
		t.Fatalf("live generation %d after flip, want 5", got)
	}

	// Stale flip: monotonic no-op, the live model is untouched.
	gen, err = s.FlipTo(snap, 3)
	if err != nil || gen != 5 {
		t.Fatalf("stale FlipTo(3) = (%d, %v), want (5, nil)", gen, err)
	}

	// Missing path: error, generation unchanged.
	if _, err := s.FlipTo(filepath.Join(t.TempDir(), "nope.json"), 9); err == nil {
		t.Fatal("FlipTo on a missing snapshot did not error")
	}
	if got := s.Snapshot().Gen; got != 5 {
		t.Fatalf("generation %d after failed flip, want 5", got)
	}

	// Corrupt snapshot: error, generation unchanged.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FlipTo(bad, 9); err == nil {
		t.Fatal("FlipTo on a corrupt snapshot did not error")
	}
	if got := s.Snapshot().Gen; got != 5 {
		t.Fatalf("generation %d after corrupt flip, want 5", got)
	}
	if got := s.Metrics().Counter("lite_flips_total").Value(); got != 1 {
		t.Fatalf("lite_flips_total = %d, want 1 (only the real flip counts)", got)
	}
}

// TestFlipEndpoint: /admin/flip exists only when enabled, validates its
// body, and flips the shard.
func TestFlipEndpoint(t *testing.T) {
	snap := saveTestSnapshot(t)

	// Without -admin the endpoint must not exist.
	plain := newTestServer(t, Options{})
	srv := httptest.NewServer(plain.Handler())
	res, err := http.Post(srv.URL+"/v1/admin/flip", "application/json",
		strings.NewReader(`{"snapshot_path":"x","generation":1}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	srv.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("/admin/flip without EnableAdmin: status %d, want 404", res.StatusCode)
	}

	s := newTestServer(t, Options{EnableAdmin: true})
	srv = httptest.NewServer(s.Handler())
	defer srv.Close()

	res, err = http.Post(srv.URL+"/v1/admin/flip", "application/json",
		strings.NewReader(`{"snapshot_path":"","generation":0}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty flip request: status %d, want 400", res.StatusCode)
	}

	body, _ := json.Marshal(api.FlipRequest{SnapshotPath: snap, Generation: 7})
	res, err = http.Post(srv.URL+"/v1/admin/flip", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var fr api.FlipResponse
	if err := json.NewDecoder(res.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || fr.Generation != 7 {
		t.Fatalf("flip: status=%d generation=%d, want 200/7", res.StatusCode, fr.Generation)
	}
	if got := s.Snapshot().Gen; got != 7 {
		t.Fatalf("live generation %d, want 7", got)
	}
}

// TestFollowerMode: a follower acks feedback without queueing it (a fleet
// router sends feedback to the trainer, not here), never retrains locally,
// and exposes /admin/flip implicitly so the coordinator can move its model.
func TestFollowerMode(t *testing.T) {
	s := newTestServer(t, Options{Follower: true, UpdateBatch: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for i := 0; i < 3; i++ {
		res, err := http.Post(srv.URL+"/v1/feedback", "application/json",
			strings.NewReader(`{"app":"WordCount","size_mb":512,"cluster":"C"}`))
		if err != nil {
			t.Fatal(err)
		}
		var fb api.FeedbackResponse
		if err := json.NewDecoder(res.Body).Decode(&fb); err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("follower feedback status %d", res.StatusCode)
		}
		if fb.Queued {
			t.Fatal("follower queued feedback for local retraining")
		}
	}
	// UpdateBatch=1 would have retrained after the first feedback were the
	// update loop running; in follower mode the generation only moves via
	// flips.
	if got := s.Snapshot().Gen; got != 0 {
		t.Fatalf("follower retrained to generation %d, want 0", got)
	}

	snap := saveTestSnapshot(t)
	body, _ := json.Marshal(api.FlipRequest{SnapshotPath: snap, Generation: 2})
	res, err := http.Post(srv.URL+"/v1/admin/flip", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("follower /admin/flip status %d, want 200 (Follower implies EnableAdmin)", res.StatusCode)
	}
	if got := s.Snapshot().Gen; got != 2 {
		t.Fatalf("follower generation %d after flip, want 2", got)
	}
}

// TestHealthzRichFields: /healthz carries the observability fields the
// fleet health checker keys on.
func TestHealthzRichFields(t *testing.T) {
	s := newTestServer(t, Options{Follower: true})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	res, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.HealthResponse
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if h.Status != "ok" || !h.Follower {
		t.Fatalf("healthz = %+v, want ok follower", h)
	}
	if h.SnapshotAgeSeconds != -1 {
		t.Fatalf("snapshot age %g without persistence, want -1 (never persisted)", h.SnapshotAgeSeconds)
	}
	if h.WALUnfolded != 0 || h.Inflight != 0 {
		t.Fatalf("idle server reports wal_unfolded=%d inflight=%d, want 0/0", h.WALUnfolded, h.Inflight)
	}
}

// TestFollowerEchoesPromotion: a follower has no update loop, so a session
// win is echoed in the result for the fleet router to post to the trainer
// and is neither fed to the follower's feedback path nor logged in its
// WAL; it still counts as a promotion (DESIGN.md §11: promotions counted
// plus dropped equal winning trials).
func TestFollowerEchoesPromotion(t *testing.T) {
	s, _, cl := newSessionServer(t, Options{Follower: true, WALDir: t.TempDir(), WALSyncInterval: -1})
	ctx := context.Background()
	sess, err := cl.CreateSession(ctx, api.CreateSessionRequest{App: "WordCount", SizeMB: 512, Cluster: "C"})
	if err != nil {
		t.Fatal(err)
	}
	var last api.ReportResultResponse
	for _, secs := range []float64{100, 60} {
		p, err := cl.NextProposal(ctx, sess.ID)
		if err != nil {
			t.Fatal(err)
		}
		if last, err = cl.ReportResult(ctx, sess.ID, api.ReportResultRequest{Trial: p.Trial, Seconds: secs}); err != nil {
			t.Fatal(err)
		}
	}
	if !last.Promoted || last.Promotion == nil || last.Promotion.App != "WordCount" {
		t.Fatalf("winning trial = %+v, want a promotion echoed", last)
	}
	for name, want := range map[string]uint64{
		"lite_session_promotions_total":         1,
		"lite_session_promotions_dropped_total": 0,
		"lite_feedback_total":                   0,
		"lite_wal_records_total":                0,
	} {
		if got := s.Metrics().Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
