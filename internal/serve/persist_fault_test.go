package serve

// Persistence fault tests: the server's durable files go through
// Options.FS, so a test-local wal.FS can break or record them. The
// invariants under test: a failed persist never advances the WAL cursor,
// publish proceeds in memory, the WAL holds the batch unfolded until a
// persist finally lands, and a quarantined batch is durable before the
// cursor passes it. The atomic writer's own fault suite is
// wal.TestWriteFileAtomicFaults.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lite/internal/wal"
)

// splitFS sends every path under walDir to the real filesystem and every
// other path through fault, so a test can break the snapshot disk while the
// WAL, the session store and the quarantine sidecar keep working.
type splitFS struct {
	walDir string
	fault  *wal.FaultFS
}

func (f splitFS) pick(path string) wal.FS {
	if path == f.walDir || strings.HasPrefix(path, f.walDir+string(filepath.Separator)) {
		return wal.OSFS{}
	}
	return f.fault
}

func (f splitFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	return f.pick(name).OpenFile(name, flag, perm)
}
func (f splitFS) ReadDir(dir string) ([]string, error) { return f.pick(dir).ReadDir(dir) }
func (f splitFS) Rename(oldname, newname string) error {
	return f.pick(newname).Rename(oldname, newname)
}
func (f splitFS) Remove(name string) error                    { return f.pick(name).Remove(name) }
func (f splitFS) MkdirAll(dir string, perm os.FileMode) error { return f.pick(dir).MkdirAll(dir, perm) }
func (f splitFS) SyncDir(dir string) error                    { return f.pick(dir).SyncDir(dir) }

// TestPersistFaultsRetryPublishAndHoldWALFold: while the snapshot disk is
// broken, retrains still publish in memory (availability) but their feedback
// stays unfolded in the WAL (durability); once the disk heals, the next
// persist lands and the log folds.
func TestPersistFaultsRetryPublishAndHoldWALFold(t *testing.T) {
	tuner, source := testTuner(t)
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snapPath := filepath.Join(dir, "model.json")
	ffs := wal.NewFaultFS(nil)

	ffs.FailSync(true)
	s := New(tuner.CloneForUpdate(1), Options{
		SourceSample: source,
		WALDir:       walDir,
		SnapshotPath: snapPath,
		WALSyncEvery: 1, WALSyncInterval: -1,
		UpdateBatch: 2,
		FS:          splitFS{walDir: walDir, fault: ffs},
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	// The gen-0 persist at Start already failed: the first attempt plus
	// persistRetries retries.
	if got := s.Metrics().Counter("lite_snapshot_persist_errors_total").Value(); got != persistRetries+1 {
		t.Fatalf("persist errors after Start = %d, want %d", got, persistRetries+1)
	}
	if got := s.Metrics().Counter("lite_snapshot_persist_retries_total").Value(); got != persistRetries {
		t.Fatalf("persist retries after Start = %d, want %d", got, persistRetries)
	}
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Fatalf("snapshot exists after every persist failed (stat err %v)", err)
	}
	var buf bytes.Buffer
	if err := s.Metrics().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lite_snapshot_age_seconds -1") {
		t.Fatal("snapshot age gauge should report -1 while nothing ever persisted")
	}

	feedbackN(t, s, 2)
	waitUntil(t, 60*time.Second, "publish despite persist failure", func() bool {
		return s.Snapshot().Gen >= 1
	})
	// Readers got the new generation, but its feedback must not fold: the
	// only durable copy is the WAL.
	if folded := s.wal.Stats().Folded; folded != 0 {
		t.Fatalf("WAL folded through seq %d while snapshot persist failing, want 0", folded)
	}

	ffs.Heal()
	feedbackN(t, s, 2)
	waitUntil(t, 60*time.Second, "persist and fold after heal", func() bool {
		return s.wal.Stats().Folded >= 4
	})
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("snapshot missing after heal: %v", err)
	}
	buf.Reset()
	if err := s.Metrics().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "lite_snapshot_age_seconds -1") {
		t.Fatal("snapshot age gauge still -1 after successful persist")
	}
	shutdownServer(t, s)

	// Everything durable and folded: a restart replays nothing.
	w, recs, _, err := wal.Open(wal.Options{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(recs) != 0 {
		t.Fatalf("%d records would replay after heal+fold, want 0", len(recs))
	}
}

// recordFS forwards to the real filesystem and logs, in order, every
// quarantine-file open, directory fsync and rename target.
type recordFS struct {
	wal.OSFS
	mu  sync.Mutex
	ops []string
}

func (r *recordFS) log(op string) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

func (r *recordFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	if filepath.Base(name) == "quarantine.jsonl" {
		r.log("open quarantine")
	}
	return r.OSFS.OpenFile(name, flag, perm)
}

func (r *recordFS) SyncDir(dir string) error {
	r.log("syncdir " + dir)
	return r.OSFS.SyncDir(dir)
}

func (r *recordFS) Rename(oldname, newname string) error {
	r.log("rename " + newname)
	return r.OSFS.Rename(oldname, newname)
}

// TestQuarantineDirFsyncedBeforeFold: rejectSwap folds a quarantined batch
// out of the WAL right after appending it to the sidecar, so the sidecar's
// directory entry must be durable first. The append that creates
// quarantine.jsonl fsyncs its directory once, before the FOLDED rename;
// later appends to the existing file fsync no directory.
func TestQuarantineDirFsyncedBeforeFold(t *testing.T) {
	tuner, source := testTuner(t)
	walDir := filepath.Join(t.TempDir(), "wal")
	rec := &recordFS{}
	s := New(tuner.CloneForUpdate(1), Options{
		SourceSample: source,
		WALDir:       walDir,
		WALSyncEvery: 1, WALSyncInterval: -1,
		UpdateBatch:        2,
		Validation:         ValidationOptions{Enable: true, Cases: 2, Candidates: 4},
		ChaosCorruptEveryN: 1,
		RetrainBackoffMin:  time.Millisecond,
		RetrainBackoffMax:  4 * time.Millisecond,
		FS:                 rec,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for batch := 1; batch <= 2; batch++ {
		feedbackN(t, s, 2)
		waitUntil(t, 60*time.Second, "rejected batch to fold", func() bool {
			return s.wal.Stats().Folded >= uint64(2*batch)
		})
	}
	shutdownServer(t, s)

	// Split the log at each cursor publish; in each span count the fsyncs
	// of the WAL directory that follow the quarantine append.
	rec.mu.Lock()
	ops := append([]string(nil), rec.ops...)
	rec.mu.Unlock()
	folded := "rename " + filepath.Join(walDir, "FOLDED")
	var dirSyncs []int
	seen, n := false, 0
	for _, op := range ops {
		switch {
		case op == "open quarantine":
			seen = true
		case op == folded && seen:
			dirSyncs = append(dirSyncs, n)
			seen, n = false, 0
		case op == "syncdir "+walDir && seen:
			n++
		}
	}
	if len(dirSyncs) != 2 || dirSyncs[0] != 1 || dirSyncs[1] != 0 {
		t.Fatalf("WAL-dir fsyncs between quarantine append and cursor publish = %v, want [1 0]\nops: %q", dirSyncs, ops)
	}
}
