package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// open is the test helper: no background syncer (deterministic fsync
// counts), fsync every append unless overridden.
func open(t *testing.T, dir string, mod ...func(*Options)) (*WAL, []Record, RecoveryStats) {
	t.Helper()
	opts := Options{Dir: dir, SyncEvery: 1, SyncInterval: -1}
	for _, m := range mod {
		m(&opts)
	}
	w, recs, stats, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { w.Close() })
	return w, recs, stats
}

func appendAll(t *testing.T, w *WAL, payloads ...string) []uint64 {
	t.Helper()
	seqs := make([]uint64, len(payloads))
	for i, p := range payloads {
		seq, err := w.Append([]byte(p))
		if err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
		seqs[i] = seq
	}
	return seqs
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, recs, _ := open(t, dir)
	if len(recs) != 0 {
		t.Fatalf("fresh log recovered %d records", len(recs))
	}
	seqs := appendAll(t, w, "a", "bb", "ccc")
	if seqs[0] != 1 || seqs[2] != 3 {
		t.Fatalf("seqs = %v, want 1..3", seqs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, recs, stats := open(t, dir)
	if stats.CorruptTails != 0 {
		t.Fatalf("clean log reported %d corrupt tails", stats.CorruptTails)
	}
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	for i, want := range []string{"a", "bb", "ccc"} {
		if string(recs[i].Data) != want || recs[i].Seq != uint64(i+1) {
			t.Fatalf("record %d = {%d %q}, want {%d %q}", i, recs[i].Seq, recs[i].Data, i+1, want)
		}
	}
}

func TestRecoveryWithoutCloseKeepsFsyncedRecords(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := open(t, dir) // SyncEvery=1: every append fsynced
	appendAll(t, w, "one", "two")
	// No Close: the crash case. Records were fsynced, so a new Open (new
	// file handles) must still see them.
	_, recs, _ := open(t, dir)
	if len(recs) != 2 {
		t.Fatalf("recovered %d records after crash, want 2", len(recs))
	}
}

func TestTornTailIsSkippedAndCounted(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := open(t, dir)
	appendAll(t, w, "good-1", "good-2")
	w.Close()

	seg := onlySegment(t, dir)
	// Simulate a torn final write: append half a frame of garbage.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0, 0, 1, 2})
	f.Close()

	_, recs, stats := open(t, dir)
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want the 2 whole ones", len(recs))
	}
	if stats.CorruptTails != 1 {
		t.Fatalf("CorruptTails = %d, want 1", stats.CorruptTails)
	}
}

func TestBitFlipInvalidatesRecord(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := open(t, dir)
	appendAll(t, w, "aaaa", "bbbb")
	w.Close()

	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // flip a bit in the last record's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, recs, stats := open(t, dir)
	if len(recs) != 1 || string(recs[0].Data) != "aaaa" {
		t.Fatalf("recovered %v, want only the intact first record", recs)
	}
	if stats.CorruptTails != 1 {
		t.Fatalf("CorruptTails = %d, want 1", stats.CorruptTails)
	}
}

func TestMarkFoldedSkipsReplayAndTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record rotates into its own file.
	w, _, _ := open(t, dir)
	w.segmentMaxBytes = 1
	appendAll(t, w, "r1", "r2", "r3")
	if err := w.MarkFolded(2); err != nil {
		t.Fatal(err)
	}
	w.Close()

	_, recs, stats := open(t, dir)
	if len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("recovered %v, want only seq 3", recs)
	}
	if stats.Folded != 0 {
		// Segments 1 and 2 were fully folded and must be gone from disk,
		// not rescanned-and-skipped.
		t.Fatalf("stats.Folded = %d: folded segments were not truncated", stats.Folded)
	}
}

func TestSequenceNumbersSurviveRestartAndFold(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := open(t, dir)
	appendAll(t, w, "a", "b")
	w.MarkFolded(2)
	w.Close()

	w2, recs, _ := open(t, dir)
	if len(recs) != 0 {
		t.Fatalf("recovered %d folded records", len(recs))
	}
	seqs := appendAll(t, w2, "c")
	if seqs[0] != 3 {
		t.Fatalf("seq after restart = %d, want 3 (no reuse of folded seqs)", seqs[0])
	}
}

func TestSyncEveryBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := open(t, dir, func(o *Options) { o.SyncEvery = 4 })
	appendAll(t, w, "1", "2", "3")
	st := w.Stats()
	if st.Fsyncs != 0 {
		t.Fatalf("fsyncs = %d before batch boundary, want 0", st.Fsyncs)
	}
	if st.SyncedSeq != 0 {
		t.Fatalf("syncedSeq = %d, want 0 (tail not yet durable)", st.SyncedSeq)
	}
	appendAll(t, w, "4")
	st = w.Stats()
	if st.Fsyncs != 1 || st.SyncedSeq != 4 {
		t.Fatalf("after 4th append: fsyncs=%d syncedSeq=%d, want 1 and 4", st.Fsyncs, st.SyncedSeq)
	}
}

func TestBackgroundSyncBoundsTail(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := open(t, dir, func(o *Options) {
		o.SyncEvery = 1 << 30
		o.SyncInterval = 2 * time.Millisecond
	})
	appendAll(t, w, "x")
	deadline := time.Now().Add(5 * time.Second)
	for w.Stats().SyncedSeq != 1 {
		if time.Now().After(deadline) {
			t.Fatal("background syncer never fsynced the tail")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAppendFailureRotatesAwayFromTornTail(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	w, _, _ := open(t, dir, func(o *Options) { o.FS = ffs })
	appendAll(t, w, "before")

	ffs.ShortWriteAt(1) // next write persists half a frame, then fails
	if _, err := w.Append([]byte("torn-record")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append during short write: err = %v, want ErrInjected", err)
	}
	ffs.Heal()
	seqs := appendAll(t, w, "after")
	if seqs[0] != 3 {
		t.Fatalf("post-fault seq = %d, want 3 (2 burned by the torn append)", seqs[0])
	}
	w.Close()

	_, recs, stats := open(t, dir)
	var got []string
	for _, r := range recs {
		got = append(got, string(r.Data))
	}
	if strings.Join(got, ",") != "before,after" {
		t.Fatalf("recovered %v, want [before after]", got)
	}
	if stats.CorruptTails != 1 {
		t.Fatalf("CorruptTails = %d, want 1 (the torn half-frame)", stats.CorruptTails)
	}
}

func TestFailedFsyncSurfacesError(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	w, _, _ := open(t, dir, func(o *Options) { o.FS = ffs })
	appendAll(t, w, "ok")
	ffs.FailSync(true)
	if _, err := w.Append([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append with failing fsync: err = %v, want ErrInjected", err)
	}
	st := w.Stats()
	if st.SyncedSeq != 1 {
		t.Fatalf("syncedSeq = %d after failed fsync, want 1", st.SyncedSeq)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	w, _, _ := open(t, t.TempDir())
	if _, err := w.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversize append accepted")
	}
}

func TestCorruptCursorReplaysEverything(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := open(t, dir)
	appendAll(t, w, "a", "b")
	w.MarkFolded(1)
	w.Close()
	if err := os.WriteFile(filepath.Join(dir, cursorFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, _ := open(t, dir)
	// An unreadable cursor must fail open (replay everything), never
	// fail closed (silently drop records).
	if len(recs) != 2 {
		t.Fatalf("recovered %d records with corrupt cursor, want 2", len(recs))
	}
}

func TestConcurrentAppendsAssignUniqueSeqs(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := open(t, dir, func(o *Options) { o.SyncEvery = 16 })
	w.segmentMaxBytes = 256 // force rotations under load
	const n = 200
	var wg sync.WaitGroup
	seqs := make([]uint64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seq, err := w.Append([]byte(fmt.Sprintf("rec-%d", i)))
			if err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			seqs[i] = seq
		}(i)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, s := range seqs {
		if s == 0 || seen[s] {
			t.Fatalf("duplicate or zero seq %d", s)
		}
		seen[s] = true
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, stats := open(t, dir)
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
	if stats.Segments < 2 {
		t.Fatalf("expected multiple segments under 256-byte rotation, got %d", stats.Segments)
	}
}

// TestWriteFileAtomicFaults is the fault suite for the one atomic writer.
// Whichever step fails, the error carries the fault, no temp file is left
// behind, and the target is never torn: it keeps its previous content (or
// stays absent) — except when the directory fsync fails, which happens
// after the rename, so the target then holds the whole new content.
func TestWriteFileAtomicFaults(t *testing.T) {
	errCallback := errors.New("callback failed")
	old, next := []byte("old content\n"), []byte("new content, longer than the old\n")
	writeNext := func(w io.Writer) error {
		_, err := w.Write(next)
		return err
	}
	cases := []struct {
		name    string
		arm     func(*FaultFS)
		cbErr   error // returned by the write callback after it writes
		want    error
		renamed bool
	}{
		{name: "fsync fails", arm: func(f *FaultFS) { f.FailSync(true) }, want: ErrInjected},
		{name: "short write at 1", arm: func(f *FaultFS) { f.ShortWriteAt(1) }, want: ErrInjected},
		{name: "rename fails", arm: func(f *FaultFS) { f.FailRename(true) }, want: ErrInjected},
		{name: "syncdir fails", arm: func(f *FaultFS) { f.FailSyncDir(true) }, want: ErrInjected, renamed: true},
		{name: "callback error", arm: func(*FaultFS) {}, cbErr: errCallback, want: errCallback},
	}
	for _, tc := range cases {
		for _, existed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/existed=%v", tc.name, existed), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "target")
				if existed {
					if err := os.WriteFile(path, old, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				ffs := NewFaultFS(nil)
				tc.arm(ffs)
				err := WriteFileAtomic(ffs, path, func(w io.Writer) error {
					if err := writeNext(w); err != nil {
						return err
					}
					return tc.cbErr
				})
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
				got, rerr := os.ReadFile(path)
				switch {
				case tc.renamed:
					if !bytes.Equal(got, next) {
						t.Fatalf("target = %q (%v), want the whole new content", got, rerr)
					}
				case existed:
					if !bytes.Equal(got, old) {
						t.Fatalf("target = %q (%v), want its previous content", got, rerr)
					}
				case !os.IsNotExist(rerr):
					t.Fatalf("target exists after a failed first write: %q", got)
				}
				if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
					t.Fatalf("temp file left behind (stat err %v)", err)
				}

				ffs.Heal()
				if err := WriteFileAtomic(ffs, path, writeNext); err != nil {
					t.Fatalf("write after heal: %v", err)
				}
				if got, _ := os.ReadFile(path); !bytes.Equal(got, next) {
					t.Fatalf("target after heal = %q, want the new content", got)
				}
			})
		}
	}
}

// TestAppendFileSyncsDirOnlyOnCreate: the append that creates a file must
// fsync its directory (and fails when it cannot); appends to the existing
// file need no directory fsync.
func TestAppendFileSyncsDirOnlyOnCreate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	ffs := NewFaultFS(nil)
	ffs.FailSyncDir(true)
	if err := AppendFile(ffs, path, []byte("a\n")); !errors.Is(err, ErrInjected) {
		t.Fatalf("creating append with failing dir fsync: err = %v, want ErrInjected", err)
	}
	if err := AppendFile(ffs, path, []byte("b\n")); err != nil {
		t.Fatalf("append to existing file: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "a\nb\n" {
		t.Fatalf("file = %q, want both lines", got)
	}
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, n := range names {
		if strings.HasPrefix(n, segPrefix) {
			segs = append(segs, n)
		}
	}
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want exactly one", segs)
	}
	return filepath.Join(dir, segs[0])
}
