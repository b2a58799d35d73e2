package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS is the slice of filesystem behaviour every durable file in the module
// goes through: WAL segments and cursor, model snapshots, the session store
// and the quarantine sidecar. Production code uses OSFS; tests inject
// FaultFS to exercise torn writes, failed fsyncs and rename crashes without
// touching a real disk fault.
type FS interface {
	// OpenFile opens name with the given flag/perm, like os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadDir lists the file names in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates dir and its parents.
	MkdirAll(dir string, perm os.FileMode) error
	// SyncDir fsyncs a directory so renames/creates inside it survive a
	// crash (POSIX does not persist directory entries on file fsync alone).
	SyncDir(dir string) error
}

// File is the open-file surface the WAL needs.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
}

// OSFS is the real filesystem.
type OSFS struct{}

// OpenFile implements FS.
func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// ReadDir implements FS.
func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

// SyncDir implements FS.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFileAtomic is the one way the module replaces a durable file: write
// streams the content into path+".tmp", which is fsynced, closed and renamed
// over path, and then the parent directory is fsynced so the rename itself
// survives a crash. On any failure the temp file is removed, so path holds
// the old file or the whole new one, never a torn one. The new content only
// counts as durable once this returns nil: a fold cursor must not advance
// past a snapshot before that.
func WriteFileAtomic(fs FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: writing %s: %w", path, err)
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("wal: writing %s: %w", path, err)
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("wal: fsync dir of %s: %w", path, err)
	}
	return nil
}

// AppendFile appends data to path and fsyncs it. When this call creates the
// file it also fsyncs the parent directory: a file fsync alone does not
// persist the new directory entry, so without it a crash could lose the
// whole file. Appends to an existing file need no directory fsync.
func AppendFile(fs FS, path string, data []byte) error {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	created := err == nil
	if os.IsExist(err) {
		f, err = fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	}
	if err != nil {
		return fmt.Errorf("wal: opening %s: %w", path, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && created {
		err = fs.SyncDir(filepath.Dir(path))
	}
	if err != nil {
		return fmt.Errorf("wal: appending to %s: %w", path, err)
	}
	return nil
}

// FaultFS wraps an FS and injects write-path failures on a countdown — the
// in-process equivalent of yanking the disk mid-write. It is exported
// because both the WAL's own tests and internal/serve's persistence fault
// tests (and any future chaos harness) drive recovery through it. All
// methods are safe for concurrent use.
type FaultFS struct {
	Inner FS

	mu sync.Mutex
	// failWriteAfter: after this many successful Write calls, every Write
	// fails with ErrInjected. <0 disables.
	failWriteAfter int
	// shortWriteAt: the Nth Write call (1-based) persists only half its
	// payload and then reports ErrInjected — a torn record. 0 disables.
	shortWriteAt int
	writes       int
	// failSync / failSyncDir / failRename flip the respective calls to
	// ErrInjected.
	failSync    bool
	failSyncDir bool
	failRename  bool
}

// ErrInjected marks every failure FaultFS fabricates.
var ErrInjected = fmt.Errorf("wal: injected fault")

// NewFaultFS wraps inner (OSFS when nil) with no faults armed.
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OSFS{}
	}
	return &FaultFS{Inner: inner, failWriteAfter: -1}
}

// FailWritesAfter arms write failure after n more successful writes.
func (f *FaultFS) FailWritesAfter(n int) {
	f.mu.Lock()
	f.failWriteAfter = n
	f.mu.Unlock()
}

// ShortWriteAt arms a torn (half-persisted, then failed) write on the Nth
// Write call from now, 1-based.
func (f *FaultFS) ShortWriteAt(n int) {
	f.mu.Lock()
	f.shortWriteAt = f.writes + n
	f.mu.Unlock()
}

// FailSync makes every subsequent Sync and SyncDir fail.
func (f *FaultFS) FailSync(fail bool) {
	f.mu.Lock()
	f.failSync = fail
	f.mu.Unlock()
}

// FailSyncDir makes every subsequent SyncDir fail while file Syncs still
// succeed.
func (f *FaultFS) FailSyncDir(fail bool) {
	f.mu.Lock()
	f.failSyncDir = fail
	f.mu.Unlock()
}

// FailRename makes every subsequent Rename fail.
func (f *FaultFS) FailRename(fail bool) {
	f.mu.Lock()
	f.failRename = fail
	f.mu.Unlock()
}

// Heal disarms every fault.
func (f *FaultFS) Heal() {
	f.mu.Lock()
	f.failWriteAfter = -1
	f.shortWriteAt = 0
	f.failSync = false
	f.failSyncDir = false
	f.failRename = false
	f.mu.Unlock()
}

// OpenFile implements FS.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	inner, err := f.Inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// ReadDir implements FS.
func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.Inner.ReadDir(dir) }

// Rename implements FS.
func (f *FaultFS) Rename(oldname, newname string) error {
	f.mu.Lock()
	fail := f.failRename
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("rename %s: %w", filepath.Base(newname), ErrInjected)
	}
	return f.Inner.Rename(oldname, newname)
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error { return f.Inner.Remove(name) }

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(dir string, perm os.FileMode) error { return f.Inner.MkdirAll(dir, perm) }

// SyncDir implements FS.
func (f *FaultFS) SyncDir(dir string) error {
	f.mu.Lock()
	fail := f.failSync || f.failSyncDir
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("syncdir %s: %w", filepath.Base(dir), ErrInjected)
	}
	return f.Inner.SyncDir(dir)
}

type faultFile struct {
	fs    *FaultFS
	inner File
}

func (f *faultFile) Read(p []byte) (int, error) { return f.inner.Read(p) }

func (f *faultFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.fs.writes++
	short := f.fs.shortWriteAt > 0 && f.fs.writes == f.fs.shortWriteAt
	var fail bool
	if f.fs.failWriteAfter >= 0 {
		if f.fs.failWriteAfter == 0 {
			fail = true
		} else {
			f.fs.failWriteAfter--
		}
	}
	f.fs.mu.Unlock()
	if short {
		n, _ := f.inner.Write(p[:len(p)/2])
		return n, fmt.Errorf("short write: %w", ErrInjected)
	}
	if fail {
		return 0, fmt.Errorf("write: %w", ErrInjected)
	}
	return f.inner.Write(p)
}

func (f *faultFile) Close() error { return f.inner.Close() }

func (f *faultFile) Sync() error {
	f.fs.mu.Lock()
	fail := f.fs.failSync
	f.fs.mu.Unlock()
	if fail {
		return fmt.Errorf("sync: %w", ErrInjected)
	}
	return f.inner.Sync()
}
