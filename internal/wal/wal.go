// Package wal implements the append-only write-ahead log that makes the
// serving layer's feedback queue crash-safe (DESIGN.md §9). Records are
// length+CRC32-framed and carry a monotone sequence number; appends are
// fsynced in configurable batches and on a background interval; segments
// rotate at a size bound and are truncated once every record in them has
// been folded into a persisted model snapshot. Recovery scans the segments
// in order, skips torn or corrupt tails (counting them) and hands every
// unfolded record back to the caller for replay.
//
// Frame layout (little-endian):
//
//	uint32 length   // of body = 8-byte seq + payload
//	uint32 crc      // CRC-32 (IEEE) of body
//	uint64 seq      // monotone record sequence number
//	bytes  payload
//
// A record is valid only if its full frame is present and the CRC matches;
// anything else — a partial header, a length pointing past EOF, a CRC
// mismatch — is treated as a torn tail: the rest of that segment is
// discarded and counted, never half-trusted. Appends after recovery go to
// a fresh segment, so a torn tail is never written after.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func crc32IEEE(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// MaxRecordBytes bounds one record's payload; a decoded length beyond it is
// corruption, not a record (it also stops a garbage length from allocating
// gigabytes during recovery).
const MaxRecordBytes = 1 << 20

const (
	headerBytes = 8 // uint32 length + uint32 crc
	seqBytes    = 8
	segPrefix   = "seg-"
	segSuffix   = ".wal"
	cursorFile  = "FOLDED"
)

// Options configures a log. The zero value of every field gets a sane
// default from withDefaults.
type Options struct {
	// Dir holds the segments and the folded cursor; created if missing.
	Dir string
	// SegmentMaxBytes rotates the active segment once it exceeds this size
	// (default 4 MiB).
	SegmentMaxBytes int64
	// SyncEvery fsyncs after this many appends (default 8; 1 = every
	// append is durable before it is acknowledged).
	SyncEvery int
	// SyncInterval additionally fsyncs dirty appends in the background at
	// this cadence, bounding the unfsynced tail in time as well as count
	// (default 50ms; <0 disables the background syncer).
	SyncInterval time.Duration
	// FS overrides the filesystem (fault-injection tests). Default OSFS.
	FS FS
}

func (o Options) withDefaults() Options {
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = 4 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 8
	}
	if o.SyncInterval == 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
	return o
}

// Record is one recovered log entry.
type Record struct {
	Seq  uint64
	Data []byte
}

// RecoveryStats summarizes one Open scan.
type RecoveryStats struct {
	// Recovered is how many unfolded records were handed back for replay.
	Recovered int
	// Folded is how many records were skipped because the folded cursor
	// already covers them.
	Folded int
	// CorruptTails counts torn/corrupt segment tails that were discarded
	// (at most one per segment: framing cannot resynchronize past a bad
	// frame).
	CorruptTails int
	// Segments is how many segment files were scanned.
	Segments int
}

type segment struct {
	name    string
	lastSeq uint64 // highest decoded seq; 0 when the segment held none
}

// WAL is an open log. All methods are safe for concurrent use.
type WAL struct {
	opts Options
	fs   FS

	mu         sync.Mutex
	active     File
	activeName string
	activeSize int64
	activeLast uint64 // highest seq written to the active segment
	closed     []segment
	nextSeq    uint64
	folded     uint64
	unsynced   int
	lastSeq    uint64
	syncedSeq  uint64
	appends    uint64
	fsyncs     uint64
	rotate     bool // a failed write poisoned the active segment tail
	done       chan struct{}
	stopOnce   sync.Once
	isClosed   bool
}

// Open recovers the log in opts.Dir and returns it ready for appends,
// together with every record not yet covered by the folded cursor (in
// sequence order) and the recovery statistics. Appends go to a fresh
// segment, never after a possibly-torn tail.
func Open(opts Options) (*WAL, []Record, RecoveryStats, error) {
	opts = opts.withDefaults()
	fs := opts.FS
	var stats RecoveryStats
	if err := fs.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, stats, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	folded, err := readCursor(fs, opts.Dir)
	if err != nil {
		return nil, nil, stats, err
	}
	names, err := fs.ReadDir(opts.Dir)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("wal: listing %s: %w", opts.Dir, err)
	}
	var segs []string
	for _, n := range names {
		if strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix) {
			segs = append(segs, n)
		}
	}
	sort.Strings(segs) // fixed-width hex names sort in seq order

	w := &WAL{opts: opts, fs: fs, folded: folded, nextSeq: folded + 1, done: make(chan struct{})}
	var recovered []Record
	for _, name := range segs {
		stats.Segments++
		recs, torn, err := scanSegment(fs, filepath.Join(opts.Dir, name))
		if err != nil {
			return nil, nil, stats, err
		}
		if torn {
			stats.CorruptTails++
		}
		last := uint64(0)
		for _, r := range recs {
			if r.Seq > last {
				last = r.Seq
			}
			if r.Seq >= w.nextSeq {
				w.nextSeq = r.Seq + 1
			}
			if r.Seq > folded {
				recovered = append(recovered, r)
				stats.Recovered++
			} else {
				stats.Folded++
			}
		}
		w.closed = append(w.closed, segment{name: name, lastSeq: last})
	}
	sort.Slice(recovered, func(i, j int) bool { return recovered[i].Seq < recovered[j].Seq })
	w.lastSeq = w.nextSeq - 1
	w.syncedSeq = w.lastSeq // everything decoded from disk is durable

	if opts.SyncInterval > 0 {
		go w.backgroundSync()
	}
	return w, recovered, stats, nil
}

// scanSegment decodes every whole, checksummed record in one segment; torn
// reports whether trailing bytes had to be discarded.
func scanSegment(fs FS, path string) ([]Record, bool, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, false, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, false, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	var recs []Record
	off := 0
	for off < len(data) {
		if len(data)-off < headerBytes {
			return recs, true, nil // partial header
		}
		length := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if length < seqBytes || length > seqBytes+MaxRecordBytes {
			return recs, true, nil // garbage length
		}
		if len(data)-off-headerBytes < int(length) {
			return recs, true, nil // body truncated
		}
		body := data[off+headerBytes : off+headerBytes+int(length)]
		if crc32IEEE(body) != crc {
			return recs, true, nil // bit rot or torn rewrite
		}
		seq := binary.LittleEndian.Uint64(body)
		payload := append([]byte(nil), body[seqBytes:]...)
		recs = append(recs, Record{Seq: seq, Data: payload})
		off += headerBytes + int(length)
	}
	return recs, false, nil
}

// Append frames data, writes it to the active segment and assigns it the
// next sequence number. Durability is governed by SyncEvery/SyncInterval;
// call Sync to force the tail to disk. Safe for concurrent use.
func (w *WAL) Append(data []byte) (uint64, error) {
	if len(data) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", len(data))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.isClosed {
		return 0, errors.New("wal: closed")
	}
	if w.active == nil || w.rotate || w.activeSize >= w.opts.SegmentMaxBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	seq := w.nextSeq
	frame := make([]byte, headerBytes+seqBytes+len(data))
	binary.LittleEndian.PutUint32(frame, uint32(seqBytes+len(data)))
	binary.LittleEndian.PutUint64(frame[headerBytes:], seq)
	copy(frame[headerBytes+seqBytes:], data)
	binary.LittleEndian.PutUint32(frame[4:], crc32IEEE(frame[headerBytes:]))
	if _, err := w.active.Write(frame); err != nil {
		// The active tail may now hold a partial frame; recovery would skip
		// it, but never write after it — rotate before the next append. The
		// seq is burned, not reused: the failed write may still have reached
		// the disk in full, and two records must never share a seq.
		w.nextSeq++
		w.rotate = true
		return 0, fmt.Errorf("wal: appending record %d: %w", seq, err)
	}
	w.nextSeq++
	w.lastSeq = seq
	w.activeLast = seq
	w.activeSize += int64(len(frame))
	w.appends++
	w.unsynced++
	if w.unsynced >= w.opts.SyncEvery {
		if err := w.syncLocked(); err != nil {
			return seq, err
		}
	}
	return seq, nil
}

// Sync forces every appended record to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.isClosed {
		return nil
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if w.active == nil || w.unsynced == 0 {
		return nil
	}
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", w.activeName, err)
	}
	w.fsyncs++
	w.unsynced = 0
	w.syncedSeq = w.lastSeq
	return nil
}

// rotateLocked fsyncs and closes the active segment (if any) and opens a
// fresh one named after the next sequence number.
func (w *WAL) rotateLocked() error {
	if w.active != nil {
		if err := w.syncLocked(); err != nil {
			// A tail we cannot fsync is still on its way to disk; the
			// closed-segment bookkeeping keeps it scannable either way.
			w.active.Close()
			w.active = nil
			w.closed = append(w.closed, segment{name: w.activeName, lastSeq: w.activeLast})
			return err
		}
		w.active.Close()
		w.closed = append(w.closed, segment{name: w.activeName, lastSeq: w.activeLast})
		w.active = nil
	}
	name := fmt.Sprintf("%s%016x%s", segPrefix, w.nextSeq, segSuffix)
	f, err := w.fs.OpenFile(filepath.Join(w.opts.Dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening segment %s: %w", name, err)
	}
	if err := w.fs.SyncDir(w.opts.Dir); err != nil {
		f.Close()
		w.fs.Remove(filepath.Join(w.opts.Dir, name))
		return fmt.Errorf("wal: fsync dir after creating %s: %w", name, err)
	}
	w.active = f
	w.activeName = name
	w.activeSize = 0
	w.activeLast = 0
	w.rotate = false
	return nil
}

// MarkFolded records durably that every record with sequence ≤ seq has been
// folded into a persisted model snapshot, then deletes closed segments made
// entirely of folded records. Recovery never replays a folded record.
func (w *WAL) MarkFolded(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.isClosed {
		return errors.New("wal: closed")
	}
	if seq <= w.folded {
		return nil
	}
	if err := writeCursor(w.fs, w.opts.Dir, seq); err != nil {
		return err
	}
	w.folded = seq
	kept := w.closed[:0]
	for _, s := range w.closed {
		if s.lastSeq <= seq {
			// Best-effort: a segment that refuses to delete costs disk, not
			// correctness (its records are below the cursor).
			w.fs.Remove(filepath.Join(w.opts.Dir, s.name))
			continue
		}
		kept = append(kept, s)
	}
	w.closed = kept
	return nil
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	LastSeq   uint64
	SyncedSeq uint64
	Folded    uint64
	Appends   uint64
	Fsyncs    uint64
	Segments  int // closed segments plus the active one
}

// Stats returns current counters; safe for concurrent use.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.closed)
	if w.active != nil {
		n++
	}
	return Stats{
		LastSeq:   w.lastSeq,
		SyncedSeq: w.syncedSeq,
		Folded:    w.folded,
		Appends:   w.appends,
		Fsyncs:    w.fsyncs,
		Segments:  n,
	}
}

// Close fsyncs and closes the active segment and stops the background
// syncer. Further appends fail.
func (w *WAL) Close() error {
	w.stopOnce.Do(func() { close(w.done) })
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.isClosed {
		return nil
	}
	w.isClosed = true
	if w.active == nil {
		return nil
	}
	err := func() error {
		if w.unsynced == 0 {
			return nil
		}
		if err := w.active.Sync(); err != nil {
			return err
		}
		w.fsyncs++
		w.unsynced = 0
		w.syncedSeq = w.lastSeq
		return nil
	}()
	if cerr := w.active.Close(); err == nil {
		err = cerr
	}
	w.active = nil
	return err
}

func (w *WAL) backgroundSync() {
	t := time.NewTicker(w.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-t.C:
			// Interval durability is best-effort; Append surfaces batch-sync
			// errors, and serve counts them.
			w.Sync()
		}
	}
}

func readCursor(fs FS, dir string) (uint64, error) {
	f, err := fs.OpenFile(filepath.Join(dir, cursorFile), os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("wal: opening cursor: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, fmt.Errorf("wal: reading cursor: %w", err)
	}
	v, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		// A torn cursor write means "nothing proven folded": replaying extra
		// records is safe (at-least-once), silently skipping them is not.
		return 0, nil
	}
	return v, nil
}

// writeCursor persists the folded cursor atomically over FOLDED.
func writeCursor(fs FS, dir string, seq uint64) error {
	return WriteFileAtomic(fs, filepath.Join(dir, cursorFile), func(w io.Writer) error {
		_, err := io.WriteString(w, strconv.FormatUint(seq, 10)+"\n")
		return err
	})
}
