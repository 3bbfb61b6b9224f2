package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sofos/internal/obs"
)

// Write-ahead log: every committed /update batch is appended as one
// length-prefixed, CRC32-guarded record before the commit is acknowledged to
// the client. The log is split into sequence-numbered segment files; a
// checkpoint rotates to a fresh segment and truncates everything older, so
// recovery replays only the suffix after the last snapshot.
//
// Segment layout:
//
//	magic "SOFOSWAL1" (9 bytes)
//	segment sequence number (uvarint, must match the filename)
//	records:
//	  payload length (uvarint)
//	  CRC32-IEEE of the payload (4 bytes little-endian)
//	  payload (see Record encoding in record.go)
//
// This file is the write side. Every reader — recovery, the boot probe,
// replication — goes through WALCursor (stream.go), which owns the one
// end-of-log rule: a torn tail, the record a crash cut mid-append, ends the
// log cleanly because its batch was never acknowledged; the same damage with
// a record after it is corruption and fails loudly.
const walMagic = "SOFOSWAL1"

// maxRecordBytes bounds a single record; corrupt lengths must fail fast, not
// allocate unboundedly.
const maxRecordBytes = 1 << 30

// SyncPolicy picks how eagerly WAL appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append, before the batch is acknowledged:
	// an acknowledged update survives even a machine crash.
	SyncAlways SyncPolicy = iota
	// SyncInterval flushes every append to the OS and fsyncs on a background
	// ticker: a process crash (SIGKILL) loses nothing, a machine crash loses
	// at most the last interval.
	SyncInterval
	// SyncNone flushes to the OS and never fsyncs: a process crash loses
	// nothing, a machine crash may lose unflushed batches.
	SyncNone
)

// syncEvery is the background fsync cadence under SyncInterval.
const syncEvery = 200 * time.Millisecond

// ParseSyncPolicy maps the -wal-sync flag values to policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("persist: unknown wal sync policy %q (use always, interval, or none)", s)
}

// String renders the policy as its flag value.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "none"
	}
}

// Log is an open write-ahead log: an append handle over the current segment.
// Appends, rotation, and stats are safe for concurrent use; the serving layer
// additionally orders appends against each other with its own write lock so
// records land in commit order.
type Log struct {
	dir    string
	policy SyncPolicy

	// AppendHist and FsyncCounter are optional observability hooks the
	// serving layer sets right after open (before traffic): per-record
	// append latency in seconds, and fsyncs issued (foreground and
	// background). Both are nil-safe no-ops when unset.
	AppendHist   *obs.Histogram
	FsyncCounter *obs.Counter

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	seq      uint64
	segments int   // on-disk segment count, maintained so Stats never scans
	appended int64 // records appended through this handle
	bytes    int64 // bytes appended through this handle
	dirty    bool  // flushed-but-unsynced data pending (SyncInterval)
	closed   bool

	stopSync chan struct{} // closes the background syncer (SyncInterval)
	syncDone chan struct{}
}

// segmentName renders a segment's filename; lexical order equals numeric
// order thanks to the fixed-width sequence.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%016x.log", seq) }

// parseSegmentName inverts segmentName.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the directory's segment sequence numbers, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("persist: listing wal segments: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// NextSegmentSeq returns the sequence number a new segment in dir would get:
// one past the highest existing segment, or 1 in an empty directory. Offline
// checkpoint writers use it to stamp a manifest without opening a log.
func NextSegmentSeq(dir string) (uint64, error) {
	seqs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	if len(seqs) == 0 {
		return 1, nil
	}
	return seqs[len(seqs)-1] + 1, nil
}

// OpenLog opens a write-ahead log in dir, creating the directory if needed.
// It always starts a fresh segment past every existing one — a possibly-torn
// tail from a previous process is never appended to, so its evidence stays
// intact for replay.
func OpenLog(dir string, policy SyncPolicy) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating wal dir: %w", err)
	}
	existing, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	seq := uint64(1)
	if len(existing) > 0 {
		seq = existing[len(existing)-1] + 1
	}
	l := &Log{dir: dir, policy: policy, segments: len(existing)}
	if err := l.openSegment(seq); err != nil {
		return nil, err
	}
	l.segments++
	if policy == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// openSegment creates and headers segment seq, replacing the current handle.
// Callers hold l.mu (or own the log exclusively during open).
func (l *Log) openSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(seq)),
		os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating wal segment %d: %w", seq, err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if _, err := bw.WriteString(walMagic); err != nil {
		f.Close()
		return fmt.Errorf("persist: writing wal header: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], seq)
	if _, err := bw.Write(buf[:n]); err != nil {
		f.Close()
		return fmt.Errorf("persist: writing wal header: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("persist: writing wal header: %w", err)
	}
	// Make the segment's directory entry durable: without this, a machine
	// crash can lose the whole file — fsynced records included — which
	// would break SyncAlways's acknowledged-batches-survive guarantee.
	// SyncNone promises no fsyncs, so it skips this too.
	if l.policy != SyncNone {
		if err := syncDir(l.dir); err != nil {
			f.Close()
			return err
		}
	}
	l.f, l.bw, l.seq = f, bw, seq
	return nil
}

// syncLoop is the SyncInterval background fsync.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(syncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if l.dirty && !l.closed {
				// A failed background sync leaves dirty set; the next tick
				// retries, and Close reports the terminal error.
				if l.f.Sync() == nil {
					l.dirty = false
					l.FsyncCounter.Inc()
				}
			}
			l.mu.Unlock()
		case <-l.stopSync:
			return
		}
	}
}

// Append serializes one record, writes it to the current segment, and applies
// the sync policy. When it returns under SyncAlways, the record is on stable
// storage; the serving layer calls it before acknowledging the batch.
func (l *Log) Append(rec *Record) error {
	start := time.Now()
	payload := rec.encode()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("persist: wal is closed")
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(payload)))
	if _, err := l.bw.Write(buf[:n]); err != nil {
		return fmt.Errorf("persist: appending wal record: %w", err)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := l.bw.Write(crc[:]); err != nil {
		return fmt.Errorf("persist: appending wal record: %w", err)
	}
	if _, err := l.bw.Write(payload); err != nil {
		return fmt.Errorf("persist: appending wal record: %w", err)
	}
	// Every policy flushes to the OS so a process crash loses nothing; the
	// policies differ only in when the OS is forced to stable storage.
	if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("persist: flushing wal record: %w", err)
	}
	switch l.policy {
	case SyncAlways:
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("persist: syncing wal record: %w", err)
		}
		l.FsyncCounter.Inc()
	case SyncInterval:
		l.dirty = true
	}
	l.appended++
	l.bytes += int64(n + 4 + len(payload))
	l.AppendHist.ObserveSince(start)
	return nil
}

// Rotate closes the current segment and opens the next one, returning the new
// segment's sequence number. Checkpoints rotate first so the manifest can
// record "replay from here".
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("persist: wal is closed")
	}
	if err := l.closeSegmentLocked(); err != nil {
		return 0, err
	}
	if err := l.openSegment(l.seq + 1); err != nil {
		return 0, err
	}
	l.segments++
	return l.seq, nil
}

// closeSegmentLocked flushes, syncs, and closes the current segment file.
// A latched flush error is dropped, not returned: Append flushes after every
// record and surfaces its error to the caller, so bytes still buffered here
// can only belong to a failed, never-acknowledged append — and returning the
// bufio's sticky error would make every later rotation (and so every healing
// checkpoint) fail forever.
func (l *Log) closeSegmentLocked() error {
	if err := l.bw.Flush(); err != nil {
		slog.Warn("persist: dropping unflushable wal segment tail (never acknowledged)",
			"segment", l.seq, "err", err)
	}
	if l.policy != SyncNone {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("persist: syncing wal segment %d: %w", l.seq, err)
		}
		l.dirty = false
		l.FsyncCounter.Inc()
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("persist: closing wal segment %d: %w", l.seq, err)
	}
	return nil
}

// TruncateBefore deletes segments with sequence numbers below seq — those a
// completed checkpoint made redundant — and reports how many were removed.
func (l *Log) TruncateBefore(seq uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seqs, err := listSegments(l.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, s := range seqs {
		if s >= seq || s == l.seq {
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, segmentName(s))); err != nil {
			l.segments -= removed
			return removed, fmt.Errorf("persist: truncating wal segment %d: %w", s, err)
		}
		removed++
	}
	l.segments -= removed
	return removed, nil
}

// Seq returns the current segment's sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// LogStats reports an open log's health for /stats.
type LogStats struct {
	Policy   string `json:"policy"`
	Segments int    `json:"segments"`
	Seq      uint64 `json:"segment_seq"`
	Appended int64  `json:"appended_batches"`
	Bytes    int64  `json:"appended_bytes"`
}

// Stats snapshots the log's counters. The segment count is maintained by
// OpenLog/Rotate/TruncateBefore, so no directory scan runs here: /stats
// polls this under the serving read lock, and the log mutex is shared with
// the append path.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LogStats{
		Policy:   l.policy.String(),
		Segments: l.segments,
		Seq:      l.seq,
		Appended: l.appended,
		Bytes:    l.bytes,
	}
}

// Close flushes, syncs, and closes the log. The log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.closeSegmentLocked()
	l.mu.Unlock()
	if l.stopSync != nil {
		close(l.stopSync)
		<-l.syncDone
	}
	return err
}
