package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sofos/internal/rdf"
)

// testRecord builds a distinguishable record for batch i.
func testRecord(i int) *Record {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	return &Record{
		FromVersion: int64(i * 10),
		ToVersion:   int64(i*10 + 10),
		Generation:  int64(i + 100),
		Eager:       i%2 == 0,
		Inserts: []rdf.Triple{
			{S: ex(fmt.Sprintf("s%d", i)), P: ex("p"), O: rdf.NewInteger(int64(i))},
			{S: ex(fmt.Sprintf("s%d", i)), P: ex("q"), O: rdf.NewLangLiteral("hi", "en")},
		},
		Deletes: []rdf.Triple{
			{S: ex(fmt.Sprintf("d%d", i)), P: ex("p"), O: rdf.NewTypedLiteral("3.5", rdf.XSDDouble)},
		},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for i := 0; i < 3; i++ {
		rec := testRecord(i)
		got, err := decodeRecord(rec.encode())
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("record %d round trip:\n got %+v\nwant %+v", i, got, rec)
		}
	}
	empty := &Record{FromVersion: 5, ToVersion: 7, Generation: 9}
	got, err := decodeRecord(empty.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.ToVersion != 7 {
		t.Fatalf("empty record round trip: %+v", got)
	}
}

func TestRecordDecodeCorruption(t *testing.T) {
	payload := testRecord(1).encode()
	// Every truncation must error, never panic.
	for n := 0; n < len(payload); n++ {
		if _, err := decodeRecord(payload[:n]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", n)
		}
	}
	// Trailing garbage is rejected (the CRC covers the whole payload, so
	// this only triggers on a format bug, but it must still be an error).
	if _, err := decodeRecord(append(append([]byte{}, payload...), 0xff)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// appendAll opens a log, appends the records, and closes it.
func appendAll(t *testing.T, dir string, policy SyncPolicy, recs []*Record) {
	t.Helper()
	l, err := OpenLog(dir, policy)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// readAll drains a cursor the way recovery does — until ErrWALNoMore —
// returning the records it delivered, the cursor (for Torn and Skipped), and
// the first other error.
func readAll(dir string, fromSeq uint64, fromVersion int64) ([]*Record, *WALCursor, error) {
	c := OpenWALCursor(dir, fromSeq, fromVersion)
	defer c.Close()
	var got []*Record
	for {
		rec, _, err := c.Next()
		if errors.Is(err, ErrWALNoMore) {
			return got, c, nil
		}
		if err != nil {
			return got, c, err
		}
		got = append(got, rec)
	}
}

// replayAll is readAll failing the test on any error.
func replayAll(t *testing.T, dir string, fromSeq uint64, fromVersion int64) ([]*Record, *WALCursor) {
	t.Helper()
	got, c, err := readAll(dir, fromSeq, fromVersion)
	if err != nil {
		t.Fatal(err)
	}
	return got, c
}

func TestWALAppendReplay(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			want := []*Record{testRecord(0), testRecord(1), testRecord(2)}
			appendAll(t, dir, policy, want)
			got, c := replayAll(t, dir, 0, 0)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("replay mismatch:\n got %d records\nwant %d", len(got), len(want))
			}
			if c.Torn() || c.Skipped() != 0 {
				t.Fatalf("torn %v, skipped %d", c.Torn(), c.Skipped())
			}
		})
	}
}

func TestWALNewSegmentPerOpen(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, SyncNone, []*Record{testRecord(0)})
	appendAll(t, dir, SyncNone, []*Record{testRecord(1)})
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("segments = %v", seqs)
	}
	got, _ := replayAll(t, dir, 0, 0)
	if len(got) != 2 {
		t.Fatalf("replayed %d records across segments", len(got))
	}
}

func TestWALRotateAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("rotated to seq %d", seq)
	}
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	// Replay from the rotation point sees only the later record. The reader
	// checks the version chain, so it resumes at the version the first
	// record ended at — where a checkpoint taken at the rotation would be.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	resume := testRecord(0).ToVersion
	got, _ := replayAll(t, dir, seq, resume)
	if len(got) != 1 || got[0].Generation != testRecord(1).Generation {
		t.Fatalf("suffix replay got %d records", len(got))
	}
	// Truncation removes the pre-checkpoint segment.
	l2, err := OpenLog(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	removed, err := l2.TruncateBefore(seq)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed %d segments", removed)
	}
	got, _ = replayAll(t, dir, 0, resume)
	if len(got) != 1 {
		t.Fatalf("post-truncate replay got %d records", len(got))
	}
}

// TestWALTornTailEveryPrefix is the kill-point sweep: the log is cut after
// every possible byte — simulating SIGKILL mid-append at each instant — and
// recovery must always land on a record boundary: some prefix of the
// committed records, never a torn or corrupt batch.
func TestWALTornTailEveryPrefix(t *testing.T) {
	dir := t.TempDir()
	want := []*Record{testRecord(0), testRecord(1), testRecord(2)}
	appendAll(t, dir, SyncNone, want)
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) != 1 {
		t.Fatalf("segments = %v, err %v", seqs, err)
	}
	full, err := os.ReadFile(filepath.Join(dir, segmentName(seqs[0])))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, segmentName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, c, err := readAll(cutDir, 0, 0)
		if err != nil {
			t.Fatalf("cut at %d: replay error %v (torn tails must recover cleanly)", cut, err)
		}
		if len(got) > len(want) {
			t.Fatalf("cut at %d: %d records from %d appended", cut, len(got), len(want))
		}
		for i, r := range got {
			if !reflect.DeepEqual(r, want[i]) {
				t.Fatalf("cut at %d: record %d torn or corrupt", cut, i)
			}
		}
		if len(got) < len(want) && !c.Torn() && cut < len(full) {
			// Fewer records than appended must be explained by a detected
			// tear, except at exact record boundaries.
			if !atRecordBoundary(t, full, cut) {
				t.Fatalf("cut at %d: lost records without a torn-tail report", cut)
			}
		}
	}
}

// atRecordBoundary reports whether cutting the segment at off leaves a
// decodable whole-record prefix (replay then ends by clean EOF, not a tear).
func atRecordBoundary(t *testing.T, full []byte, off int) bool {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), full[:off], 0o644); err != nil {
		t.Fatal(err)
	}
	_, c, err := readAll(dir, 0, 0)
	return err == nil && !c.Torn()
}

// TestWALBitFlips flips each byte of a one-segment log and asserts replay
// either errors cleanly or reports a torn tail — never panics, never yields
// a record that was not appended.
func TestWALBitFlips(t *testing.T) {
	dir := t.TempDir()
	want := []*Record{testRecord(0), testRecord(1)}
	appendAll(t, dir, SyncNone, want)
	full, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(full); off++ {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x40
		flipDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(flipDir, segmentName(1)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, _ := readAll(flipDir, 0, 0)
		// Whatever was yielded must be a prefix of the truth: CRC-guarded
		// records cannot be silently altered. (A flip inside record i stops
		// replay before it; a flip in the varint length can at worst hide
		// later records, never invent different ones.)
		for i, r := range got {
			if i < len(want) && !reflect.DeepEqual(r, want[i]) {
				t.Fatalf("flip at %d: replay yielded an altered record", off)
			}
		}
	}
}

func TestWALCorruptMidLogFails(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, SyncNone, []*Record{testRecord(0)})
	appendAll(t, dir, SyncNone, []*Record{testRecord(1)})
	// Damage the first (non-final) segment's tail: acknowledged data follows
	// in segment 2, so replay must fail loudly.
	p := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readAll(dir, 0, 0); err == nil {
		t.Fatal("mid-log corruption replayed without error")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"none", SyncNone}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("round trip %q -> %q", tc.in, got.String())
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if cp, err := d.LatestCheckpoint(); err != nil || cp != nil {
		t.Fatalf("empty dir: cp=%v err=%v", cp, err)
	}
	write := func(graph, catalog string, m Manifest) *Checkpoint {
		cp, err := d.WriteCheckpoint(m,
			func(w io.Writer) error { _, err := io.WriteString(w, graph); return err },
			func(w io.Writer) error { _, err := io.WriteString(w, catalog); return err })
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	cp1 := write("G1", "C1", Manifest{Dataset: "lubm", GraphVersion: 10, Generation: 3, WALSeq: 2})
	if cp1.Manifest.Sequence != 1 {
		t.Fatalf("first checkpoint seq = %d", cp1.Manifest.Sequence)
	}
	got, err := d.LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest.GraphVersion != 10 || got.Manifest.Dataset != "lubm" || got.Manifest.Format != manifestFormat {
		t.Fatalf("manifest = %+v", got.Manifest)
	}
	r, err := got.OpenGraph()
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r)
	r.Close()
	if string(raw) != "G1" {
		t.Fatalf("graph payload = %q", raw)
	}

	// A second checkpoint supersedes the first and reclaims its directory.
	cp2 := write("G2", "C2", Manifest{Dataset: "lubm", GraphVersion: 20, Generation: 7, WALSeq: 5})
	if cp2.Manifest.Sequence != 2 {
		t.Fatalf("second checkpoint seq = %d", cp2.Manifest.Sequence)
	}
	got, err = d.LatestCheckpoint()
	if err != nil || got.Manifest.GraphVersion != 20 {
		t.Fatalf("latest after second: %+v, %v", got, err)
	}
	if _, err := os.Stat(filepath.Join(d.Path(), checkpointDirName(1))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("superseded checkpoint not reclaimed: %v", err)
	}

	cr, err := got.OpenCatalog()
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(cr)
	cr.Close()
	if string(raw) != "C2" {
		t.Fatalf("catalog payload = %q", raw)
	}
}

// TestCheckpointCrashMidWrite simulates dying between writing a checkpoint
// directory and repointing CURRENT: the previous checkpoint must stay
// authoritative, and the next write must clear the debris.
func TestCheckpointCrashMidWrite(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeStr := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if _, err := d.WriteCheckpoint(Manifest{GraphVersion: 1}, writeStr("G1"), writeStr("C1")); err != nil {
		t.Fatal(err)
	}
	// Fake a crashed attempt at checkpoint 2: complete dir, CURRENT never
	// repointed; plus a half-written tmp dir.
	for _, name := range []string{checkpointDirName(2), checkpointDirName(2) + ".tmp"} {
		if err := os.MkdirAll(filepath.Join(d.Path(), name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d.Path(), name, graphFile), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := d.LatestCheckpoint()
	if err != nil || got.Manifest.GraphVersion != 1 {
		t.Fatalf("debris changed the latest checkpoint: %+v, %v", got, err)
	}
	cp, err := d.WriteCheckpoint(Manifest{GraphVersion: 2}, writeStr("G2"), writeStr("C2"))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Manifest.Sequence != 2 {
		t.Fatalf("retry checkpoint seq = %d", cp.Manifest.Sequence)
	}
	r, err := cp.OpenGraph()
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r)
	r.Close()
	if string(raw) != "G2" {
		t.Fatalf("retry reused debris: graph = %q", raw)
	}
}

func TestCurrentRejectsPathEscape(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(d.Path(), currentFile), []byte("../evil\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LatestCheckpoint(); err == nil {
		t.Fatal("CURRENT escaping the data dir accepted")
	}
}

func TestNextSegmentSeq(t *testing.T) {
	dir := t.TempDir()
	seq, err := NextSegmentSeq(dir)
	if err != nil || seq != 1 {
		t.Fatalf("empty dir: %d, %v", seq, err)
	}
	appendAll(t, dir, SyncNone, []*Record{testRecord(0)})
	seq, err = NextSegmentSeq(dir)
	if err != nil || seq != 2 {
		t.Fatalf("after one segment: %d, %v", seq, err)
	}
}

// TestWALTornTailWithEmptyLaterSegments: a tear is still recoverable when
// the segments after it hold no records (a later boot opened a fresh
// segment, then died before appending) — only an acknowledged record past
// the tear is corruption.
func TestWALTornTailWithEmptyLaterSegments(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, SyncNone, []*Record{testRecord(0), testRecord(1)})
	p := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	// Two later record-free segments: one complete, one with a torn header.
	l, err := OpenLog(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(3)), []byte(walMagic[:4]), 0o644); err != nil {
		t.Fatal(err)
	}
	got, c := replayAll(t, dir, 0, 0)
	if len(got) != 1 || !c.Torn() {
		t.Fatalf("replayed %d records, torn %v; want 1 record with a torn tail", len(got), c.Torn())
	}
}

// TestWALRotateAfterFailedFlushRecovers: a latched bufio error from a failed
// append must not make rotation (and so healing checkpoints) fail forever.
// The unflushed bytes were never acknowledged, so dropping them is correct.
func TestWALRotateAfterFailedFlushRecovers(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	// Sabotage: swap the segment file for a read-only handle, the shape of a
	// transient write error — the next append's flush fails and bufio
	// latches the error, but the file itself still closes cleanly.
	l.mu.Lock()
	name := l.f.Name()
	l.f.Close()
	ro, err := os.Open(name)
	if err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.f = ro
	l.mu.Unlock()
	if err := l.Append(testRecord(1)); err == nil {
		t.Fatal("append through a read-only segment succeeded")
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatalf("rotation wedged by the latched flush error: %v", err)
	}
	if err := l.Append(testRecord(2)); err != nil {
		t.Fatalf("append after recovery rotation: %v", err)
	}
}

func TestWALStatsSegmentCounter(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("fresh log segments = %d", st.Segments)
	}
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments != 2 {
		t.Fatalf("after rotate segments = %d", st.Segments)
	}
	if _, err := l.TruncateBefore(seq); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	seqs, _ := listSegments(dir)
	if st.Segments != len(seqs) || st.Segments != 1 {
		t.Fatalf("after truncate segments = %d, on disk %d", st.Segments, len(seqs))
	}
}
