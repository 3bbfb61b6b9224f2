package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sofos/internal/rdf"
)

// streamRec builds a chained test record moving version v-1 → v.
func streamRec(v int64) *Record {
	return &Record{
		FromVersion: v - 1,
		ToVersion:   v,
		Generation:  v * 10,
		Inserts: []rdf.Triple{{
			S: rdf.Term{Kind: rdf.KindIRI, Value: fmt.Sprintf("http://s/%d", v)},
			P: rdf.Term{Kind: rdf.KindIRI, Value: "http://p"},
			O: rdf.Term{Kind: rdf.KindLiteral, Value: fmt.Sprintf("%d", v)},
		}},
	}
}

func TestRecordEncodeDecodeRoundTrip(t *testing.T) {
	rec := streamRec(7)
	rec.Eager = true
	got, err := DecodeRecord(rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.FromVersion != rec.FromVersion || got.ToVersion != rec.ToVersion ||
		got.Generation != rec.Generation || !got.Eager ||
		len(got.Inserts) != 1 || got.Inserts[0] != rec.Inserts[0] {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, rec)
	}
}

// drain reads records until ErrWALNoMore, asserting the version chain.
func drain(t *testing.T, c *WALCursor) []*Record {
	t.Helper()
	var out []*Record
	for {
		rec, _, err := c.Next()
		if errors.Is(err, ErrWALNoMore) {
			return out
		}
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		out = append(out, rec)
	}
}

func TestWALCursorFollowsAppendsAndRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	for v := int64(1); v <= 3; v++ {
		if err := l.Append(streamRec(v)); err != nil {
			t.Fatal(err)
		}
	}
	c := OpenWALCursor(dir, 0, 0)
	defer c.Close()
	got := drain(t, c)
	if len(got) != 3 || got[2].ToVersion != 3 {
		t.Fatalf("drained %d records, want 3 ending at version 3", len(got))
	}

	// The cursor follows appends made after it hit the tail.
	if err := l.Append(streamRec(4)); err != nil {
		t.Fatal(err)
	}
	got = drain(t, c)
	if len(got) != 1 || got[0].ToVersion != 4 {
		t.Fatalf("follow-up drain = %d records, want the version-4 record", len(got))
	}

	// ... and spans a segment rotation.
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(streamRec(5)); err != nil {
		t.Fatal(err)
	}
	got = drain(t, c)
	if len(got) != 1 || got[0].ToVersion != 5 {
		t.Fatalf("post-rotation drain = %d records, want the version-5 record", len(got))
	}
	if c.Version() != 5 {
		t.Fatalf("cursor version = %d, want 5", c.Version())
	}
}

func TestWALCursorResumesMidLog(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for v := int64(1); v <= 5; v++ {
		if err := l.Append(streamRec(v)); err != nil {
			t.Fatal(err)
		}
	}
	c := OpenWALCursor(dir, 0, 3)
	defer c.Close()
	got := drain(t, c)
	if len(got) != 2 || got[0].FromVersion != 3 || got[1].ToVersion != 5 {
		t.Fatalf("resume from 3 delivered %d records (%+v), want versions 3→4 and 4→5", len(got), got)
	}
}

func TestWALCursorDetectsTruncationGap(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for v := int64(1); v <= 3; v++ {
		if err := l.Append(streamRec(v)); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint-style rotation + truncation: records 1..3 vanish.
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.TruncateBefore(seq); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(streamRec(4)); err != nil {
		t.Fatal(err)
	}

	// A follower at version 0 cannot chain to the surviving 3→4 record.
	c := OpenWALCursor(dir, 0, 0)
	defer c.Close()
	if _, _, err := c.Next(); !errors.Is(err, ErrWALGap) {
		t.Fatalf("cursor across truncation = %v, want ErrWALGap", err)
	}

	// A follower at version 3 resumes cleanly.
	c2 := OpenWALCursor(dir, 0, 3)
	defer c2.Close()
	got := drain(t, c2)
	if len(got) != 1 || got[0].ToVersion != 4 {
		t.Fatalf("resume at truncation boundary delivered %d records, want the 3→4 record", len(got))
	}
}

func TestWALCursorEmptyDirWaits(t *testing.T) {
	c := OpenWALCursor(t.TempDir(), 0, 0)
	defer c.Close()
	if _, _, err := c.Next(); !errors.Is(err, ErrWALNoMore) {
		t.Fatalf("empty dir: %v, want ErrWALNoMore", err)
	}
}

// segmentHeader renders the header Log.openSegment writes for segment seq.
func segmentHeader(seq uint64) []byte {
	return binary.AppendUvarint([]byte(walMagic), seq)
}

// frame renders the bytes Log.Append writes for rec.
func frame(rec *Record) []byte {
	payload := rec.encode()
	b := binary.AppendUvarint(nil, uint64(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// writeSegment writes segment seq of dir with the given bytes.
func writeSegment(t *testing.T, dir string, seq uint64, parts ...[]byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, segmentName(seq)), bytes.Join(parts, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWALCursorAppendInFlight: a record whose bytes are only partly on disk
// at the live tail is an append in flight — the cursor waits with the torn
// flag set and delivers the record once the rest lands.
func TestWALCursorAppendInFlight(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, SyncNone, []*Record{streamRec(1)})
	c := OpenWALCursor(dir, 0, 0)
	defer c.Close()
	if got := drain(t, c); len(got) != 1 || c.Torn() {
		t.Fatalf("drained %d records, torn %v; want 1 whole record", len(got), c.Torn())
	}

	f, err := os.OpenFile(filepath.Join(dir, segmentName(1)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := frame(streamRec(2))
	if _, err := f.Write(b[:len(b)/2]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Next(); !errors.Is(err, ErrWALNoMore) || !c.Torn() {
		t.Fatalf("half-written record: err %v, torn %v; want ErrWALNoMore with the torn flag", err, c.Torn())
	}
	if _, err := f.Write(b[len(b)/2:]); err != nil {
		t.Fatal(err)
	}
	rec, seq, err := c.Next()
	if err != nil || rec.ToVersion != 2 || seq != 1 || c.Torn() {
		t.Fatalf("completed record: %+v in segment %d, err %v, torn %v", rec, seq, err, c.Torn())
	}
	if _, _, err := c.Next(); !errors.Is(err, ErrWALNoMore) || c.Torn() {
		t.Fatalf("after the completed record: err %v, torn %v; want a clean ErrWALNoMore", err, c.Torn())
	}
}

// TestWALCursorEndOfLogRule: damage ends the log when no later segment holds
// a record — the cursor waits with the torn flag set — and is corruption,
// naming the damaged segment, once one does.
func TestWALCursorEndOfLogRule(t *testing.T) {
	r1, r2 := frame(streamRec(1)), frame(streamRec(2))
	flipped := append([]byte(nil), r2...)
	flipped[len(flipped)-1] ^= 0x40
	damages := []struct {
		name  string
		seg1  [][]byte
		whole int // records before the damage
	}{
		{"cut record", [][]byte{segmentHeader(1), r1, r2[:len(r2)-3]}, 1},
		{"checksum mismatch", [][]byte{segmentHeader(1), r1, flipped}, 1},
		{"short header", [][]byte{[]byte(walMagic[:4])}, 0},
		{"wrong header seq", [][]byte{segmentHeader(7), r1}, 0},
		{"bad magic", [][]byte{[]byte("SOFOSWAL0"), {1}, r1}, 0},
	}
	laters := []struct {
		name string
		segs [][]byte // segments 2, 3, ... after the damaged one
	}{
		{"no later segment", nil},
		{"empty later segment", [][]byte{segmentHeader(2)}},
		{"short-header later segment", [][]byte{[]byte(walMagic[:4])}},
		{"empty then short header", [][]byte{segmentHeader(2), nil}},
	}
	for _, d := range damages {
		for _, l := range laters {
			t.Run(d.name+"/"+l.name, func(t *testing.T) {
				dir := t.TempDir()
				writeSegment(t, dir, 1, d.seg1...)
				for i, s := range l.segs {
					writeSegment(t, dir, uint64(i+2), s)
				}
				c := OpenWALCursor(dir, 0, 0)
				defer c.Close()
				if got := drain(t, c); len(got) != d.whole || !c.Torn() {
					t.Fatalf("drained %d records, torn %v; want %d and a torn tail", len(got), c.Torn(), d.whole)
				}
				// A record landing in a later segment turns the torn tail
				// into mid-log corruption.
				writeSegment(t, dir, 9, segmentHeader(9), frame(streamRec(int64(d.whole)+1)))
				_, _, err := c.Next()
				if err == nil || errors.Is(err, ErrWALNoMore) || errors.Is(err, ErrWALGap) {
					t.Fatalf("damage before a record: err %v, want corruption", err)
				}
				if !strings.Contains(err.Error(), "segment 1 ") {
					t.Fatalf("error %q does not name the damaged segment 1", err)
				}
			})
		}
	}
}
