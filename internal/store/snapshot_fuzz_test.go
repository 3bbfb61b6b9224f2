package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"sofos/internal/rdf"
)

// snapshotBytes serializes a small deterministic graph as a paged (v3)
// snapshot. The minimum page size keeps the file a few KiB so the exhaustive
// every-prefix and bit-flip sweeps stay fast; production-sized pages are
// covered by the round-trip and differential tests.
func snapshotBytes(t testing.TB) []byte {
	t.Helper()
	g := NewGraph()
	base := randomGraph(rand.New(rand.NewSource(99)), 40).Triples()
	if _, err := g.LoadTriples(base); err != nil {
		t.Fatal(err)
	}
	g.MustAdd(rdf.Triple{S: iri("s"), P: iri("p"), O: rdf.NewLangLiteral("héllo", "fr")})
	g.MustAdd(rdf.Triple{S: rdf.NewBlank("b"), P: iri("p"), O: rdf.NewTypedLiteral("2.5", rdf.XSDDouble)})
	g.Remove(base[0]) // one run tombstone, so every overlay section is non-empty
	var buf bytes.Buffer
	if err := g.SavePaged(&buf, minPageSize); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadTruncationEveryPrefix feeds Load every prefix of a valid snapshot:
// all but the full input must return an error — never panic, never a
// silently short graph.
func TestLoadTruncationEveryPrefix(t *testing.T) {
	full := snapshotBytes(t)
	for cut := 0; cut < len(full); cut++ {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d loaded successfully", cut, len(full))
		}
	}
	if _, err := Load(bytes.NewReader(full)); err != nil {
		t.Fatalf("full snapshot failed: %v", err)
	}
}

// TestLoadBitFlips flips bits across the snapshot: every outcome must be an
// error or a well-formed graph (a flip inside string payload bytes yields a
// different but valid graph), never a panic.
func TestLoadBitFlips(t *testing.T) {
	full := snapshotBytes(t)
	for off := 0; off < len(full); off++ {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), full...)
			mut[off] ^= bit
			g, err := Load(bytes.NewReader(mut))
			if err != nil {
				continue
			}
			// Survivors must be internally consistent and scannable.
			n := 0
			it := g.Scan(rdf.NoID, rdf.NoID, rdf.NoID)
			for it.Next() {
				n++
			}
			if n != g.Len() {
				t.Fatalf("flip at %d/%#x: Len()=%d but scan found %d", off, bit, g.Len(), n)
			}
		}
	}
}

// TestLoadHugeCounts feeds headers whose counts demand absurd allocations;
// they must fail on the reads, not by exhausting memory.
func TestLoadHugeCounts(t *testing.T) {
	var buf [binary.MaxVarintLen64]byte
	uv := func(b *bytes.Buffer, v uint64) { b.Write(buf[:binary.PutUvarint(buf[:], v)]) }
	header := func() *bytes.Buffer {
		var b bytes.Buffer
		b.WriteString(snapshotMagicV3)
		b.WriteByte(1) // block codec
		uv(&b, blockSize)
		uv(&b, minPageSize)
		return &b
	}
	for _, count := range []uint64{1 << 40, 1<<64 - 1} {
		b := header()
		uv(b, count) // termCount
		if _, err := Load(bytes.NewReader(b.Bytes())); err == nil {
			t.Fatalf("termCount %d accepted", count)
		}
	}
	// Same for the overlay count, after one valid term.
	b := header()
	uv(b, 1)                         // one term
	b.Write([]byte{0, 1, 'x', 0, 0}) // IRI "x"
	uv(b, 1<<64-1)                   // overlay-add count
	if _, err := Load(bytes.NewReader(b.Bytes())); err == nil {
		t.Fatal("huge overlay count accepted")
	}
}

// FuzzSnapshotLoad hammers Load with mutated snapshots: the contract under
// fuzzing is that every input either loads into a consistent graph or
// returns an error — no panics, no runaway allocations.
func FuzzSnapshotLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(snapshotMagicV3))
	f.Add(snapshotBytes(f))
	var empty bytes.Buffer
	if err := NewGraph().SavePaged(&empty, minPageSize); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := 0
		it := g.Scan(rdf.NoID, rdf.NoID, rdf.NoID)
		for it.Next() {
			n++
		}
		if n != g.Len() {
			t.Fatalf("loaded graph inconsistent: Len()=%d, scan=%d", g.Len(), n)
		}
	})
}

// termRecords returns the start offset of every record in a snapshot's terms
// section, plus the section's end.
func termRecords(t *testing.T, full []byte) []int {
	t.Helper()
	pos := len(snapshotMagicV3) + 1 // magic, codec
	for i := 0; i < 2; i++ {        // block size, page size
		_, k := binary.Uvarint(full[pos:])
		pos += k
	}
	count, k := binary.Uvarint(full[pos:])
	pos += k
	starts := []int{pos}
	for i := uint64(0); i < count; i++ {
		pos++ // kind
		for f := 0; f < 3; f++ {
			n, k := binary.Uvarint(full[pos:])
			pos += k + int(n)
		}
		starts = append(starts, pos)
	}
	return starts
}

// dirChecksumAt returns the offset of a snapshot's directory checksum: the
// first position whose next four bytes are the CRC of everything before it.
func dirChecksumAt(t *testing.T, full []byte) int {
	t.Helper()
	var crc uint32
	for off := 0; off+4 <= len(full); off++ {
		if binary.LittleEndian.Uint32(full[off:]) == crc {
			return off
		}
		crc = crc32.Update(crc, crc32.IEEETable, full[off:off+1])
	}
	t.Fatal("no directory checksum found")
	return 0
}

// TestLoadRejectsBadTermsSection hand-edits the terms section and re-stamps
// the directory checksum, so each load fails on the dictionary check alone.
func TestLoadRejectsBadTermsSection(t *testing.T) {
	full := snapshotBytes(t)
	recs := termRecords(t, full)
	dirEnd := dirChecksumAt(t, full)
	// splice replaces full[at:at+n] with repl and re-stamps the checksum at
	// its shifted offset.
	splice := func(at, n int, repl []byte) []byte {
		out := append(append(append([]byte(nil), full[:at]...), repl...), full[at+n:]...)
		end := dirEnd + len(repl) - n
		binary.LittleEndian.PutUint32(out[end:], crc32.ChecksumIEEE(out[:end]))
		return out
	}
	// Two records of equal length, so a duplicate needs no shift.
	dupSrc, dupDst := -1, -1
	for i := 0; i+1 < len(recs)-1 && dupDst < 0; i++ {
		for j := i + 1; j+1 < len(recs); j++ {
			if recs[i+1]-recs[i] == recs[j+1]-recs[j] {
				dupSrc, dupDst = i, j
				break
			}
		}
	}
	if dupDst < 0 {
		t.Fatal("fixture has no two term records of equal length")
	}
	valueLen := recs[0] + 1 // the first record's value length, one byte
	if full[valueLen] >= 0x80 {
		t.Fatal("fixture's first value length is not a one-byte varint")
	}
	var overLimit [binary.MaxVarintLen64]byte
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"duplicate term", "not unique", splice(recs[dupDst], recs[dupDst+1]-recs[dupDst], full[recs[dupSrc]:recs[dupSrc+1]])},
		{"kind above literal", "invalid kind", splice(recs[0], 1, []byte{byte(rdf.KindLiteral) + 1})},
		{"string over the limit", "exceeds limit", splice(valueLen, 1, overLimit[:binary.PutUvarint(overLimit[:], 1<<24+1)])},
		{"overlong length varint", "non-canonical", splice(valueLen, 1, []byte{full[valueLen] | 0x80, 0})},
	} {
		_, err := Load(bytes.NewReader(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Load error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// The untouched snapshot, re-stamped the same way, still loads.
	if _, err := Load(bytes.NewReader(splice(0, 0, nil))); err != nil {
		t.Fatalf("re-stamped original failed: %v", err)
	}
}

// TestSnapshotReopenedDictionaryRoundTrip saves, loads (the dictionary comes
// back as an opened base), interns new terms into the tail and saves again:
// the bytes must equal a fresh build of the same history.
func TestSnapshotReopenedDictionaryRoundTrip(t *testing.T) {
	base := randomGraph(rand.New(rand.NewSource(21)), 60).Triples()
	extra := []rdf.Triple{
		{S: iri("new-s"), P: iri("p"), O: rdf.NewLangLiteral("neu", "de")},
		{S: rdf.NewBlank("nb"), P: iri("new-p"), O: rdf.NewTypedLiteral("", rdf.XSDString)},
		{S: base[0].S, P: base[1].P, O: iri("new-o")},
	}
	build := func() *Graph {
		g := NewGraph()
		if _, err := g.LoadTriples(base); err != nil {
			t.Fatal(err)
		}
		return g
	}
	save := func(g *Graph) []byte {
		var buf bytes.Buffer
		if err := g.SavePaged(&buf, minPageSize); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fresh := build()
	reopened, err := Load(bytes.NewReader(save(build())))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{fresh, reopened} {
		for _, tr := range extra {
			g.MustAdd(tr)
		}
	}
	if want, got := save(fresh), save(reopened); !bytes.Equal(got, want) {
		t.Fatalf("re-saved reopened graph differs from a fresh build (%d vs %d bytes)", len(got), len(want))
	}
}
