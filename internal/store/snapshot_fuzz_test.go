package store

import (
	"bytes"
	"encoding/binary"
	"math/rand"
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
