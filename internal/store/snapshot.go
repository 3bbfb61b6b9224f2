package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"sofos/internal/rdf"
)

// Snapshot format: a compact binary serialization of a graph — the term
// dictionary, the delta overlay, the component counts and the block runs —
// so generated datasets, expanded graphs, and durability checkpoints can be
// saved and reloaded without re-running generators or re-parsing N-Triples.
// There is one format, the paged v3 layout described in paged.go, and only
// block-coded graphs have it: the runs are persisted verbatim, never
// re-encoded.
//
// The two earlier formats (v1, magic "SOFOSGR1", and v2, "SOFOSGR2") are
// retired: Load recognizes their magic only to say so, and a data directory
// holding them must be regenerated.
const (
	snapshotMagicV3 = "SOFOSGR3"

	retiredMagicV1 = "SOFOSGR1"
	retiredMagicV2 = "SOFOSGR2"
)

// snapshotWriter bundles the varint helpers the snapshot sections share.
// Every write also advances off and folds into crc, which the writer uses for
// page alignment and the directory checksum.
type snapshotWriter struct {
	bw   *bufio.Writer
	buf  [binary.MaxVarintLen64]byte
	sbuf []byte
	off  int64
	crc  uint32
}

func (w *snapshotWriter) writeRaw(p []byte) error {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	w.off += int64(len(p))
	_, err := w.bw.Write(p)
	return err
}

func (w *snapshotWriter) writeByte(b byte) error {
	w.buf[0] = b
	return w.writeRaw(w.buf[:1])
}

func (w *snapshotWriter) writeString(s string) error {
	w.sbuf = append(w.sbuf[:0], s...)
	return w.writeRaw(w.sbuf)
}

func (w *snapshotWriter) uvarint(v uint64) error {
	n := binary.PutUvarint(w.buf[:], v)
	return w.writeRaw(w.buf[:n])
}

func (w *snapshotWriter) str(s string) error {
	if err := w.uvarint(uint64(len(s))); err != nil {
		return err
	}
	return w.writeString(s)
}

func (w *snapshotWriter) key(t rdf.EncodedTriple) error {
	for _, id := range t {
		if err := w.uvarint(uint64(id)); err != nil {
			return err
		}
	}
	return nil
}

// writeTerms writes the dictionary section.
func (g *Graph) writeTerms(w *snapshotWriter) error {
	if err := w.uvarint(uint64(g.dict.Len())); err != nil {
		return fmt.Errorf("store: writing term count: %w", err)
	}
	var werr error
	g.dict.EachTerm(func(_ rdf.ID, t rdf.Term) bool {
		if err := w.writeByte(byte(t.Kind)); err != nil {
			werr = err
			return false
		}
		for _, s := range []string{t.Value, t.Datatype, t.Lang} {
			if err := w.str(s); err != nil {
				werr = err
				return false
			}
		}
		return true
	})
	if werr != nil {
		return fmt.Errorf("store: writing terms: %w", werr)
	}
	return nil
}

// Save writes the graph as a paged (v3) snapshot with the default page size.
// Only block-coded graphs can be saved; the flat test oracle cannot.
func (g *Graph) Save(w io.Writer) error {
	return g.SavePaged(w, defaultPageSize)
}

// writeOverlays writes the delta-overlay sections (adds then dels),
// SPO-sorted.
func (g *Graph) writeOverlays(w *snapshotWriter) error {
	for _, keys := range [][]rdf.EncodedTriple{g.ov.adds[permSPO], g.ov.dels[permSPO]} {
		if err := w.uvarint(uint64(len(keys))); err != nil {
			return fmt.Errorf("store: writing overlay count: %w", err)
		}
		for _, t := range keys {
			if err := w.key(t); err != nil {
				return fmt.Errorf("store: writing overlay: %w", err)
			}
		}
	}
	return nil
}

// blockRunsLocked returns the graph's permutation runs as blockRuns, with
// empty stand-ins for never-written indexes, erroring if the graph holds a
// different run representation.
func (g *Graph) blockRunsLocked() ([numPerms]*blockRun, error) {
	var brs [numPerms]*blockRun
	for k := permKind(0); k < numPerms; k++ {
		if g.runs[k] != nil {
			br, ok := g.runs[k].(*blockRun)
			if !ok {
				return brs, fmt.Errorf("store: only block-coded graphs have a snapshot form (graph holds a %T run)", g.runs[k])
			}
			brs[k] = br
		}
		if brs[k] == nil {
			brs[k] = &blockRun{}
		}
	}
	return brs, nil
}

// Load reads a snapshot written by Save into a fresh block-coded graph on
// the heap. LoadFile is the entry point that can mmap instead.
func Load(r io.Reader) (*Graph, error) {
	full, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	return loadPagedBytes(full, StorageHeap)
}

// checkMagic reads and checks the snapshot magic, naming a retired format
// when it finds one.
func checkMagic(r *bytes.Reader) error {
	var magic [len(snapshotMagicV3)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("store: reading snapshot header: %w", err)
	}
	switch string(magic[:]) {
	case snapshotMagicV3:
		return nil
	case retiredMagicV1, retiredMagicV2:
		return fmt.Errorf("store: snapshot format v%c (magic %q) is retired; regenerate the data directory", magic[7], magic[:])
	default:
		return fmt.Errorf("store: bad snapshot magic %q", magic[:])
	}
}

// readSnapshotString reads one length-prefixed string with a clamped limit.
func readSnapshotString(r *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("store: string length %d exceeds limit", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// readTerms reads the dictionary section into the graph's dict, returning
// the snapshot-ID -> fresh-dict-ID remap table (index 0 unused) and the term
// count.
func readTerms(r *bytes.Reader, g *Graph) ([]rdf.ID, uint64, error) {
	termCount, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, fmt.Errorf("store: reading term count: %w", err)
	}
	// Grown by append with a clamped initial capacity: the count is untrusted
	// input, and a corrupt value must fail on the reads below, not demand an
	// unbounded up-front allocation.
	idCap := termCount + 1
	if idCap > 1<<20 || idCap == 0 { // == 0: termCount wrapped around
		idCap = 1 << 20
	}
	ids := make([]rdf.ID, 1, idCap)
	for i := uint64(1); i <= termCount; i++ {
		kind, err := r.ReadByte()
		if err != nil {
			return nil, 0, fmt.Errorf("store: reading term %d: %w", i, err)
		}
		if kind > byte(rdf.KindLiteral) {
			return nil, 0, fmt.Errorf("store: invalid term kind %d", kind)
		}
		var t rdf.Term
		t.Kind = rdf.TermKind(kind)
		if t.Value, err = readSnapshotString(r); err != nil {
			return nil, 0, fmt.Errorf("store: reading term %d value: %w", i, err)
		}
		if t.Datatype, err = readSnapshotString(r); err != nil {
			return nil, 0, fmt.Errorf("store: reading term %d datatype: %w", i, err)
		}
		if t.Lang, err = readSnapshotString(r); err != nil {
			return nil, 0, fmt.Errorf("store: reading term %d lang: %w", i, err)
		}
		ids = append(ids, g.dict.Intern(t))
	}
	return ids, termCount, nil
}

// readOverlaySection reads one SPO-sorted delta-overlay section, validating
// strict ordering and dictionary-range IDs.
func readOverlaySection(r *bytes.Reader, section string, maxID rdf.ID) ([]rdf.EncodedTriple, error) {
	cnt, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s count: %w", section, err)
	}
	capHint := cnt
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	keys := make([]rdf.EncodedTriple, 0, capHint)
	var prev rdf.EncodedTriple
	for i := uint64(0); i < cnt; i++ {
		var t rdf.EncodedTriple
		for c := 0; c < 3; c++ {
			v, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, fmt.Errorf("store: reading %s entry %d: %w", section, i, err)
			}
			if v == 0 || v > uint64(maxID) {
				return nil, fmt.Errorf("store: %s entry %d references invalid term id %d", section, i, v)
			}
			t[c] = rdf.ID(v)
		}
		if i > 0 && cmpKeys(prev, t) >= 0 {
			return nil, fmt.Errorf("store: %s entries not strictly sorted at %d", section, i)
		}
		prev = t
		keys = append(keys, t)
	}
	return keys, nil
}
