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
// Every write advances off, which the writer uses for page alignment. Small
// writes collect in pend and fold into crc, the directory checksum, one chunk
// at a time when pend flushes; flush before reading crc.
type snapshotWriter struct {
	bw   *bufio.Writer
	pend []byte
	buf  [binary.MaxVarintLen64]byte
	off  int64
	crc  uint32
}

// pendSize bounds snapshotWriter.pend.
const pendSize = 32 << 10

func newSnapshotWriter(out io.Writer) *snapshotWriter {
	return &snapshotWriter{bw: bufio.NewWriterSize(out, 1<<16), pend: make([]byte, 0, pendSize)}
}

// flush folds the pending bytes into crc and hands them to the buffered
// writer.
func (w *snapshotWriter) flush() error {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, w.pend)
	_, err := w.bw.Write(w.pend)
	w.pend = w.pend[:0]
	return err
}

func (w *snapshotWriter) writeRaw(p []byte) error {
	w.off += int64(len(p))
	if len(w.pend)+len(p) > pendSize {
		if err := w.flush(); err != nil {
			return err
		}
		if len(p) > pendSize {
			w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
			_, err := w.bw.Write(p)
			return err
		}
	}
	w.pend = append(w.pend, p...)
	return nil
}

func (w *snapshotWriter) writeString(s string) error {
	for len(s) > 0 {
		if len(w.pend) == pendSize {
			if err := w.flush(); err != nil {
				return err
			}
		}
		n := min(pendSize-len(w.pend), len(s))
		w.pend = append(w.pend, s[:n]...)
		w.off += int64(n)
		s = s[n:]
	}
	return nil
}

// Write and WriteString let a section serializer outside the package, such
// as rdf.Dict.WriteTo, write through the checksum.
func (w *snapshotWriter) Write(p []byte) (int, error) {
	if err := w.writeRaw(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (w *snapshotWriter) WriteString(s string) (int, error) {
	if err := w.writeString(s); err != nil {
		return 0, err
	}
	return len(s), nil
}

func (w *snapshotWriter) writeByte(b byte) error {
	w.buf[0] = b
	return w.writeRaw(w.buf[:1])
}

func (w *snapshotWriter) uvarint(v uint64) error {
	n := binary.PutUvarint(w.buf[:], v)
	return w.writeRaw(w.buf[:n])
}

func (w *snapshotWriter) key(t rdf.EncodedTriple) error {
	for _, id := range t {
		if err := w.uvarint(uint64(id)); err != nil {
			return err
		}
	}
	return nil
}

// writeTerms writes the dictionary section: rdf.Dict's serialized form, the
// loaded base verbatim and then the terms interned since.
func (g *Graph) writeTerms(w *snapshotWriter) error {
	if _, err := g.dict.WriteTo(w); err != nil {
		return fmt.Errorf("store: writing terms: %w", err)
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
// the heap; LoadFile opens a snapshot file. Both check every payload CRC.
func Load(r io.Reader) (*Graph, error) {
	full, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	return loadPagedBytes(full, false)
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

// readTerms opens the dictionary section in place at the reader's position
// (rdf.OpenDict validates it, duplicates included) and advances past it.
// Snapshot IDs are the dictionary's IDs, so payloads need no remapping.
func readTerms(r *bytes.Reader, full []byte) (*rdf.Dict, error) {
	d, n, err := rdf.OpenDict(full[len(full)-r.Len():])
	if err != nil {
		return nil, fmt.Errorf("store: reading terms: %w", err)
	}
	if _, err := r.Seek(int64(n), io.SeekCurrent); err != nil {
		return nil, fmt.Errorf("store: reading terms: %w", err)
	}
	return d, nil
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
