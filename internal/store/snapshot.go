package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"sofos/internal/rdf"
)

// Snapshot formats: compact binary serializations of a graph — the term
// dictionary followed by the triple data. They exist so generated datasets,
// expanded graphs, and durability checkpoints can be saved and reloaded
// without re-running generators or re-parsing N-Triples.
//
// v1 (flat graphs; all integers varint-encoded unless noted):
//
//	magic "SOFOSGR1" (8 bytes)
//	termCount
//	  per term: kind (1 byte), value, datatype, lang (length-prefixed strings)
//	tripleCount
//	  per triple: s, p, o as dictionary IDs (1-based, in dictionary order)
//
// v2 (block graphs) persists the compressed blocks verbatim, so saving and
// loading a block graph never re-encodes the runs:
//
//	magic "SOFOSGR2" (8 bytes)
//	codec (1 byte, 1 = block)
//	blockSize
//	termCount + terms (as v1)
//	addCount,  per add: s, p, o    (delta-overlay inserts, SPO-sorted)
//	delCount,  per del: s, p, o    (delta-overlay tombstones, SPO-sorted)
//	per permutation (SPO, POS, OSP):
//	  keyCount
//	  blockCount
//	    per block: count, min (3 ints), max (3 ints), payloadLen, payload
//
// Load sniffs the magic, so every version loads under either process codec:
// v1 data is re-encoded through the target codec's builder, v2/v3 block data
// is installed verbatim (block target) or decoded to flat (flat target).
// Every v2 block is fully decode-validated before the graph is returned — see
// blockRun.validate — and the three permutations are cross-checked with an
// order-independent hash, so a corrupt snapshot fails loudly instead of
// serving garbage. v3 — the paged, mmap-able layout block graphs save as —
// lives in paged.go; Save stopped emitting v2 when v3 landed, but v2 inputs
// load forever.
const (
	snapshotMagic   = "SOFOSGR1"
	snapshotMagicV2 = "SOFOSGR2"
	snapshotMagicV3 = "SOFOSGR3"
)

// snapshotWriter bundles the varint helpers Save's sections share. When
// track is set (the v3 writer), every write also advances off and folds into
// crc, which v3 uses for page alignment and its directory checksum.
type snapshotWriter struct {
	bw    *bufio.Writer
	buf   [binary.MaxVarintLen64]byte
	sbuf  []byte
	off   int64
	crc   uint32
	track bool
}

func (w *snapshotWriter) writeRaw(p []byte) error {
	if w.track {
		w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
		w.off += int64(len(p))
	}
	_, err := w.bw.Write(p)
	return err
}

func (w *snapshotWriter) writeByte(b byte) error {
	if w.track {
		w.buf[0] = b
		return w.writeRaw(w.buf[:1])
	}
	return w.bw.WriteByte(b)
}

func (w *snapshotWriter) writeString(s string) error {
	if w.track {
		w.sbuf = append(w.sbuf[:0], s...)
		return w.writeRaw(w.sbuf)
	}
	_, err := w.bw.WriteString(s)
	return err
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

// writeTerms writes the dictionary section shared by both versions.
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

// Save writes the graph snapshot to w: v1 for flat graphs, v3 (the paged,
// mmap-able layout, blocks persisted verbatim) for block graphs.
func (g *Graph) Save(w io.Writer) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.codec.name() == "block" {
		return g.savePagedLocked(w, defaultPageSize)
	}
	sw := &snapshotWriter{bw: bufio.NewWriterSize(w, 1<<16)}
	return g.saveV1Locked(sw)
}

// saveV2 writes the legacy v2 snapshot. Nothing emits v2 anymore; it exists
// so compatibility tests can produce v2 inputs against the live writer
// instead of frozen fixture bytes.
func (g *Graph) saveV2(w io.Writer) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.saveV2Locked(&snapshotWriter{bw: bufio.NewWriterSize(w, 1<<16)})
}

func (g *Graph) saveV1Locked(w *snapshotWriter) error {
	if err := w.writeString(snapshotMagic); err != nil {
		return fmt.Errorf("store: writing snapshot header: %w", err)
	}
	if err := g.writeTerms(w); err != nil {
		return err
	}
	if err := w.uvarint(uint64(g.n)); err != nil {
		return fmt.Errorf("store: writing triple count: %w", err)
	}
	it := g.scanLocked(rdf.NoID, rdf.NoID, rdf.NoID)
	for it.Next() {
		s, p, o := it.Triple()
		if err := w.key(rdf.EncodedTriple{s, p, o}); err != nil {
			return fmt.Errorf("store: writing triples: %w", err)
		}
	}
	return w.bw.Flush()
}

// writeOverlays writes the delta-overlay sections (adds then dels),
// SPO-sorted, shared by the v2 and v3 writers.
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
				return brs, fmt.Errorf("store: block-codec graph holds a %T run", g.runs[k])
			}
			brs[k] = br
		}
		if brs[k] == nil {
			brs[k] = &blockRun{}
		}
	}
	return brs, nil
}

func (g *Graph) saveV2Locked(w *snapshotWriter) error {
	if err := w.writeString(snapshotMagicV2); err != nil {
		return fmt.Errorf("store: writing snapshot header: %w", err)
	}
	if err := w.writeByte(1); err != nil {
		return fmt.Errorf("store: writing codec: %w", err)
	}
	if err := w.uvarint(blockSize); err != nil {
		return fmt.Errorf("store: writing block size: %w", err)
	}
	if err := g.writeTerms(w); err != nil {
		return err
	}
	if err := g.writeOverlays(w); err != nil {
		return err
	}
	brs, err := g.blockRunsLocked()
	if err != nil {
		return err
	}
	for k := permKind(0); k < numPerms; k++ {
		br := brs[k]
		if err := w.uvarint(uint64(br.n)); err != nil {
			return fmt.Errorf("store: writing run size: %w", err)
		}
		if err := w.uvarint(uint64(len(br.meta))); err != nil {
			return fmt.Errorf("store: writing block count: %w", err)
		}
		for bi := range br.meta {
			m := &br.meta[bi]
			if err := w.uvarint(uint64(m.count)); err != nil {
				return fmt.Errorf("store: writing block header: %w", err)
			}
			for _, t := range []rdf.EncodedTriple{m.min, m.max} {
				if err := w.key(t); err != nil {
					return fmt.Errorf("store: writing block fences: %w", err)
				}
			}
			payload := br.data[m.off:br.payloadEnd(bi)]
			if err := w.uvarint(uint64(len(payload))); err != nil {
				return fmt.Errorf("store: writing block payload length: %w", err)
			}
			if err := w.writeRaw(payload); err != nil {
				return fmt.Errorf("store: writing block payload: %w", err)
			}
		}
	}
	return w.bw.Flush()
}

// Load reads a snapshot written by Save into a fresh graph using the
// process-wide default codec; either snapshot version loads under either
// codec.
func Load(r io.Reader) (*Graph, error) {
	return LoadWithCodec(r, DefaultCodec())
}

// LoadWithCodec is Load with an explicit target run codec.
func LoadWithCodec(r io.Reader, c Codec) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("store: reading snapshot header: %w", err)
	}
	switch string(magic) {
	case snapshotMagic:
		return loadV1(br, c)
	case snapshotMagicV2:
		return loadV2(br, c)
	case snapshotMagicV3:
		// A v3 stream read through an io.Reader loads on the heap; LoadFile
		// is the entry point that can mmap instead.
		rest, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("store: reading snapshot: %w", err)
		}
		full := make([]byte, 0, len(magic)+len(rest))
		full = append(append(full, magic...), rest...)
		return loadPagedBytes(full, c, StorageHeap)
	default:
		return nil, fmt.Errorf("store: bad snapshot magic %q", magic)
	}
}

// byteScanner is the reader the snapshot section decoders consume: both the
// streaming *bufio.Reader of the v1/v2 loaders and the in-memory
// *bytes.Reader of the v3 loader satisfy it.
type byteScanner interface {
	io.Reader
	io.ByteReader
}

// readSnapshotString reads one length-prefixed string with a clamped limit.
func readSnapshotString(br byteScanner) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("store: string length %d exceeds limit", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// readTerms reads the dictionary section into the graph's dict, returning
// the snapshot-ID -> fresh-dict-ID remap table (index 0 unused) and the term
// count.
func readTerms(br byteScanner, g *Graph) ([]rdf.ID, uint64, error) {
	termCount, err := binary.ReadUvarint(br)
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
		kind, err := br.ReadByte()
		if err != nil {
			return nil, 0, fmt.Errorf("store: reading term %d: %w", i, err)
		}
		if kind > byte(rdf.KindLiteral) {
			return nil, 0, fmt.Errorf("store: invalid term kind %d", kind)
		}
		var t rdf.Term
		t.Kind = rdf.TermKind(kind)
		if t.Value, err = readSnapshotString(br); err != nil {
			return nil, 0, fmt.Errorf("store: reading term %d value: %w", i, err)
		}
		if t.Datatype, err = readSnapshotString(br); err != nil {
			return nil, 0, fmt.Errorf("store: reading term %d datatype: %w", i, err)
		}
		if t.Lang, err = readSnapshotString(br); err != nil {
			return nil, 0, fmt.Errorf("store: reading term %d lang: %w", i, err)
		}
		ids = append(ids, g.dict.Intern(t))
	}
	return ids, termCount, nil
}

func loadV1(br *bufio.Reader, c Codec) (*Graph, error) {
	g := NewGraphWithCodec(c)
	ids, termCount, err := readTerms(br, g)
	if err != nil {
		return nil, err
	}
	tripleCount, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: reading triple count: %w", err)
	}
	readID := func() (rdf.ID, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, err
		}
		if v == 0 || v > termCount {
			return 0, fmt.Errorf("store: triple references invalid term id %d", v)
		}
		return ids[v], nil
	}
	// Decode into one batch and bulk-merge: the sorted-run build is a single
	// sort per permutation instead of per-triple index maintenance. The
	// initial capacity is clamped so a corrupt count cannot pre-allocate
	// unbounded memory before the reads fail.
	capHint := tripleCount
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	enc := make([]rdf.EncodedTriple, 0, capHint)
	for i := uint64(0); i < tripleCount; i++ {
		var t rdf.EncodedTriple
		for c := 0; c < 3; c++ {
			id, err := readID()
			if err != nil {
				return nil, fmt.Errorf("store: reading triple %d: %w", i, err)
			}
			t[c] = id
		}
		enc = append(enc, t)
	}
	g.LoadEncoded(enc)
	return g, nil
}

func loadV2(br *bufio.Reader, c Codec) (*Graph, error) {
	codecByte, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("store: reading codec: %w", err)
	}
	if codecByte != 1 {
		return nil, fmt.Errorf("store: unknown snapshot codec %d", codecByte)
	}
	blockSz, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: reading block size: %w", err)
	}
	if blockSz == 0 || blockSz > maxBlockCount {
		return nil, fmt.Errorf("store: invalid snapshot block size %d", blockSz)
	}
	g := NewGraphWithCodec(c)
	ids, termCount, err := readTerms(br, g)
	if err != nil {
		return nil, err
	}
	// Block payloads reference dictionary IDs directly, so the snapshot's ID
	// space must survive interning unchanged. A fresh dict interns distinct
	// terms densely in order, so a non-identity remap means duplicate terms —
	// corrupt input.
	for i, id := range ids {
		if uint64(id) != uint64(i) {
			return nil, fmt.Errorf("store: snapshot terms are not unique (term %d)", i)
		}
	}
	maxID := rdf.ID(termCount)
	adds, err := readOverlaySection(br, "overlay-add", maxID)
	if err != nil {
		return nil, err
	}
	dels, err := readOverlaySection(br, "overlay-del", maxID)
	if err != nil {
		return nil, err
	}
	var sums [numPerms]uint64
	var sizes [numPerms]int
	// Occurrence counts of the run triples; the overlay is folded in below.
	counts := [3]map[rdf.ID]int{{}, {}, {}}
	for k := permKind(0); k < numPerms; k++ {
		r, err := readBlockRun(br)
		if err != nil {
			return nil, fmt.Errorf("store: reading %s run: %w", [numPerms]string{"SPO", "POS", "OSP"}[k], err)
		}
		var flatKeys []rdf.EncodedTriple
		if c == CodecFlat {
			capHint := r.n
			if capHint > 1<<20 {
				capHint = 1 << 20
			}
			flatKeys = make([]rdf.EncodedTriple, 0, capHint)
		}
		var each func(s, p, o rdf.ID)
		switch {
		case k == permSPO:
			kk := k
			each = func(s, p, o rdf.ID) {
				counts[0][s]++
				counts[1][p]++
				counts[2][o]++
				if flatKeys != nil {
					flatKeys = append(flatKeys, kk.key(s, p, o))
				}
			}
		case flatKeys != nil:
			kk := k
			each = func(s, p, o rdf.ID) { flatKeys = append(flatKeys, kk.key(s, p, o)) }
		}
		sum, err := r.validate(k, maxID, each)
		if err != nil {
			return nil, fmt.Errorf("store: %s run: %w", [numPerms]string{"SPO", "POS", "OSP"}[k], err)
		}
		sums[k], sizes[k] = sum, r.n
		if c == CodecFlat {
			g.runs[k] = flatRun(flatKeys)
		} else {
			g.runs[k] = r
		}
	}
	if sizes[permPOS] != sizes[permSPO] || sizes[permOSP] != sizes[permSPO] ||
		sums[permPOS] != sums[permSPO] || sums[permOSP] != sums[permSPO] {
		return nil, fmt.Errorf("store: permutation runs disagree (sizes %v)", sizes)
	}
	// Install the delta overlay: tombstones must reference run triples and
	// inserts must be new, or the triple count and statistics would lie.
	for _, t := range dels {
		if !g.inRunsLocked(t) {
			return nil, fmt.Errorf("store: overlay tombstone %v not present in runs", t)
		}
		for i, id := range t {
			decOrDelete(counts[i], id)
		}
	}
	for _, t := range adds {
		if g.inRunsLocked(t) {
			return nil, fmt.Errorf("store: overlay insert %v already present in runs", t)
		}
		for i, id := range t {
			counts[i][id]++
		}
	}
	g.ov = newOverlay(adds, dels)
	for i := range counts {
		g.counts[i] = newIDCounts(counts[i])
	}
	g.n = sizes[permSPO] - len(dels) + len(adds)
	g.version = int64(g.n) // mirror the v1 path: LoadEncoded counts each triple
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("store: trailing bytes after snapshot")
	}
	return g, nil
}

// readOverlaySection reads one SPO-sorted delta-overlay section, validating
// strict ordering and dictionary-range IDs. Shared by the v2 and v3 loaders.
func readOverlaySection(br byteScanner, section string, maxID rdf.ID) ([]rdf.EncodedTriple, error) {
	cnt, err := binary.ReadUvarint(br)
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
			v, err := binary.ReadUvarint(br)
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

// readBlockRun reads one permutation's block list. Structural validation
// beyond what bounds the allocations happens afterwards in
// blockRun.validate, which fully decodes every block.
func readBlockRun(br *bufio.Reader) (*blockRun, error) {
	keyCount, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("reading key count: %w", err)
	}
	blockCount, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("reading block count: %w", err)
	}
	if keyCount > 1<<40 || blockCount > keyCount {
		return nil, fmt.Errorf("implausible key/block counts %d/%d", keyCount, blockCount)
	}
	metaCap := blockCount
	if metaCap > 1<<20 {
		metaCap = 1 << 20
	}
	r := &blockRun{meta: make([]blockMeta, 0, metaCap), n: int(keyCount)}
	readKey := func() (rdf.EncodedTriple, error) {
		var t rdf.EncodedTriple
		for c := 0; c < 3; c++ {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return t, err
			}
			if v > uint64(^rdf.ID(0)) {
				return t, fmt.Errorf("fence component %d overflows", v)
			}
			t[c] = rdf.ID(v)
		}
		return t, nil
	}
	start := 0
	for bi := uint64(0); bi < blockCount; bi++ {
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("reading block %d count: %w", bi, err)
		}
		if count == 0 || count > maxBlockCount {
			return nil, fmt.Errorf("block %d: invalid count %d", bi, count)
		}
		m := blockMeta{off: uint32(len(r.data)), count: uint32(count), start: start}
		if m.min, err = readKey(); err != nil {
			return nil, fmt.Errorf("reading block %d min fence: %w", bi, err)
		}
		if m.max, err = readKey(); err != nil {
			return nil, fmt.Errorf("reading block %d max fence: %w", bi, err)
		}
		payloadLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("reading block %d payload length: %w", bi, err)
		}
		// A block holds at most maxBlockCount keys at ≤ 15 varint bytes per
		// component, so any larger claim is corrupt.
		if payloadLen > maxBlockCount*3*binary.MaxVarintLen32 {
			return nil, fmt.Errorf("block %d: payload length %d exceeds limit", bi, payloadLen)
		}
		if len(r.data)+int(payloadLen) > cap(r.data) {
			grown := make([]byte, len(r.data), max(cap(r.data)*2, len(r.data)+int(payloadLen)))
			copy(grown, r.data)
			r.data = grown
		}
		payload := r.data[len(r.data) : len(r.data)+int(payloadLen)]
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, fmt.Errorf("reading block %d payload: %w", bi, err)
		}
		r.data = r.data[:len(r.data)+int(payloadLen)]
		m.plen = uint32(payloadLen)
		r.meta = append(r.meta, m)
		start += int(count)
	}
	r.fenceInit()
	return r, nil
}
