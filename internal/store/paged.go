package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync/atomic"

	"sofos/internal/rdf"
)

// Paged (v3) snapshot layout. v3 is the on-disk format that *is* the runtime
// format: block payloads are packed whole into fixed-size pages, so a loaded
// graph serves scans straight out of the file image — on unix a read-only
// mapping with the OS page cache as the buffer pool. All integers are varints
// unless noted.
//
//	magic "SOFOSGR3" (8 bytes)
//	codec (1 byte, 1 = block)
//	blockSize
//	pageSize                       (power of two in [minPageSize, maxPageSize])
//	termCount, per term: kind (1 byte), value, datatype, lang
//	                               (length-prefixed strings; IDs are 1-based
//	                               in this order — rdf.Dict's serialized
//	                               form, see below)
//	addCount,  per add: s, p, o    (delta-overlay inserts, SPO-sorted)
//	delCount,  per del: s, p, o    (delta-overlay tombstones, SPO-sorted)
//	3 × count section: n, per entry: id, count   (countS, countP, countO —
//	                                persisted so load never scans payloads)
//	per permutation (SPO, POS, OSP):
//	  keyCount, blockCount, pageCount
//	  per block: count, min (3), max (3), payloadLen,
//	             pageIdx, pageOff, crc32(payload) (4 bytes LE)
//	crc32 of everything above (4 bytes LE — the directory checksum)
//	zero padding to the next pageSize boundary
//	per permutation: pageCount pages of pageSize bytes, block payloads packed
//	                 greedily in block order, zero fill at each page tail
//	(exact EOF — any truncation or growth fails the size check)
//
// Loading validates the header and directory exhaustively (the directory
// checksum catches every corrupted header byte) and checks every block
// payload against its CRC once, so a corrupt page fails the load with an
// error naming the run and block instead of a later scan. The payload is
// read once at open for that; nothing is decoded or copied.
//
// The terms section is opened in place, not re-interned: rdf.OpenDict makes
// one validating pass over its bytes (kinds, canonical and bounded lengths,
// no duplicate term), copies them into the dictionary's arena and indexes
// them, so snapshot IDs are the dictionary's IDs. Saving writes that arena
// back verbatim, then the terms interned since; the section's bytes are the
// same as when every term was interned one by one.
const (
	defaultPageSize = 64 << 10
	minPageSize     = 512
	maxPageSize     = 16 << 20
)

// SavePaged writes the graph as a paged (v3) snapshot with an explicit page
// size; Save uses defaultPageSize. Small page sizes keep exhaustive
// corruption sweeps fast in tests; every page must still fit the largest
// block payload. Only block-coded graphs have a paged form.
func (g *Graph) SavePaged(out io.Writer, pageSize int) error {
	if pageSize < minPageSize || pageSize > maxPageSize || pageSize&(pageSize-1) != 0 {
		return fmt.Errorf("store: invalid page size %d", pageSize)
	}
	brs, err := g.blockRuns()
	if err != nil {
		return err
	}
	// Greedy page assignment: blocks in order, a new page whenever the next
	// payload would cross the boundary. Deterministic from the payload
	// lengths, so the loader can (and does) verify it as a canonical form.
	type runLayout struct {
		pageIdx []uint32
		pageOff []uint32
		pages   int
	}
	var layouts [numPerms]runLayout
	for k := permKind(0); k < numPerms; k++ {
		br, lay := brs[k], &layouts[k]
		lay.pageIdx = make([]uint32, len(br.meta))
		lay.pageOff = make([]uint32, len(br.meta))
		po := 0
		for bi := range br.meta {
			plen := int(br.meta[bi].plen)
			if plen > pageSize {
				return fmt.Errorf("store: block payload of %d bytes exceeds page size %d", plen, pageSize)
			}
			if po+plen > pageSize {
				lay.pages++
				po = 0
			}
			lay.pageIdx[bi] = uint32(lay.pages)
			lay.pageOff[bi] = uint32(po)
			po += plen
		}
		if len(br.meta) > 0 {
			lay.pages++
		}
	}
	w := newSnapshotWriter(out)
	if err := w.writeString(snapshotMagicV3); err != nil {
		return fmt.Errorf("store: writing snapshot header: %w", err)
	}
	if err := w.writeByte(1); err != nil {
		return fmt.Errorf("store: writing codec: %w", err)
	}
	if err := w.uvarint(blockSize); err != nil {
		return fmt.Errorf("store: writing block size: %w", err)
	}
	if err := w.uvarint(uint64(pageSize)); err != nil {
		return fmt.Errorf("store: writing page size: %w", err)
	}
	if err := g.writeTerms(w); err != nil {
		return err
	}
	if err := g.writeOverlays(w); err != nil {
		return err
	}
	for i := range g.counts {
		if err := writeIDCounts(w, &g.counts[i]); err != nil {
			return err
		}
	}
	var crcb [4]byte
	for k := permKind(0); k < numPerms; k++ {
		br, lay := brs[k], &layouts[k]
		if err := w.uvarint(uint64(br.n)); err != nil {
			return fmt.Errorf("store: writing run size: %w", err)
		}
		if err := w.uvarint(uint64(len(br.meta))); err != nil {
			return fmt.Errorf("store: writing block count: %w", err)
		}
		if err := w.uvarint(uint64(lay.pages)); err != nil {
			return fmt.Errorf("store: writing page count: %w", err)
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
			if err := w.uvarint(uint64(m.plen)); err != nil {
				return fmt.Errorf("store: writing block payload length: %w", err)
			}
			if err := w.uvarint(uint64(lay.pageIdx[bi])); err != nil {
				return fmt.Errorf("store: writing block page index: %w", err)
			}
			if err := w.uvarint(uint64(lay.pageOff[bi])); err != nil {
				return fmt.Errorf("store: writing block page offset: %w", err)
			}
			binary.LittleEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(br.data[m.off:br.payloadEnd(bi)]))
			if err := w.writeRaw(crcb[:]); err != nil {
				return fmt.Errorf("store: writing block checksum: %w", err)
			}
		}
	}
	if err := w.flush(); err != nil {
		return fmt.Errorf("store: writing directory: %w", err)
	}
	binary.LittleEndian.PutUint32(crcb[:], w.crc)
	if err := w.writeRaw(crcb[:]); err != nil {
		return fmt.Errorf("store: writing directory checksum: %w", err)
	}
	if rem := int(w.off % int64(pageSize)); rem != 0 {
		if err := w.zeros(pageSize - rem); err != nil {
			return fmt.Errorf("store: writing page padding: %w", err)
		}
	}
	for k := permKind(0); k < numPerms; k++ {
		br, lay := brs[k], &layouts[k]
		filled := 0
		for bi := range br.meta {
			if bi > 0 && lay.pageIdx[bi] != lay.pageIdx[bi-1] {
				if err := w.zeros(pageSize - filled); err != nil {
					return fmt.Errorf("store: writing page fill: %w", err)
				}
				filled = 0
			}
			if err := w.writeRaw(br.data[br.meta[bi].off:br.payloadEnd(bi)]); err != nil {
				return fmt.Errorf("store: writing block payload: %w", err)
			}
			filled += int(br.meta[bi].plen)
		}
		if len(br.meta) > 0 {
			if err := w.zeros(pageSize - filled); err != nil {
				return fmt.Errorf("store: writing page fill: %w", err)
			}
		}
	}
	if err := w.flush(); err != nil {
		return err
	}
	return w.bw.Flush()
}

var zeroChunk [4096]byte

// zeros writes n zero bytes.
func (w *snapshotWriter) zeros(n int) error {
	for n > 0 {
		c := n
		if c > len(zeroChunk) {
			c = len(zeroChunk)
		}
		if err := w.writeRaw(zeroChunk[:c]); err != nil {
			return err
		}
		n -= c
	}
	return nil
}

// writeIDCounts writes one per-component occurrence-count section in
// ascending ID order.
func writeIDCounts(w *snapshotWriter, c *idCounts) error {
	ids := c.sortedIDs()
	if err := w.uvarint(uint64(len(ids))); err != nil {
		return fmt.Errorf("store: writing count section: %w", err)
	}
	for _, id := range ids {
		if err := w.uvarint(uint64(id)); err != nil {
			return fmt.Errorf("store: writing count id: %w", err)
		}
		if err := w.uvarint(uint64(c.get(id))); err != nil {
			return fmt.Errorf("store: writing count value: %w", err)
		}
	}
	return nil
}

// readIDCounts reads one count section, validating strictly increasing IDs in
// dictionary range and positive counts, returning the map and the total.
func readIDCounts(r *bytes.Reader, section string, maxID rdf.ID) (map[rdf.ID]int, int64, error) {
	cnt, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, fmt.Errorf("store: reading %s count: %w", section, err)
	}
	if cnt > uint64(maxID) {
		return nil, 0, fmt.Errorf("store: %s section claims %d ids but the dictionary has %d terms", section, cnt, maxID)
	}
	m := make(map[rdf.ID]int, cnt)
	var prev uint64
	var total int64
	for i := uint64(0); i < cnt; i++ {
		id, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, 0, fmt.Errorf("store: reading %s entry %d: %w", section, i, err)
		}
		if id == 0 || id > uint64(maxID) || id <= prev {
			return nil, 0, fmt.Errorf("store: %s entry %d has invalid id %d", section, i, id)
		}
		prev = id
		c, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, 0, fmt.Errorf("store: reading %s entry %d value: %w", section, i, err)
		}
		if c == 0 || c > 1<<40 {
			return nil, 0, fmt.Errorf("store: %s entry %d has invalid count %d", section, i, c)
		}
		m[rdf.ID(id)] = int(c)
		total += int64(c)
	}
	return m, total, nil
}

// readFenceKey reads one directory fence key, validating every component is a
// dictionary ID: payloads are checksummed at load but not decoded, so the
// directory is where the check happens.
func readFenceKey(r *bytes.Reader, maxID rdf.ID) (rdf.EncodedTriple, error) {
	var t rdf.EncodedTriple
	for c := 0; c < 3; c++ {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return t, err
		}
		if v == 0 || v > uint64(maxID) {
			return t, fmt.Errorf("fence component id %d out of dictionary range", v)
		}
		t[c] = rdf.ID(v)
	}
	return t, nil
}

// readPagedRun reads one permutation's v3 directory into a blockRun whose
// data region is attached by the caller, returning each block's payload CRC
// beside it. It enforces the canonical greedy page packing, so every
// structurally distinct directory byte matters — any deviation is corrupt.
func readPagedRun(r *bytes.Reader, pageSize int, maxID rdf.ID) (*blockRun, []uint32, int, error) {
	keyCount, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("reading key count: %w", err)
	}
	blockCount, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("reading block count: %w", err)
	}
	if keyCount > 1<<40 || blockCount > keyCount {
		return nil, nil, 0, fmt.Errorf("implausible key/block counts %d/%d", keyCount, blockCount)
	}
	pageCount, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("reading page count: %w", err)
	}
	if blockCount == 0 && pageCount != 0 || blockCount > 0 && (pageCount == 0 || pageCount > blockCount) {
		return nil, nil, 0, fmt.Errorf("implausible page count %d for %d blocks", pageCount, blockCount)
	}
	metaCap := blockCount
	if metaCap > 1<<20 {
		metaCap = 1 << 20
	}
	br := &blockRun{
		meta: make([]blockMeta, 0, metaCap),
		n:    int(keyCount),
		psz:  pageSize,
	}
	crcs := make([]uint32, 0, metaCap)
	start := 0
	var crcb [4]byte
	for bi := uint64(0); bi < blockCount; bi++ {
		count, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("reading block %d count: %w", bi, err)
		}
		if count == 0 || count > maxBlockCount {
			return nil, nil, 0, fmt.Errorf("block %d: invalid count %d", bi, count)
		}
		min, err := readFenceKey(r, maxID)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("reading block %d min fence: %w", bi, err)
		}
		max, err := readFenceKey(r, maxID)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("reading block %d max fence: %w", bi, err)
		}
		if count == 1 && min != max || count > 1 && cmpKeys(min, max) >= 0 {
			return nil, nil, 0, fmt.Errorf("block %d: fences out of order", bi)
		}
		if bi > 0 && cmpKeys(br.meta[bi-1].max, min) >= 0 {
			return nil, nil, 0, fmt.Errorf("block %d: fences regress across blocks", bi)
		}
		plen, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("reading block %d payload length: %w", bi, err)
		}
		if plen > maxBlockCount*3*binary.MaxVarintLen32 || plen > uint64(pageSize) {
			return nil, nil, 0, fmt.Errorf("block %d: payload length %d exceeds limit", bi, plen)
		}
		if count == 1 && plen != 0 {
			return nil, nil, 0, fmt.Errorf("block %d: one-key block with a %d-byte payload", bi, plen)
		}
		pageIdx, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("reading block %d page index: %w", bi, err)
		}
		pageOff, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("reading block %d page offset: %w", bi, err)
		}
		if pageIdx >= pageCount || pageOff+plen > uint64(pageSize) {
			return nil, nil, 0, fmt.Errorf("block %d: payload outside its page", bi)
		}
		// Canonical greedy packing: same page tightly after the previous
		// block, or the first slot of the next page when it would not fit.
		if bi == 0 {
			if pageIdx != 0 || pageOff != 0 {
				return nil, nil, 0, fmt.Errorf("block 0: not at the first page slot")
			}
		} else {
			pm := &br.meta[bi-1]
			prevIdx := uint64(pm.off) / uint64(pageSize)
			prevEnd := uint64(pm.off)%uint64(pageSize) + uint64(pm.plen)
			switch pageIdx {
			case prevIdx:
				if pageOff != prevEnd {
					return nil, nil, 0, fmt.Errorf("block %d: payload not packed tightly", bi)
				}
			case prevIdx + 1:
				if pageOff != 0 || prevEnd+plen <= uint64(pageSize) {
					return nil, nil, 0, fmt.Errorf("block %d: page break without overflow", bi)
				}
			default:
				return nil, nil, 0, fmt.Errorf("block %d: page index regresses or skips", bi)
			}
		}
		if _, err := io.ReadFull(r, crcb[:]); err != nil {
			return nil, nil, 0, fmt.Errorf("reading block %d checksum: %w", bi, err)
		}
		off64 := int64(pageIdx)*int64(pageSize) + int64(pageOff)
		if off64+int64(plen) > math.MaxUint32 {
			return nil, nil, 0, fmt.Errorf("block %d: run region exceeds addressable range", bi)
		}
		br.meta = append(br.meta, blockMeta{
			off:   uint32(off64),
			plen:  uint32(plen),
			count: uint32(count),
			start: start,
			min:   min,
			max:   max,
		})
		crcs = append(crcs, binary.LittleEndian.Uint32(crcb[:]))
		start += int(count)
	}
	if start != int(keyCount) {
		return nil, nil, 0, fmt.Errorf("blocks hold %d keys, header says %d", start, keyCount)
	}
	if blockCount > 0 {
		if last := uint64(br.meta[blockCount-1].off) / uint64(pageSize); last != pageCount-1 {
			return nil, nil, 0, fmt.Errorf("directory declares %d pages but blocks end on page %d", pageCount, last)
		}
	}
	return br, crcs, int(pageCount), nil
}

// pageImage is the byte region behind a loaded paged snapshot: the full file
// image (header, directory, and page-aligned payload pages). Runs slice their
// payload regions out of it without copying. A mapped image is never
// unmapped once its graph loads — live iterators may reference it
// indefinitely, and unmapping under them would fault; the kernel reclaims
// clean pages under memory pressure, which is the entire buffer-pool story.
type pageImage struct {
	data   []byte
	pages  int // payload pages across permutations
	psz    int
	mapped bool // data is a read-only file mapping, not heap memory

	// advised latches the one-shot MADV_SEQUENTIAL hint: full scans dominate
	// the workloads that benefit, the hint is sticky per mapping, and the
	// mapping is shared by every graph generation forked off this snapshot,
	// so one syscall per mapping per process is all that is ever needed.
	advised atomic.Bool
}

// adviseSequential hints that the image is about to be read front to back (a
// full scan), so the kernel can read ahead aggressively.
func (p *pageImage) adviseSequential() {
	if p.mapped && len(p.data) > 0 && p.advised.CompareAndSwap(false, true) {
		madviseSequential(p.data)
	}
}

// LoadFile opens a snapshot file. On unix the file is mapped read-only and
// the runs serve straight out of the mapping, so the servable graph size is
// bounded by the address space, not RAM; elsewhere it is read onto the heap
// in one sized read. Either way every payload CRC is checked before it
// returns.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: opening snapshot: %w", err)
	}
	defer f.Close()
	data, err := readImage(f)
	if err != nil {
		return nil, err
	}
	g, err := loadPagedBytes(data, imageMapped)
	if err != nil {
		releaseImage(data)
		return nil, err
	}
	// The file is a faithful paged image of the loaded content, so future
	// checkpoints may hard-link it instead of re-serializing.
	g.AdoptPagedSource(path)
	return g, nil
}

// loadPagedBytes builds a graph over a complete v3 snapshot image supplied by
// the caller; mapped records whether the image is a file mapping.
func loadPagedBytes(full []byte, mapped bool) (*Graph, error) {
	r := bytes.NewReader(full)
	pos := func() int { return len(full) - r.Len() }
	if err := checkMagic(r); err != nil {
		return nil, err
	}
	codecByte, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("store: reading codec: %w", err)
	}
	if codecByte != 1 {
		return nil, fmt.Errorf("store: unknown snapshot codec %d", codecByte)
	}
	blockSz, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading block size: %w", err)
	}
	if blockSz == 0 || blockSz > maxBlockCount {
		return nil, fmt.Errorf("store: invalid snapshot block size %d", blockSz)
	}
	pageSz64, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading page size: %w", err)
	}
	pageSz := int(pageSz64)
	if pageSz64 < minPageSize || pageSz64 > maxPageSize || pageSz64&(pageSz64-1) != 0 {
		return nil, fmt.Errorf("store: invalid snapshot page size %d", pageSz64)
	}
	dict, err := readTerms(r, full)
	if err != nil {
		return nil, err
	}
	g := &Graph{dict: dict, codec: blockCodec{}}
	maxID := rdf.ID(dict.Len())
	adds, err := readOverlaySection(r, "overlay-add", maxID)
	if err != nil {
		return nil, err
	}
	dels, err := readOverlaySection(r, "overlay-del", maxID)
	if err != nil {
		return nil, err
	}
	var counts [3]map[rdf.ID]int
	var totals [3]int64
	for i, section := range []string{"subject-count", "predicate-count", "object-count"} {
		if counts[i], totals[i], err = readIDCounts(r, section, maxID); err != nil {
			return nil, err
		}
	}
	var runs [numPerms]*blockRun
	var crcs [numPerms][]uint32
	var pageCounts [numPerms]int
	totalPages := 0
	for k := permKind(0); k < numPerms; k++ {
		br, bc, pc, err := readPagedRun(r, pageSz, maxID)
		if err != nil {
			return nil, fmt.Errorf("store: reading %s run directory: %w", permName(k), err)
		}
		runs[k], crcs[k], pageCounts[k] = br, bc, pc
		totalPages += pc
	}
	if runs[permPOS].n != runs[permSPO].n || runs[permOSP].n != runs[permSPO].n {
		return nil, fmt.Errorf("store: permutation runs disagree on size (%d/%d/%d)",
			runs[permSPO].n, runs[permPOS].n, runs[permOSP].n)
	}
	dirEnd := pos()
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return nil, fmt.Errorf("store: reading directory checksum: %w", err)
	}
	if binary.LittleEndian.Uint32(crcb[:]) != crc32.ChecksumIEEE(full[:dirEnd]) {
		return nil, fmt.Errorf("store: snapshot directory checksum mismatch")
	}
	padEnd := (int64(pos()) + int64(pageSz) - 1) / int64(pageSz) * int64(pageSz)
	if want := padEnd + int64(totalPages)*int64(pageSz); int64(len(full)) != want {
		return nil, fmt.Errorf("store: snapshot is %d bytes, page layout requires %d", len(full), want)
	}
	off := padEnd
	for k := permKind(0); k < numPerms; k++ {
		br := runs[k]
		rlen := int64(pageCounts[k]) * int64(pageSz)
		br.data = full[off : off+rlen]
		off += rlen
		br.mapped = mapped
		br.fenceInit()
		for bi := range br.meta {
			if crc32.ChecksumIEEE(br.data[br.meta[bi].off:br.payloadEnd(bi)]) != crcs[k][bi] {
				return nil, fmt.Errorf("store: %s run: block %d: payload CRC mismatch", permName(k), bi)
			}
		}
		g.runs[k] = br
	}
	g.pages = &pageImage{data: full, pages: totalPages, psz: pageSz, mapped: mapped}
	// Install the delta overlay. Tombstones must reference run triples and
	// inserts must be new, or scans would double-count; each check decodes at
	// most one block, so boot cost stays O(overlay), not O(data).
	if err := checkOverlayMembership(g, adds, dels); err != nil {
		return nil, err
	}
	g.ov = newOverlay(adds, dels)
	g.n = runs[permSPO].n - len(dels) + len(adds)
	// The persisted count sections describe the live triple set (overlay
	// already folded in at save time); their totals triple-check n.
	for i := range totals {
		if totals[i] != int64(g.n) {
			return nil, fmt.Errorf("store: %s section total %d disagrees with %d live triples",
				[3]string{"subject-count", "predicate-count", "object-count"}[i], totals[i], g.n)
		}
	}
	for i := range counts {
		g.counts[i] = newIDCounts(counts[i])
	}
	g.version = int64(g.n) // as if loadEncoded had counted each triple
	return g, nil
}

// checkOverlayMembership validates overlay sections against the runs.
// Every payload CRC has been checked by then, so a decode can only fail on a
// hand-crafted file whose CRCs agree with a malformed payload; Recover keeps
// that input from disk a load error, not a crash.
func checkOverlayMembership(g *Graph, adds, dels []rdf.EncodedTriple) (err error) {
	defer func() { Repanic(err) }()
	defer Recover(&err)
	for _, t := range dels {
		if !g.inRuns(t) {
			return fmt.Errorf("store: overlay tombstone %v not present in runs", t)
		}
	}
	for _, t := range adds {
		if g.inRuns(t) {
			return fmt.Errorf("store: overlay insert %v already present in runs", t)
		}
	}
	return nil
}

// permName names a permutation for error messages.
func permName(k permKind) string {
	return [numPerms]string{"SPO", "POS", "OSP"}[k]
}
