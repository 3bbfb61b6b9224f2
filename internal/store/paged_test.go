package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sofos/internal/rdf"
)

// pagedTestGraph builds a graph of about n triples with a live overlay
// (inserts and tombstones), so a paged snapshot of it exercises every v3
// section.
func pagedTestGraph(t testing.TB, n int) *Graph {
	t.Helper()
	g := NewGraph()
	base := randomGraph(rand.New(rand.NewSource(7)), n).Triples()
	if _, err := g.LoadTriples(base); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/10+1; i++ {
		addOne(g, tr("extra"+itoa(i), "pextra", "oextra"+itoa(i%3)))
		removeOne(g, base[(i*7)%len(base)])
	}
	return g
}

// pagedBytes serializes the graph as a v3 snapshot with the given page size.
func pagedBytes(t testing.TB, g *Graph, pageSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.SavePaged(&buf, pageSize); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeSnapshotFile materializes snapshot bytes as a file for LoadFile.
func writeSnapshotFile(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// scanCount runs a full scan over the graph and counts what it yields.
func scanCount(g *Graph) int {
	n := 0
	it := g.Scan(rdf.NoID, rdf.NoID, rdf.NoID)
	for it.Next() {
		n++
	}
	return n
}

// TestPagedRoundTripStorages opens one paged snapshot through both entry
// points — Load from a reader onto the heap, LoadFile mapping the file — and
// checks the content is bit-identical to the source graph, and that the
// storage accounting (mapped bytes, page counts) tells the truth.
func TestPagedRoundTripStorages(t *testing.T) {
	g := pagedTestGraph(t, 400)
	want := g.SortedTriples()
	for _, pageSize := range []int{4096, defaultPageSize} {
		data := pagedBytes(t, g, pageSize)
		heap, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("page %d, Load: %v", pageSize, err)
		}
		mapped, err := LoadFile(writeSnapshotFile(t, data))
		if err != nil {
			t.Fatalf("page %d, LoadFile: %v", pageSize, err)
		}
		for _, loaded := range []*Graph{heap, mapped} {
			got := loaded.SortedTriples()
			if len(got) != len(want) {
				t.Fatalf("page %d: %d triples, want %d", pageSize, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("page %d: triple %d = %v, want %v", pageSize, i, got[i], want[i])
				}
			}
		}
		ms := mapped.MemStats()
		if ms.Storage != "mmap" || ms.MappedBytes == 0 || ms.Pages == 0 || ms.PageSize != pageSize {
			t.Fatalf("page %d LoadFile stats wrong: %+v", pageSize, ms)
		}
		if ms.SPO.Mapped == 0 {
			t.Fatalf("page %d LoadFile: SPO reports no mapped payload: %+v", pageSize, ms.SPO)
		}
		if ms := heap.MemStats(); ms.Storage != "heap" || ms.MappedBytes != 0 || ms.Pages == 0 {
			t.Fatalf("page %d Load stats wrong: %+v", pageSize, ms)
		}
	}
}

// TestPagedLoadRejectsCorruptPayload flips one byte inside a block payload of
// each run: the directory is intact, so only the per-block CRC can notice,
// and both entry points must refuse at open with an error naming the run and
// the block — not load and panic on the first scan that decodes it.
func TestPagedLoadRejectsCorruptPayload(t *testing.T) {
	g := pagedTestGraph(t, 3*blockSize/2)
	g.Compact()
	data := pagedBytes(t, g, 4096)
	clean, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	runStart := len(data) - clean.MemStats().Pages*4096
	for k := permKind(0); k < numPerms; k++ {
		br := clean.runs[k].(*blockRun)
		if len(br.meta) < 2 || br.meta[1].plen == 0 {
			t.Fatalf("%s run has no second block payload to corrupt", permName(k))
		}
		mut := append([]byte(nil), data...)
		mut[runStart+int(br.meta[1].off)] ^= 0x40
		runStart += len(br.data)
		want := fmt.Sprintf("%s run: block 1: payload CRC mismatch", permName(k))
		if _, err := Load(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Load of a corrupt %s payload: err %v, want one containing %q", permName(k), err, want)
		}
		if _, err := LoadFile(writeSnapshotFile(t, mut)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("LoadFile of a corrupt %s payload: err %v, want one containing %q", permName(k), err, want)
		}
	}
}

// mustTruncate loads every stride-th prefix of a snapshot through the byte
// loader and fails if any but the full input loads.
func mustTruncate(t *testing.T, full []byte, stride int) {
	t.Helper()
	for cut := 0; cut < len(full); cut += stride {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d loaded successfully", cut, len(full))
		}
	}
	if _, err := Load(bytes.NewReader(full)); err != nil {
		t.Fatalf("full snapshot failed: %v", err)
	}
}

// TestBlockLoadTruncationMultiBlock cuts, at a stride, a v3 snapshot of a
// graph whose runs span two blocks, so cuts land inside multi-block run
// sections too.
func TestBlockLoadTruncationMultiBlock(t *testing.T) {
	multi := pagedTestGraph(t, 3*blockSize/2)
	if nb := multi.runs[permSPO].numBlocks(); nb < 2 {
		t.Fatalf("multi-block graph has %d SPO blocks, want at least 2", nb)
	}
	mustTruncate(t, pagedBytes(t, multi, 4096), 23)
}

// TestPagedTruncationEveryPrefix feeds every prefix of a v3 snapshot through
// the byte loader and, at a stride, through the file loader: nothing but the
// full input may load.
func TestPagedTruncationEveryPrefix(t *testing.T) {
	full := pagedBytes(t, pagedTestGraph(t, 120), minPageSize)
	mustTruncate(t, full, 1)
	dir := t.TempDir()
	for cut := 0; cut < len(full); cut += 13 {
		path := filepath.Join(dir, "cut.snap")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); err == nil {
			t.Fatalf("truncated file (%d/%d bytes) loaded successfully", cut, len(full))
		}
	}
}

// TestPagedBitFlipsBothStorages flips bits across a whole v3 snapshot and
// opens each copy through Load (heap) and LoadFile (mapped). Every outcome
// must be an error or a fully consistent graph: CRCs are checked at open, so
// a scan of a loaded graph never panics.
func TestPagedBitFlipsBothStorages(t *testing.T) {
	full := pagedBytes(t, pagedTestGraph(t, 120), minPageSize)
	step := 1
	if testing.Short() {
		step = 7
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "flip.snap")
	for off := 0; off < len(full); off += step {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), full...)
			mut[off] ^= bit
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if g, err := Load(bytes.NewReader(mut)); err == nil {
				if n := scanCount(g); n != g.Len() {
					t.Fatalf("flip at %d/%#x: Load Len()=%d but scan found %d", off, bit, g.Len(), n)
				}
			}
			if g, err := LoadFile(path); err == nil {
				if n := scanCount(g); n != g.Len() {
					t.Fatalf("flip at %d/%#x: LoadFile Len()=%d but scan found %d", off, bit, g.Len(), n)
				}
			}
		}
	}
}

// TestPagedHugeCounts feeds v3 headers whose section and page counts demand
// absurd allocations; every one must fail on the reads or the size equation,
// never by exhausting memory.
func TestPagedHugeCounts(t *testing.T) {
	var vbuf [binary.MaxVarintLen64]byte
	uv := func(b *bytes.Buffer, v uint64) { b.Write(vbuf[:binary.PutUvarint(vbuf[:], v)]) }
	header := func() *bytes.Buffer {
		var b bytes.Buffer
		b.WriteString(snapshotMagicV3)
		b.WriteByte(1)
		uv(&b, blockSize)
		uv(&b, minPageSize)
		uv(&b, 1)                        // one term
		b.Write([]byte{0, 1, 'x', 0, 0}) // IRI "x"
		uv(&b, 0)                        // no overlay adds
		uv(&b, 0)                        // no overlay dels
		return &b
	}
	load := func(b *bytes.Buffer) error {
		_, err := Load(bytes.NewReader(b.Bytes()))
		return err
	}
	// Huge count-section length.
	b := header()
	uv(b, 1<<40)
	if load(b) == nil {
		t.Fatal("huge count-section length accepted")
	}
	// Valid empty count sections, then a huge key count.
	b = header()
	for i := 0; i < 3; i++ {
		uv(b, 0)
	}
	uv(b, 1<<50) // SPO key count
	uv(b, 1)
	if load(b) == nil {
		t.Fatal("huge key count accepted")
	}
	// Huge page count for a one-block run.
	b = header()
	for i := 0; i < 3; i++ {
		uv(b, 0)
	}
	uv(b, 1)     // one key
	uv(b, 1)     // one block
	uv(b, 1<<50) // pages
	if load(b) == nil {
		t.Fatal("huge page count accepted")
	}
	// Structurally plausible counts whose page regions dwarf the input: the
	// exact-size equation must reject without allocating page space.
	b = header()
	for i := 0; i < 3; i++ {
		uv(b, 1)
		uv(b, 1)
		uv(b, 1)
	}
	for k := 0; k < 3; k++ {
		uv(b, 1) // one key
		uv(b, 1) // one block
		uv(b, 1) // one page
		uv(b, 1) // block count=1
		for c := 0; c < 6; c++ {
			uv(b, 1) // min/max fences
		}
		uv(b, 0)                    // plen (single-key block)
		uv(b, 0)                    // pageIdx
		uv(b, 0)                    // pageOff
		b.Write([]byte{0, 0, 0, 0}) // payload CRC of empty payload? (wrong on purpose is fine)
	}
	if load(b) == nil {
		t.Fatal("undersized page region accepted")
	}
}

// TestPagedSourceTracking pins the hard-link contract: a graph loaded from a
// paged file advertises it as a linkable source exactly until the first
// mutation, and re-adopting after a fresh snapshot restores it. Compaction
// alone must not invalidate the source — it changes layout, not content.
// Forks carry the provenance, and each fork's writes and adoptions stay its
// own: the parent is the published graph a later checkpoint may link.
func TestPagedSourceTracking(t *testing.T) {
	g := pagedTestGraph(t, 100)
	path := writeSnapshotFile(t, pagedBytes(t, g, minPageSize))
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if src, ok := loaded.PagedSource(); !ok || src != path {
		t.Fatalf("fresh load: PagedSource = %q, %v; want %q, true", src, ok, path)
	}
	f := loaded.Fork()
	if src, ok := f.PagedSource(); !ok || src != path {
		t.Fatalf("fork of a clean load: PagedSource = %q, %v; want %q, true", src, ok, path)
	}
	addOne(f, tr("forkonly", "p", "o"))
	if src, ok := f.PagedSource(); ok {
		t.Fatalf("write to the fork left it linkable: %q", src)
	}
	if src, ok := loaded.PagedSource(); !ok || src != path {
		t.Fatalf("write to a fork dirtied the parent: PagedSource = %q, %v", src, ok)
	}
	f.AdoptPagedSource(path + ".next")
	if src, ok := f.PagedSource(); !ok || src != path+".next" {
		t.Fatalf("fork adoption: PagedSource = %q, %v; want %q, true", src, ok, path+".next")
	}
	if src, ok := loaded.PagedSource(); !ok || src != path {
		t.Fatalf("adoption on a fork moved the parent's source: PagedSource = %q, %v", src, ok)
	}
	loaded.SetVersion(42) // restore-time counter reinstatement must not dirty
	if _, ok := loaded.PagedSource(); !ok {
		t.Fatal("SetVersion invalidated the paged source")
	}
	loaded.Compact()
	if _, ok := loaded.PagedSource(); !ok {
		t.Fatal("compaction invalidated the paged source")
	}
	addOne(loaded, tr("fresh", "p", "o"))
	if src, ok := loaded.PagedSource(); ok {
		t.Fatalf("mutation left the paged source valid: %q", src)
	}
	loaded.AdoptPagedSource(path)
	if _, ok := loaded.PagedSource(); !ok {
		t.Fatal("AdoptPagedSource did not restore the source")
	}
	if !removeOne(loaded, tr("fresh", "p", "o")) {
		t.Fatal("remove failed")
	}
	if _, ok := loaded.PagedSource(); ok {
		t.Fatal("removal left the paged source valid")
	}
}

// TestForkSharesMappedRuns pins that forking an mmap-backed graph does not
// copy the runs onto the heap: every write on a restored server forks the
// published graph, and a deep copy would pull the whole file resident.
func TestForkSharesMappedRuns(t *testing.T) {
	g := pagedTestGraph(t, 200)
	path := writeSnapshotFile(t, pagedBytes(t, g, 4096))
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c := loaded.Fork()
	cms, lms := c.MemStats(), loaded.MemStats()
	if cms.SPO.Mapped != lms.SPO.Mapped || cms.SPO.Mapped == 0 {
		t.Fatalf("fork SPO mapped %d bytes, original %d; runs were copied", cms.SPO.Mapped, lms.SPO.Mapped)
	}
	// The fork must stay independent for mutations...
	addOne(c, tr("forkonly", "p", "o"))
	if loaded.Contains(tr("forkonly", "p", "o")) {
		t.Fatal("fork mutation leaked into the original")
	}
	// ...and identical for reads.
	want, got := loaded.SortedTriples(), c.SortedTriples()
	if len(got) != len(want)+1 {
		t.Fatalf("fork has %d triples, original %d", len(got), len(want))
	}
}

// FuzzPagedSnapshotLoad hammers the v3 loader with mutated paged snapshots:
// every input either loads into a consistent graph or errors — no panics
// (payload CRCs are checked at open), no runaway allocations.
func FuzzPagedSnapshotLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(snapshotMagicV3))
	f.Add(pagedBytes(f, pagedTestGraph(f, 60), minPageSize))
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
		if n := scanCount(g); n != g.Len() {
			t.Fatalf("loaded graph inconsistent: Len()=%d, scan=%d", g.Len(), n)
		}
	})
}
