package store

import (
	"bytes"
	"fmt"
	"testing"

	"sofos/internal/rdf"
)

// loadPagedGraphs snapshots g as a v3 paged snapshot and opens it through
// both entry points: Load from a reader (heap) and LoadFile (mapped).
func loadPagedGraphs(t *testing.T, g *Graph, pageSize int) (heap, mapped *Graph) {
	t.Helper()
	data := pagedBytes(t, g, pageSize)
	heap, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if mapped, err = LoadFile(writeSnapshotFile(t, data)); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	return heap, mapped
}

// TestSplitAlignsToPageBoundaries checks the page-aware partitioning
// contract on v3 snapshots: every partition cut of a full-scan Split lands
// on a block whose payload starts exactly at a page boundary, so parallel
// partitions touch disjoint page sets — no page is faulted in by two
// workers. The concatenation identity must of course still hold.
func TestSplitAlignsToPageBoundaries(t *testing.T) {
	const pageSize = 4096
	heap, mapped := loadPagedGraphs(t, pagedTestGraph(t, 4000), pageSize)
	for _, loaded := range []*Graph{heap, mapped} {
		t.Run(loaded.MemStats().Storage, func(t *testing.T) {
			serial := collect(loaded.Scan(rdf.NoID, rdf.NoID, rdf.NoID))
			for _, n := range []int{2, 3, 4, 8, 16} {
				it := loaded.Scan(rdf.NoID, rdf.NoID, rdf.NoID)
				br := it.base
				if br.psz != pageSize {
					t.Fatalf("paged run page size = %d, want %d", br.psz, pageSize)
				}
				parts := it.Split(n)
				var merged []rdf.EncodedTriple
				for i, p := range parts {
					if i > 0 && p.base != nil && p.lo < br.n {
						bi := br.blockOf(p.lo)
						if br.meta[bi].start != p.lo {
							t.Fatalf("n=%d part %d: cut %d is not a block start", n, i, p.lo)
						}
						if int(br.meta[bi].off)%pageSize != 0 {
							t.Fatalf("n=%d part %d: cut %d starts at payload offset %d, not page-aligned",
								n, i, p.lo, br.meta[bi].off)
						}
					}
					merged = append(merged, collect(p)...)
				}
				if fmt.Sprint(merged) != fmt.Sprint(serial) {
					t.Fatalf("n=%d: page-aligned split concatenation differs from serial scan", n)
				}
			}
		})
	}
}

// TestSplitCompactionRevertsToBlockAlignment checks that a run rebuilt in
// memory (a post-mutation Compact re-encodes the merged content into heap
// blocks) drops the page constraint: the rebuilt run has no pages to keep
// disjoint, so its splits align to block starts only.
func TestSplitCompactionRevertsToBlockAlignment(t *testing.T) {
	const pageSize = 4096
	g := pagedTestGraph(t, 1500)
	loaded, _ := loadPagedGraphs(t, g, pageSize)
	addOne(loaded, tr("post-load", "p", "o"))
	loaded.Compact()
	it := loaded.Scan(rdf.NoID, rdf.NoID, rdf.NoID)
	if psz := it.base.psz; psz != 0 {
		t.Fatalf("rebuilt run kept page size %d, want 0 (heap re-encodings are not paged)", psz)
	}
}

// TestAdviseSequentialOnFullScan checks the madvise hook: a full scan over
// an mmap-backed snapshot flags the mapping MADV_SEQUENTIAL exactly once;
// bounded scans never do (their access pattern is a seek, not a sweep).
func TestAdviseSequentialOnFullScan(t *testing.T) {
	const pageSize = 4096
	g := pagedTestGraph(t, 1000)
	_, loaded := loadPagedGraphs(t, g, pageSize)
	mp := loaded.pages
	if mp.advised.Load() {
		t.Fatal("mapping advised before any scan")
	}
	// A bounded scan must not trigger the sequential hint.
	bounded := loaded.Scan(rdf.NoID, 1, rdf.NoID)
	for bounded.Next() {
	}
	if mp.advised.Load() {
		t.Fatal("bounded scan advised the mapping sequential")
	}
	full := loaded.Scan(rdf.NoID, rdf.NoID, rdf.NoID)
	for full.Next() {
	}
	if !mp.advised.Load() {
		t.Fatal("full scan did not advise the mapping sequential")
	}
	// Idempotent: further full scans keep the flag set and do not re-advise
	// (the CAS makes the syscall once per mapping).
	again := loaded.Scan(rdf.NoID, rdf.NoID, rdf.NoID)
	for again.Next() {
	}
	if !mp.advised.Load() {
		t.Fatal("advice flag lost after a second scan")
	}
}
