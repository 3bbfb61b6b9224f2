package store

import (
	"fmt"
	"sync/atomic"
)

// Storage selects how a paged (v3) snapshot's pages are made resident when a
// graph is loaded from a file. Heap storage reads the whole file into memory
// — today's behavior, and the differential-test oracle. Mmap storage maps the
// file read-only and serves block payloads straight out of the mapping, so
// the OS page cache is the buffer pool: boot cost is O(open) and the servable
// graph size is bounded by the address space, not RAM.
type Storage uint8

const (
	// StorageHeap reads snapshot pages into the Go heap.
	StorageHeap Storage = iota
	// StorageMmap maps snapshot pages from the file via mmap.
	StorageMmap
)

// String returns the storage's flag-compatible name.
func (s Storage) String() string {
	if s == StorageMmap {
		return "mmap"
	}
	return "heap"
}

// ParseStorage parses a -storage flag value.
func ParseStorage(s string) (Storage, error) {
	switch s {
	case "heap":
		return StorageHeap, nil
	case "mmap":
		return StorageMmap, nil
	default:
		return StorageHeap, fmt.Errorf("store: unknown storage %q (want heap or mmap)", s)
	}
}

// pageStore owns the byte region backing a paged snapshot: the full file
// image (header, directory, and page-aligned payload pages). Runs slice
// their payload regions out of it without copying; the store only exists so
// the graph can report how the region is resident.
type pageStore interface {
	// bytes returns the full snapshot image.
	bytes() []byte
	// pages returns the total number of payload pages across permutations.
	pages() int
	// pageSize returns the page size the snapshot was written with.
	pageSize() int
	// storage names how the region is resident.
	storage() Storage
	// mappedBytes returns the bytes held in an mmap rather than the heap.
	mappedBytes() int64
	// adviseSequential hints that the region is about to be read front to
	// back (a full scan), so the kernel can read ahead aggressively. A no-op
	// for heap-resident regions and on platforms without madvise.
	adviseSequential()
}

// heapPages is the heap-resident pageStore: the snapshot image is a plain
// in-memory byte slice. It is today's load behavior and the oracle the
// mmap backend is differentially tested against.
type heapPages struct {
	buf []byte
	n   int // payload pages
	psz int
}

func (h *heapPages) bytes() []byte      { return h.buf }
func (h *heapPages) pages() int         { return h.n }
func (h *heapPages) pageSize() int      { return h.psz }
func (h *heapPages) storage() Storage   { return StorageHeap }
func (h *heapPages) mappedBytes() int64 { return 0 }
func (h *heapPages) adviseSequential()  {}

// mmapPages is the mmap-backed pageStore: the snapshot image is a read-only
// mapping of the snapshot file. The mapping is held for the life of the
// process — live iterators may reference it indefinitely, and unmapping under
// them would fault — so it is never munmap'd; the kernel reclaims clean pages
// under memory pressure, which is the entire buffer-pool story.
type mmapPages struct {
	data []byte
	n    int
	psz  int

	// advised latches the one-shot MADV_SEQUENTIAL hint: full scans dominate
	// the workloads that benefit, the hint is sticky per mapping, and the
	// mapping is shared by every graph generation forked off this snapshot,
	// so one syscall per mapping per process is all that is ever needed.
	advised atomic.Bool
}

func (m *mmapPages) bytes() []byte      { return m.data }
func (m *mmapPages) pages() int         { return m.n }
func (m *mmapPages) pageSize() int      { return m.psz }
func (m *mmapPages) storage() Storage   { return StorageMmap }
func (m *mmapPages) mappedBytes() int64 { return int64(len(m.data)) }

func (m *mmapPages) adviseSequential() {
	if len(m.data) > 0 && m.advised.CompareAndSwap(false, true) {
		madviseSequential(m.data)
	}
}
