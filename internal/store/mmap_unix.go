//go:build unix

package store

import (
	"fmt"
	"math"
	"os"
	"syscall"
)

// imageMapped reports that readImage maps the snapshot file instead of
// copying it onto the heap.
const imageMapped = true

// readImage maps the open file read-only in its entirety. The mapping is
// shared (file-backed, never written), so every process mapping the same
// snapshot shares one copy in the page cache.
func readImage(f *os.File) ([]byte, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: stat snapshot: %w", err)
	}
	size := st.Size()
	if size == 0 {
		return []byte{}, nil
	}
	if size < 0 || size > math.MaxInt {
		return nil, fmt.Errorf("store: snapshot size %d not mappable", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("store: mmap snapshot: %w", err)
	}
	return data, nil
}

// madviseSequential hints that the mapping will be read front to back, so
// the kernel runs readahead ahead of a full scan. The address is the mmap
// base (page-aligned by construction); failure is ignored — the hint is an
// optimization, never a correctness requirement.
func madviseSequential(data []byte) {
	_ = syscall.Madvise(data, syscall.MADV_SEQUENTIAL)
}

// releaseImage unmaps an image from readImage. Only called when a load fails
// validation — a successfully loaded graph keeps its mapping for the process
// lifetime (live iterators may reference it indefinitely).
func releaseImage(data []byte) {
	if len(data) > 0 {
		_ = syscall.Munmap(data)
	}
}
