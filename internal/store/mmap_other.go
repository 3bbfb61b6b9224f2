//go:build !unix

package store

import (
	"fmt"
	"io"
	"os"
)

// imageMapped reports that readImage copies the snapshot file onto the heap:
// there is no mmap off unix.
const imageMapped = false

// readImage reads the whole open file in one read sized from its length.
func readImage(f *os.File) ([]byte, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: stat snapshot: %w", err)
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	return data, nil
}

// releaseImage matches the unix unmap hook; the heap copy needs no release.
func releaseImage(data []byte) {}

// madviseSequential matches the unix readahead hint; a no-op off unix.
func madviseSequential(data []byte) {}
