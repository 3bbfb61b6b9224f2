package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Checkpoints: a durable pairing of the base graph's binary snapshot
// (store.Save) with the serialized catalog state (views.Catalog.SaveState),
// stamped by a manifest that records the graph version, catalog generation,
// and the WAL segment recovery should replay from. Recovery is then
// snapshot-load plus replay of the WAL suffix — never a rematerialization.
//
// Data directory layout:
//
//	<data-dir>/
//	  CURRENT                    name of the latest complete checkpoint dir
//	  checkpoint-<seq>/
//	    MANIFEST.json
//	    graph.snap               store.Save snapshot of the base graph
//	    catalog.bin              views.Catalog.SaveState
//	  wal/
//	    wal-<seq>.log            write-ahead log segments
//
// A checkpoint becomes visible atomically: it is written under a temporary
// name, fsynced, renamed into place, and only then does CURRENT (also
// written via rename) point at it. A crash mid-checkpoint leaves CURRENT on
// the previous checkpoint and the WAL intact, so recovery is unaffected.

// manifestFormat versions the on-disk checkpoint layout.
const manifestFormat = 1

const (
	currentFile  = "CURRENT"
	manifestFile = "MANIFEST.json"
	graphFile    = "graph.snap"
	catalogFile  = "catalog.bin"
	walDirName   = "wal"
)

// Manifest identifies one checkpoint: what dataset it snapshots, the exact
// catalog state it captures, and where WAL replay resumes.
type Manifest struct {
	Format   int    `json:"format"`
	Sequence uint64 `json:"sequence"` // checkpoint number, monotonic per data dir

	// Dataset identity, so a restart (or offline tool) can rebuild the facet
	// without the graph generators and refuse a mismatched -dataset flag.
	Dataset string `json:"dataset"`
	Scale   int    `json:"scale"`
	Seed    int64  `json:"seed"`

	// GraphVersion and Generation are the base graph's version counter and
	// the catalog's mutation counter at checkpoint time; restore reinstates
	// both so WAL version intervals and cache generations stay aligned.
	GraphVersion int64 `json:"graph_version"`
	Generation   int64 `json:"generation"`

	// WALSeq is the first WAL segment recovery must replay after loading
	// this checkpoint; older segments are redundant and truncated.
	WALSeq uint64 `json:"wal_seq"`

	BaseTriples int   `json:"base_triples"`
	Views       int   `json:"views"`
	CreatedUnix int64 `json:"created_unix"`
}

// Dir is an open data directory.
type Dir struct {
	path string
}

// Open opens (creating if needed) a data directory.
func Open(path string) (*Dir, error) {
	if path == "" {
		return nil, errors.New("persist: empty data directory path")
	}
	if err := os.MkdirAll(filepath.Join(path, walDirName), 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating data dir: %w", err)
	}
	return &Dir{path: path}, nil
}

// Path returns the directory's root path.
func (d *Dir) Path() string { return d.path }

// WALDir returns the write-ahead log subdirectory.
func (d *Dir) WALDir() string { return filepath.Join(d.path, walDirName) }

// checkpointDirName renders a checkpoint directory name.
func checkpointDirName(seq uint64) string { return fmt.Sprintf("checkpoint-%016x", seq) }

// Checkpoint is one complete on-disk checkpoint.
type Checkpoint struct {
	Manifest Manifest
	dir      string // absolute checkpoint directory
}

// GraphPath returns the path of the checkpoint's graph snapshot file, for
// loaders that map the snapshot (store.LoadFile) instead of streaming it.
func (c *Checkpoint) GraphPath() string { return filepath.Join(c.dir, graphFile) }

// CatalogPath returns the path of the checkpoint's catalog state file, for
// readers that decode the state whole (views.ReadState).
func (c *Checkpoint) CatalogPath() string { return filepath.Join(c.dir, catalogFile) }

// LatestCheckpoint resolves CURRENT to a checkpoint, or returns (nil, nil)
// when the directory has none yet.
func (d *Dir) LatestCheckpoint() (*Checkpoint, error) {
	raw, err := os.ReadFile(filepath.Join(d.path, currentFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: reading CURRENT: %w", err)
	}
	name := strings.TrimSpace(string(raw))
	if name == "" || strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("persist: CURRENT names invalid checkpoint %q", name)
	}
	dir := filepath.Join(d.path, name)
	mraw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("persist: reading manifest of %s: %w", name, err)
	}
	var m Manifest
	if err := json.Unmarshal(mraw, &m); err != nil {
		return nil, fmt.Errorf("persist: parsing manifest of %s: %w", name, err)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("persist: checkpoint %s has format %d, this build reads %d", name, m.Format, manifestFormat)
	}
	return &Checkpoint{Manifest: m, dir: dir}, nil
}

// SnapshotSource describes how a checkpoint obtains its graph snapshot.
// Write streams a fresh serialization and must always be set. LinkPath, when
// non-empty, names an existing durable snapshot file whose logical content is
// current (store.Graph.PagedSource): the checkpoint then hard-links it —
// sharing the inode, so the bytes survive the old checkpoint directory's
// removal — and falls back to a plain file copy, then to Write, if linking is
// not possible. Either shortcut skips re-serializing the runs, which is what
// keeps periodic checkpoints of a read-mostly graph O(1) in the data size.
type SnapshotSource struct {
	Write    func(io.Writer) error
	LinkPath string
}

// WriteCheckpoint durably writes a new checkpoint. The manifest's Sequence
// and CreatedUnix are stamped here (one past the latest checkpoint); the
// caller fills everything else and supplies writers for the graph snapshot
// and catalog state. The checkpoint is complete — CURRENT repointed — only
// when this returns nil.
func (d *Dir) WriteCheckpoint(m Manifest, writeGraph, writeCatalog func(io.Writer) error) (*Checkpoint, error) {
	return d.WriteCheckpointFrom(m, SnapshotSource{Write: writeGraph}, writeCatalog)
}

// WriteCheckpointFrom is WriteCheckpoint with a graph SnapshotSource that can
// hard-link an existing paged snapshot instead of streaming a new one.
func (d *Dir) WriteCheckpointFrom(m Manifest, graph SnapshotSource, writeCatalog func(io.Writer) error) (*Checkpoint, error) {
	prev, err := d.LatestCheckpoint()
	if err != nil {
		return nil, err
	}
	m.Format = manifestFormat
	m.Sequence = 1
	var prevName string
	if prev != nil {
		m.Sequence = prev.Manifest.Sequence + 1
		prevName = checkpointDirName(prev.Manifest.Sequence)
	}
	name := checkpointDirName(m.Sequence)
	tmp := filepath.Join(d.path, name+".tmp")
	final := filepath.Join(d.path, name)
	// A leftover tmp dir from a crashed attempt is discarded; a leftover
	// final dir can only mean CURRENT was never repointed at it, so it is
	// equally dead.
	for _, p := range []string{tmp, final} {
		if err := os.RemoveAll(p); err != nil {
			return nil, fmt.Errorf("persist: clearing stale checkpoint %s: %w", p, err)
		}
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating checkpoint dir: %w", err)
	}
	if err := materializeGraphSnapshot(filepath.Join(tmp, graphFile), graph); err != nil {
		return nil, fmt.Errorf("persist: writing graph snapshot: %w", err)
	}
	if err := writeFileSynced(filepath.Join(tmp, catalogFile), writeCatalog); err != nil {
		return nil, fmt.Errorf("persist: writing catalog state: %w", err)
	}
	mraw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("persist: encoding manifest: %w", err)
	}
	if err := writeFileSynced(filepath.Join(tmp, manifestFile), func(w io.Writer) error {
		_, err := w.Write(append(mraw, '\n'))
		return err
	}); err != nil {
		return nil, fmt.Errorf("persist: writing manifest: %w", err)
	}
	// Sync the checkpoint directory itself so its entries (including any
	// hard link created above) are durable before the rename publishes it.
	if err := syncDir(tmp); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return nil, fmt.Errorf("persist: publishing checkpoint: %w", err)
	}
	if err := syncDir(d.path); err != nil {
		return nil, err
	}
	// Repoint CURRENT via the same write-rename dance.
	if err := writeFileSynced(filepath.Join(d.path, currentFile+".tmp"), func(w io.Writer) error {
		_, err := io.WriteString(w, name+"\n")
		return err
	}); err != nil {
		return nil, fmt.Errorf("persist: writing CURRENT: %w", err)
	}
	if err := os.Rename(filepath.Join(d.path, currentFile+".tmp"), filepath.Join(d.path, currentFile)); err != nil {
		return nil, fmt.Errorf("persist: publishing CURRENT: %w", err)
	}
	if err := syncDir(d.path); err != nil {
		return nil, err
	}
	// The previous checkpoint is now redundant; reclaim it. Failure here is
	// cosmetic (stale disk usage), not a durability problem.
	if prevName != "" && prevName != name {
		_ = os.RemoveAll(filepath.Join(d.path, prevName))
	}
	return &Checkpoint{Manifest: m, dir: final}, nil
}

// materializeGraphSnapshot produces the checkpoint's graph snapshot file at
// path from the source: hard link when possible, file copy when linking fails
// (e.g. a cross-filesystem LinkPath), streamed serialization otherwise. The
// linked source was fsynced when it was originally checkpointed and snapshot
// files are never modified in place, so a link needs no data sync of its own
// — only the directory entry, which the caller syncs.
func materializeGraphSnapshot(path string, graph SnapshotSource) error {
	if graph.LinkPath != "" {
		if err := os.Link(graph.LinkPath, path); err == nil {
			return nil
		}
		if err := copyFileSynced(graph.LinkPath, path); err == nil {
			return nil
		}
		// Fall through: the source file may have vanished; serialize fresh.
	}
	return writeFileSynced(path, graph.Write)
}

// copyFileSynced copies src to dst and fsyncs dst.
func copyFileSynced(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	return writeFileSynced(dst, func(w io.Writer) error {
		_, err := io.Copy(w, in)
		return err
	})
}

// writeFileSynced writes path via the callback and fsyncs it before closing.
func writeFileSynced(path string, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(path string) error {
	df, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("persist: opening dir for sync: %w", err)
	}
	defer df.Close()
	if err := df.Sync(); err != nil {
		return fmt.Errorf("persist: syncing dir: %w", err)
	}
	return nil
}
