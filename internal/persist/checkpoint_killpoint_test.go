package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"sofos/internal/rdf"
	"sofos/internal/store"
)

// v3SnapshotBytes serializes a small block-codec graph as a paged (v3)
// snapshot, so the kill-point sweeps below cut a real checkpoint payload —
// magic, directories, CRCs, page regions — not a placeholder string.
func v3SnapshotBytes(t *testing.T, n int) []byte {
	t.Helper()
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		ts = append(ts, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://kp/s%d", i%17)),
			P: rdf.NewIRI(fmt.Sprintf("http://kp/p%d", i%5)),
			O: rdf.NewInteger(int64(i)),
		})
	}
	g, err := store.BuildFrom(ts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.SavePaged(&buf, 512); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeBytes adapts a byte slice to a checkpoint writer callback.
func writeBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error { _, err := w.Write(b); return err }
}

// TestCheckpointKillPointEveryByte simulates SIGKILL at every byte offset of
// a v3 checkpoint write — through the streamed graph snapshot, the catalog,
// the manifest, and the CURRENT repoint — and at the atomic steps between
// them. The invariant at every single cut: LatestCheckpoint still resolves
// to the previous checkpoint with its graph bytes intact, until the final
// CURRENT rename, which is the one and only commit point.
func TestCheckpointKillPointEveryByte(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g1 := v3SnapshotBytes(t, 40)
	cp1, err := d.WriteCheckpoint(Manifest{GraphVersion: 1}, writeBytes(g1), writeBytes([]byte("CAT1")))
	if err != nil {
		t.Fatal(err)
	}

	// The exact files checkpoint 2 would write, in write order. The manifest
	// bytes mirror WriteCheckpointFrom's encoding so post-rename states parse.
	g2 := v3SnapshotBytes(t, 60)
	m2 := Manifest{Format: manifestFormat, Sequence: 2, GraphVersion: 2}
	m2raw, err := json.MarshalIndent(&m2, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	m2raw = append(m2raw, '\n')
	files := []struct {
		name string
		data []byte
	}{
		{graphFile, g2},
		{catalogFile, []byte("CAT2")},
		{manifestFile, m2raw},
	}

	name2 := checkpointDirName(2)
	tmp := filepath.Join(d.Path(), name2+".tmp")
	final := filepath.Join(d.Path(), name2)

	assertLatest := func(state string, wantSeq uint64, wantGraph []byte) {
		t.Helper()
		cp, err := d.LatestCheckpoint()
		if err != nil || cp == nil {
			t.Fatalf("%s: LatestCheckpoint = %v, %v", state, cp, err)
		}
		if cp.Manifest.Sequence != wantSeq {
			t.Fatalf("%s: latest sequence = %d, want %d", state, cp.Manifest.Sequence, wantSeq)
		}
		raw, err := os.ReadFile(cp.GraphPath())
		if err != nil || !bytes.Equal(raw, wantGraph) {
			t.Fatalf("%s: checkpoint %d graph bytes damaged (%d bytes, err %v)", state, wantSeq, len(raw), err)
		}
	}

	// Sweep the tmp-dir writes twice: once with the graph snapshot streamed
	// byte by byte, once with it hard-linked from checkpoint 1 (the link
	// appears atomically, so only the later files have byte granularity).
	for _, linked := range []bool{false, true} {
		for fi := range files {
			if linked && fi == 0 {
				continue // the hard link is all-or-nothing, swept as fileStart below
			}
			for cut := 0; cut <= len(files[fi].data); cut++ {
				if err := os.RemoveAll(tmp); err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(tmp, 0o755); err != nil {
					t.Fatal(err)
				}
				if linked {
					if err := os.Link(cp1.GraphPath(), filepath.Join(tmp, graphFile)); err != nil {
						t.Fatal(err)
					}
				}
				start := 0
				if linked {
					start = 1
				}
				for j := start; j < fi; j++ {
					if err := os.WriteFile(filepath.Join(tmp, files[j].name), files[j].data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				if err := os.WriteFile(filepath.Join(tmp, files[fi].name), files[fi].data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				state := fmt.Sprintf("linked=%v %s cut=%d", linked, files[fi].name, cut)
				assertLatest(state, 1, g1)
			}
		}
	}
	if err := os.RemoveAll(tmp); err != nil {
		t.Fatal(err)
	}

	// Crash between the dir rename and the CURRENT repoint: the complete
	// final dir exists, but it is dead until CURRENT names it.
	writeAll := func(dir string) {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeAll(final)
	assertLatest("renamed, CURRENT not repointed", 1, g1)

	// Crash mid-write of CURRENT.tmp, at every byte offset: CURRENT itself is
	// untouched, so checkpoint 1 stays authoritative.
	curTmp := filepath.Join(d.Path(), currentFile+".tmp")
	content := []byte(name2 + "\n")
	for cut := 0; cut <= len(content); cut++ {
		if err := os.WriteFile(curTmp, content[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		assertLatest(fmt.Sprintf("CURRENT.tmp cut=%d", cut), 1, g1)
	}

	// The commit point: renaming CURRENT.tmp over CURRENT flips the latest
	// checkpoint to 2 even though checkpoint 1's dir still exists (a crash
	// before the reclaim step leaves both behind).
	if err := os.WriteFile(curTmp, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(curTmp, filepath.Join(d.Path(), currentFile)); err != nil {
		t.Fatal(err)
	}
	assertLatest("CURRENT repointed, old checkpoint not reclaimed", 2, g2)
	if err := os.RemoveAll(filepath.Join(d.Path(), checkpointDirName(1))); err != nil {
		t.Fatal(err)
	}
	assertLatest("old checkpoint reclaimed", 2, g2)
}

// TestCheckpointRetryAfterKill drops a checkpoint attempt at each crash
// phase, then runs a real WriteCheckpointFrom over the debris — it must
// succeed, publish a readable checkpoint, and (for the hard-link phases)
// leave the linked source snapshot untouched: removing tmp debris only drops
// one name of a two-link inode.
func TestCheckpointRetryAfterKill(t *testing.T) {
	g1 := v3SnapshotBytes(t, 40)
	g2 := v3SnapshotBytes(t, 60)
	phases := []struct {
		name  string
		build func(t *testing.T, d *Dir, cp1 *Checkpoint)
	}{
		{"empty tmp dir", func(t *testing.T, d *Dir, _ *Checkpoint) {
			mkdir(t, filepath.Join(d.Path(), checkpointDirName(2)+".tmp"))
		}},
		{"partial streamed graph", func(t *testing.T, d *Dir, _ *Checkpoint) {
			tmp := filepath.Join(d.Path(), checkpointDirName(2)+".tmp")
			mkdir(t, tmp)
			if err := os.WriteFile(filepath.Join(tmp, graphFile), g2[:len(g2)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"hard-linked graph in tmp", func(t *testing.T, d *Dir, cp1 *Checkpoint) {
			tmp := filepath.Join(d.Path(), checkpointDirName(2)+".tmp")
			mkdir(t, tmp)
			if err := os.Link(cp1.GraphPath(), filepath.Join(tmp, graphFile)); err != nil {
				t.Fatal(err)
			}
		}},
		{"complete final dir, CURRENT stale", func(t *testing.T, d *Dir, cp1 *Checkpoint) {
			dir := filepath.Join(d.Path(), checkpointDirName(2))
			mkdir(t, dir)
			if err := os.Link(cp1.GraphPath(), filepath.Join(dir, graphFile)); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, catalogFile), []byte("CAT2"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"torn CURRENT.tmp", func(t *testing.T, d *Dir, _ *Checkpoint) {
			if err := os.WriteFile(filepath.Join(d.Path(), currentFile+".tmp"), []byte("checkpo"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, ph := range phases {
		t.Run(ph.name, func(t *testing.T) {
			d, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			cp1, err := d.WriteCheckpoint(Manifest{GraphVersion: 1}, writeBytes(g1), writeBytes([]byte("CAT1")))
			if err != nil {
				t.Fatal(err)
			}
			ph.build(t, d, cp1)

			// The retry hard-links the previous checkpoint's snapshot — the
			// exact path a paged graph takes after a crash.
			cp2, err := d.WriteCheckpointFrom(Manifest{GraphVersion: 2},
				SnapshotSource{Write: writeBytes(g2), LinkPath: cp1.GraphPath()}, writeBytes([]byte("CAT2")))
			if err != nil {
				t.Fatalf("retry over %s debris: %v", ph.name, err)
			}
			if cp2.Manifest.Sequence != 2 {
				t.Fatalf("retry sequence = %d, want 2", cp2.Manifest.Sequence)
			}
			raw, err := os.ReadFile(cp2.GraphPath())
			if err != nil || !bytes.Equal(raw, g1) {
				t.Fatalf("retry graph = %d bytes, err %v; want the linked %d-byte snapshot", len(raw), err, len(g1))
			}
			latest, err := d.LatestCheckpoint()
			if err != nil || latest.Manifest.Sequence != 2 {
				t.Fatalf("latest after retry = %+v, %v", latest, err)
			}
		})
	}
}

// TestCheckpointHardLinkSurvivesReclaim proves the link actually shares the
// inode: after the next checkpoint hard-links the snapshot and the old
// checkpoint directory is reclaimed, the new checkpoint's graph file is the
// same file (os.SameFile) and still serves every byte.
func TestCheckpointHardLinkSurvivesReclaim(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g1 := v3SnapshotBytes(t, 40)
	cp1, err := d.WriteCheckpoint(Manifest{GraphVersion: 1}, writeBytes(g1), writeBytes([]byte("CAT1")))
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(cp1.GraphPath())
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := d.WriteCheckpointFrom(Manifest{GraphVersion: 2},
		SnapshotSource{Write: writeBytes(nil), LinkPath: cp1.GraphPath()}, writeBytes([]byte("CAT2")))
	if err != nil {
		t.Fatal(err)
	}
	// WriteCheckpointFrom reclaimed checkpoint 1; only the link keeps the
	// snapshot alive.
	if _, err := os.Stat(cp1.GraphPath()); !os.IsNotExist(err) {
		t.Fatalf("old checkpoint not reclaimed: %v", err)
	}
	after, err := os.Stat(cp2.GraphPath())
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("checkpoint graph was copied, not hard-linked")
	}
	raw, err := os.ReadFile(cp2.GraphPath())
	if err != nil || !bytes.Equal(raw, g1) {
		t.Fatalf("linked snapshot = %d bytes, err %v", len(raw), err)
	}
	// And it still loads as a graph.
	g, err := store.LoadFile(cp2.GraphPath())
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() == 0 {
		t.Fatal("linked snapshot loaded empty")
	}
}

func mkdir(t *testing.T, path string) {
	t.Helper()
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
}
