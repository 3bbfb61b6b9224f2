package persist

import (
	"archive/tar"
	"bytes"
	"io"
	"os"
	"testing"
)

// archiveFixture writes one checkpoint with known payloads and returns it.
func archiveFixture(t *testing.T, graph, catalog string) *Checkpoint {
	t.Helper()
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cp, err := d.WriteCheckpoint(
		Manifest{Dataset: "fixture", Scale: 2, Seed: 7, GraphVersion: 42, Generation: 9, WALSeq: 3},
		func(w io.Writer) error { _, err := io.WriteString(w, graph); return err },
		func(w io.Writer) error { _, err := io.WriteString(w, catalog); return err },
	)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestArchiveRoundTrip pins the bootstrap wire format: WriteArchive →
// RestoreArchive reproduces the manifest and both payload files bit-exactly,
// and the restored directory's CURRENT resolves to the unpacked checkpoint.
func TestArchiveRoundTrip(t *testing.T) {
	const graph, catalog = "graph-bytes\x00\x01binary", "catalog-bytes"
	cp := archiveFixture(t, graph, catalog)

	var buf bytes.Buffer
	if err := cp.WriteArchive(&buf); err != nil {
		t.Fatal(err)
	}

	dir, man, err := RestoreArchive(bytes.NewReader(buf.Bytes()), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if *man != cp.Manifest {
		t.Fatalf("restored manifest %+v, want %+v", *man, cp.Manifest)
	}
	got, err := dir.LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Manifest != cp.Manifest {
		t.Fatalf("CURRENT resolves to %+v, want %+v", got, cp.Manifest)
	}
	for name, want := range map[string]string{"graph": graph, "catalog": catalog} {
		path := got.GraphPath()
		if name == "catalog" {
			path = got.CatalogPath()
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != want {
			t.Errorf("restored %s = %q, want %q", name, raw, want)
		}
	}
}

// TestRestoreArchiveRejectsTruncation requires a torn download to fail the
// restore rather than publish a partial checkpoint.
func TestRestoreArchiveRejectsTruncation(t *testing.T) {
	cp := archiveFixture(t, "some graph bytes", "some catalog bytes")
	var buf bytes.Buffer
	if err := cp.WriteArchive(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 10, buf.Len() / 2, buf.Len() - 1} {
		if _, _, err := RestoreArchive(bytes.NewReader(buf.Bytes()[:cut]), t.TempDir()); err == nil {
			t.Errorf("archive truncated at %d/%d bytes restored cleanly", cut, buf.Len())
		}
	}
}

// TestRestoreArchiveRejectsForeignEntries keeps the unpack from writing
// anything but the three checkpoint files (a hostile or corrupt archive must
// not plant paths).
func TestRestoreArchiveRejectsForeignEntries(t *testing.T) {
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	body := []byte("boom")
	if err := tw.WriteHeader(&tar.Header{Name: "../escape", Mode: 0o644, Size: int64(len(body))}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RestoreArchive(bytes.NewReader(buf.Bytes()), t.TempDir()); err == nil {
		t.Fatal("archive with a foreign entry restored cleanly")
	}
}
