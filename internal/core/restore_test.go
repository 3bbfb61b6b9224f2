package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sofos/internal/datasets"
	"sofos/internal/facet"
	"sofos/internal/persist"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
)

const dbp = "http://dbpedia.org/property/"

// obsBatch builds one valid dbpedia-facet observation: a fresh country
// joined to an observation with language, year, and population.
func obsBatch(tag string, pop int64) []rdf.Triple {
	iri := func(s string) rdf.Term { return rdf.NewIRI(dbp + s) }
	obs := rdf.NewIRI("http://ex.org/obs_" + tag)
	c := rdf.NewIRI("http://ex.org/c_" + tag)
	return []rdf.Triple{
		{S: obs, P: iri("country"), O: c},
		{S: c, P: iri("name"), O: rdf.NewLiteral("X" + tag)},
		{S: c, P: iri("continent"), O: rdf.NewLiteral("Atlantis")},
		{S: obs, P: iri("language"), O: rdf.NewLiteral("xx")},
		{S: obs, P: iri("year"), O: rdf.NewYear(2020)},
		{S: obs, P: iri("population"), O: rdf.NewInteger(pop)},
	}
}

// checkpointSystem writes a checkpoint of sys into dir, mimicking the
// serving layer: rotate first, snapshot, truncate.
func checkpointSystem(t *testing.T, dir *persist.Dir, l *persist.Log, s *System) {
	t.Helper()
	seq := uint64(1)
	if l != nil {
		var err error
		if seq, err = l.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	_, err := dir.WriteCheckpoint(persist.Manifest{
		Dataset:      "dbpedia",
		Scale:        15,
		Seed:         5,
		GraphVersion: s.GraphVersion(),
		Generation:   s.Generation(),
		WALSeq:       seq,
		BaseTriples:  s.Graph.Len(),
		Views:        len(s.Catalog.Materialized()),
	}, s.Graph.Save, s.Catalog.SaveState)
	if err != nil {
		t.Fatal(err)
	}
}

// applyLogged applies one batch to the live system and appends its WAL
// record, optionally replaying the eager-maintenance path — the exact
// sequence the server's /update handler runs.
func applyLogged(t *testing.T, s *System, l *persist.Log, ins, del []rdf.Triple, eager bool) {
	t.Helper()
	d, err := s.ApplyUpdate(ins, del)
	if err != nil {
		t.Fatal(err)
	}
	if eager {
		plan, err := s.Catalog.PlanRefresh(s.Workers)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Catalog.CommitRefresh(plan); err != nil {
			t.Fatal(err)
		}
	}
	if d.FromVersion == d.ToVersion {
		return
	}
	if err := l.Append(&persist.Record{
		FromVersion: d.FromVersion,
		ToVersion:   d.ToVersion,
		Generation:  s.Generation(),
		Eager:       eager,
		Inserts:     d.Inserted,
		Deletes:     d.Deleted,
	}); err != nil {
		t.Fatal(err)
	}
}

// answers runs a query on both systems and compares rows.
func mustAnswer(t *testing.T, s *System, q string) [][]string {
	t.Helper()
	ans, err := s.AnswerString(q)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]string, len(ans.Result.Rows))
	for i, row := range ans.Result.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out[i] = cells
	}
	return out
}

const restoreQuery = `PREFIX dbp: <http://dbpedia.org/property/>
SELECT ?country (SUM(?pop) AS ?total) WHERE {
  ?obs dbp:country ?c .
  ?c dbp:name ?country .
  ?c dbp:continent ?continent .
  ?obs dbp:language ?lang .
  ?obs dbp:year ?year .
  ?obs dbp:population ?pop .
} GROUP BY ?country`

func TestRestoreCheckpointPlusReplay(t *testing.T) {
	live := sys(t)
	full := live.Facet.View(live.Facet.FullMask())
	if _, err := live.Catalog.Materialize(full); err != nil {
		t.Fatal(err)
	}
	dir, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, err := persist.OpenLog(dir.WALDir(), persist.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// A pre-checkpoint batch (must be covered by the snapshot, not replayed),
	// the checkpoint, then a mixed lazy/eager suffix including a delete.
	applyLogged(t, live, l, obsBatch("pre", 100), nil, true)
	checkpointSystem(t, dir, l, live)
	applyLogged(t, live, l, obsBatch("s1", 11), nil, true)
	applyLogged(t, live, l, obsBatch("s2", 22), nil, false)
	applyLogged(t, live, l, nil, obsBatch("s1", 11), true)

	restored, rec, err := Restore(dir, mustFacet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.ReplayedBatches != 3 {
		t.Fatalf("replayed %d batches, want 3 (stats %+v)", rec.ReplayedBatches, rec)
	}
	if rec.SkippedBatches != 0 {
		// The pre-checkpoint segment was truncated by rotation semantics only
		// if the server truncates; Restore must skip, not re-apply, whatever
		// survived.
		t.Logf("note: %d batches skipped as pre-checkpoint", rec.SkippedBatches)
	}
	if rec.EagerRefreshes != 2 {
		t.Fatalf("replayed %d eager refreshes, want 2", rec.EagerRefreshes)
	}
	// Each phase is timed on its own, and the phases never overlap.
	if rec.SnapshotLoadUS <= 0 || rec.CatalogRestoreUS <= 0 || rec.ReplayUS <= 0 {
		t.Fatalf("recovery phases not all timed: load %d us, catalog %d us, replay %d us",
			rec.SnapshotLoadUS, rec.CatalogRestoreUS, rec.ReplayUS)
	}
	if sum := rec.SnapshotLoadUS + rec.CatalogRestoreUS + rec.ReplayUS; sum > rec.ElapsedUS {
		t.Fatalf("recovery phases sum to %d us, more than the %d us elapsed", sum, rec.ElapsedUS)
	}

	// Exact state equivalence: generation, graph version, contents, views.
	if got, want := restored.Generation(), live.Generation(); got != want {
		t.Fatalf("generation = %d, want %d", got, want)
	}
	if got, want := restored.GraphVersion(), live.GraphVersion(); got != want {
		t.Fatalf("graph version = %d, want %d", got, want)
	}
	if !reflect.DeepEqual(restored.Graph.SortedTriples(), live.Graph.SortedTriples()) {
		t.Fatal("base graph differs after restore")
	}
	if !reflect.DeepEqual(restored.Catalog.ViewGraph().SortedTriples(), live.Catalog.ViewGraph().SortedTriples()) {
		t.Fatal("view graph V differs after restore")
	}
	if got, want := mustAnswer(t, restored, restoreQuery), mustAnswer(t, live, restoreQuery); !reflect.DeepEqual(got, want) {
		t.Fatalf("answers differ after restore:\n got %v\nwant %v", got, want)
	}

	// The restored view must also match a from-scratch recompute — the
	// differential cross-check of the acceptance criteria.
	mat, ok := restored.Catalog.Get(full.Mask)
	if !ok {
		t.Fatal("full view lost in restore")
	}
	if restored.Catalog.Stale(full.Mask) {
		t.Fatal("view stale after eager-replayed recovery")
	}
	if mat.Maint.LastPath != "incremental" {
		t.Fatalf("last refresh path = %q, want incremental (replay must take the delta path)", mat.Maint.LastPath)
	}
}

// mustFacet resolves the dbpedia facet the fixture system serves.
func mustFacet(t *testing.T) *facet.Facet {
	t.Helper()
	spec, ok := datasets.ByName("dbpedia")
	if !ok {
		t.Fatal("dbpedia spec missing")
	}
	f, err := spec.Facet()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRestoreAfterCheckpointKillPoints drives a full Restore — snapshot load,
// catalog rebuild, WAL replay — over every crash phase of a second checkpoint
// write. Whatever instant the fake kill lands on (torn graph stream,
// hard-linked graph with a torn catalog, a complete but unpublished
// directory, a torn CURRENT.tmp, and finally the repointed CURRENT), the
// restored system must answer exactly like the live one: the
// checkpoint write is invisible until its single commit point and lossless
// after it. The byte-granular sweep of the same write lives in
// internal/persist; this test checks the phase boundaries end to end.
func TestRestoreAfterCheckpointKillPoints(t *testing.T) {
	live := sys(t)
	if _, err := live.Catalog.Materialize(live.Facet.View(live.Facet.FullMask())); err != nil {
		t.Fatal(err)
	}
	dir, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, err := persist.OpenLog(dir.WALDir(), persist.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	applyLogged(t, live, l, obsBatch("pre", 100), nil, true)
	checkpointSystem(t, dir, l, live)
	cp1, err := dir.LatestCheckpoint()
	if err != nil || cp1 == nil {
		t.Fatalf("checkpoint 1 missing: %v", err)
	}
	applyLogged(t, live, l, obsBatch("s1", 11), nil, true)
	applyLogged(t, live, l, obsBatch("s2", 22), nil, false)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want := mustAnswer(t, live, restoreQuery)

	// The exact files the interrupted checkpoint 2 would have written.
	var gbuf, cbuf bytes.Buffer
	if err := live.Graph.Save(&gbuf); err != nil {
		t.Fatal(err)
	}
	if err := live.Catalog.SaveState(&cbuf); err != nil {
		t.Fatal(err)
	}
	m2 := persist.Manifest{
		Format: 1, Sequence: 2, Dataset: "dbpedia", Scale: 15, Seed: 5,
		GraphVersion: live.GraphVersion(), Generation: live.Generation(),
		WALSeq: 1, BaseTriples: live.Graph.Len(), Views: len(live.Catalog.Materialized()),
	}
	m2raw, err := json.MarshalIndent(&m2, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	m2raw = append(m2raw, '\n')

	// On-disk checkpoint layout, as documented in internal/persist.
	base := dir.Path()
	cp2name := fmt.Sprintf("checkpoint-%016x", 2)
	writeCp2 := func(dst string, files map[string][]byte) {
		t.Helper()
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	complete := map[string][]byte{
		"graph.snap": gbuf.Bytes(), "catalog.bin": cbuf.Bytes(), "MANIFEST.json": m2raw,
	}
	phases := []struct {
		name  string
		build func(t *testing.T)
	}{
		{"torn graph stream in tmp", func(t *testing.T) {
			writeCp2(filepath.Join(base, cp2name+".tmp"),
				map[string][]byte{"graph.snap": gbuf.Bytes()[:gbuf.Len()/2]})
		}},
		{"hard-linked graph, torn catalog", func(t *testing.T) {
			tmp := filepath.Join(base, cp2name+".tmp")
			writeCp2(tmp, map[string][]byte{"catalog.bin": cbuf.Bytes()[:2]})
			if err := os.Link(cp1.GraphPath(), filepath.Join(tmp, "graph.snap")); err != nil {
				t.Fatal(err)
			}
		}},
		{"complete tmp, never renamed", func(t *testing.T) {
			writeCp2(filepath.Join(base, cp2name+".tmp"), complete)
		}},
		{"renamed, CURRENT stale", func(t *testing.T) {
			writeCp2(filepath.Join(base, cp2name), complete)
		}},
		{"torn CURRENT.tmp", func(t *testing.T) {
			writeCp2(filepath.Join(base, cp2name), complete)
			if err := os.WriteFile(filepath.Join(base, "CURRENT.tmp"), []byte("checkpo"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}

	// Restore maps the checkpoint's snapshot, so each phase is named for the
	// storage it asserts.
	for _, ph := range phases {
		t.Run("mmap/"+ph.name, func(t *testing.T) {
			for _, debris := range []string{cp2name, cp2name + ".tmp", "CURRENT.tmp"} {
				if err := os.RemoveAll(filepath.Join(base, debris)); err != nil {
					t.Fatal(err)
				}
			}
			ph.build(t)
			restored, rec, err := Restore(dir, mustFacet(t), Options{})
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if got := restored.Graph.MemStats().Storage; got != "mmap" {
				t.Fatalf("restored graph storage = %s, want mmap", got)
			}
			if rec.CheckpointSeq != 1 {
				t.Fatalf("restored from checkpoint %d, want the previous one", rec.CheckpointSeq)
			}
			if rec.ReplayedBatches != 2 {
				t.Fatalf("replayed %d batches, want 2", rec.ReplayedBatches)
			}
			if restored.Generation() != live.Generation() {
				t.Fatalf("generation = %d, want %d", restored.Generation(), live.Generation())
			}
			if got := mustAnswer(t, restored, restoreQuery); !reflect.DeepEqual(got, want) {
				t.Fatalf("answers differ after crash-phase restore:\n got %v\nwant %v", got, want)
			}
		})
	}
	// Past the commit point: CURRENT names checkpoint 2, replay skips the
	// batches the snapshot already contains, the answers do not move.
	t.Run("mmap/CURRENT repointed", func(t *testing.T) {
		writeCp2(filepath.Join(base, cp2name), complete)
		if err := os.WriteFile(filepath.Join(base, "CURRENT.tmp"), []byte(cp2name+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(filepath.Join(base, "CURRENT.tmp"), filepath.Join(base, "CURRENT")); err != nil {
			t.Fatal(err)
		}
		restored, rec, err := Restore(dir, mustFacet(t), Options{})
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if rec.CheckpointSeq != 2 || rec.ReplayedBatches != 0 {
			t.Fatalf("recovery = %+v, want checkpoint 2 with nothing to replay", rec)
		}
		if got := mustAnswer(t, restored, restoreQuery); !reflect.DeepEqual(got, want) {
			t.Fatalf("answers differ after committed checkpoint:\n got %v\nwant %v", got, want)
		}
	})
}

func TestRestoreTornTailLandsOnCommittedState(t *testing.T) {
	live := sys(t)
	if _, err := live.Catalog.Materialize(live.Facet.View(live.Facet.FullMask())); err != nil {
		t.Fatal(err)
	}
	dir, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, err := persist.OpenLog(dir.WALDir(), persist.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	checkpointSystem(t, dir, l, live)
	wantGen := make([]int64, 0, 3)
	for i, tag := range []string{"a", "b", "c"} {
		applyLogged(t, live, l, obsBatch(tag, int64(10+i)), nil, true)
		wantGen = append(wantGen, live.Generation())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Cut the final segment mid-record — the after-append/pre-ack crash
	// window — and recover: the state must be exactly some committed
	// generation (here: the one before the torn batch), never a torn batch.
	segs, err := os.ReadDir(dir.WALDir())
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1].Name()
	p := filepath.Join(dir.WALDir(), last)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	restored, rec, err := Restore(dir, mustFacet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.TornTail {
		t.Fatal("torn tail not reported")
	}
	if rec.ReplayedBatches != 2 {
		t.Fatalf("replayed %d batches, want 2 (the third is torn)", rec.ReplayedBatches)
	}
	if restored.Generation() != wantGen[1] {
		t.Fatalf("recovered generation %d is not the last committed one %d", restored.Generation(), wantGen[1])
	}
	// No fragment of the torn batch may be visible.
	q := sparql.MustParse(restoreQuery)
	if _, err := restored.Answer(q); err != nil {
		t.Fatal(err)
	}
	if restored.Graph.Contains(obsBatch("c", 12)[0]) {
		t.Fatal("triple from the torn batch survived recovery")
	}
}
