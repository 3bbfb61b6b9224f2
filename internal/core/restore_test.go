package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"sofos/internal/datasets"
	"sofos/internal/facet"
	"sofos/internal/persist"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/views"
)

const dbp = "http://dbpedia.org/property/"

// obsBatch builds one valid dbpedia-facet observation: a fresh country
// joined to an observation with language, year, and population.
func obsBatch(tag string, pop int64) []rdf.Triple {
	return obsBatchOf(tag, rdf.NewInteger(pop))
}

// obsBatchOf is obsBatch with any population term.
func obsBatchOf(tag string, pop rdf.Term) []rdf.Triple {
	iri := func(s string) rdf.Term { return rdf.NewIRI(dbp + s) }
	obs := rdf.NewIRI("http://ex.org/obs_" + tag)
	c := rdf.NewIRI("http://ex.org/c_" + tag)
	return []rdf.Triple{
		{S: obs, P: iri("country"), O: c},
		{S: c, P: iri("name"), O: rdf.NewLiteral("X" + tag)},
		{S: c, P: iri("continent"), O: rdf.NewLiteral("Atlantis")},
		{S: obs, P: iri("language"), O: rdf.NewLiteral("xx")},
		{S: obs, P: iri("year"), O: rdf.NewYear(2020)},
		{S: obs, P: iri("population"), O: pop},
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
	// Each phase is timed on its own. The snapshot load and the catalog
	// decode run side by side, and replay starts only once both are done.
	if rec.SnapshotLoadUS <= 0 || rec.CatalogRestoreUS <= 0 || rec.ReplayUS <= 0 {
		t.Fatalf("recovery phases not all timed: load %d us, catalog %d us, replay %d us",
			rec.SnapshotLoadUS, rec.CatalogRestoreUS, rec.ReplayUS)
	}
	if span := max(rec.SnapshotLoadUS, rec.CatalogRestoreUS) + rec.ReplayUS; span > rec.ElapsedUS {
		t.Fatalf("max(load %d us, catalog %d us) + replay %d us is more than the %d us elapsed",
			rec.SnapshotLoadUS, rec.CatalogRestoreUS, rec.ReplayUS, rec.ElapsedUS)
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
	if !reflect.DeepEqual(viewTriples(t, restored.Catalog), viewTriples(t, live.Catalog)) {
		t.Fatal("view graph V differs after restore")
	}
	if got, want := mustAnswer(t, restored, restoreQuery), mustAnswer(t, live, restoreQuery); !reflect.DeepEqual(got, want) {
		t.Fatalf("answers differ after restore:\n got %v\nwant %v", got, want)
	}

	// The restored view must also match a from-scratch recompute — the
	// differential cross-check of the acceptance criteria.
	var mat *views.Materialized
	for _, m := range restored.Catalog.Materialized() {
		if m.Data.View.Mask == full.Mask {
			mat = m
		}
	}
	if mat == nil {
		t.Fatal("full view lost in restore")
	}
	if restored.Catalog.Stale(full.Mask) {
		t.Fatal("view stale after eager-replayed recovery")
	}
	if mat.Maint.LastPath != "incremental" {
		t.Fatalf("last refresh path = %q, want incremental (replay must take the delta path)", mat.Maint.LastPath)
	}
}

// TestRestoreErrorPathsJoinDecoder: Restore decodes the catalog state on a
// goroutine of its own while the snapshot loads, and must join it on every
// path. A corrupt snapshot beside valid catalog state fails as a snapshot
// load, a valid snapshot beside truncated catalog state fails as a catalog
// restore, and after either the goroutine count is back where it was.
func TestRestoreErrorPathsJoinDecoder(t *testing.T) {
	live := sys(t)
	if _, err := live.Catalog.Materialize(live.Facet.View(live.Facet.FullMask())); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		file func(*persist.Checkpoint) string
		want string
	}{
		{"corrupt snapshot", (*persist.Checkpoint).GraphPath, "loading graph snapshot"},
		{"truncated catalog", (*persist.Checkpoint).CatalogPath, "restoring catalog state"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, err := persist.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkpointSystem(t, dir, nil, live)
			cp, err := dir.LatestCheckpoint()
			if err != nil || cp == nil {
				t.Fatalf("checkpoint missing: %v", err)
			}
			path := tc.file(cp)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Cut the file in half: for the snapshot that breaks its
			// header's section table, for the catalog a group mid-way.
			if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}

			before := runtime.NumGoroutine()
			_, _, err = Restore(dir, mustFacet(t), Options{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore error = %v, want one naming %q", err, tc.want)
			}
			// The decoder has handed its result over before Restore returns;
			// give the goroutine a moment to exit after its send.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines after a failed restore, %d before: the decoder was not joined", n, before)
			}
		})
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

// TestRestoredStateEqualsLive checks that folding runs of eager records into
// one refresh restores the catalog a live server held. For each aggregate
// and each measure it runs eager and lazy batches live — a MIN/MAX extremum
// delete that forces the full fallback mid-run, an insert then a delete of
// the same triples inside one run, lazy records between runs and at the end
// — then restores from the checkpoint plus the WAL and compares the two
// catalogs' saved state byte for byte. Only the provenance of each view
// record is zeroed first (see stateBytes); generation, base versions,
// triple counts and every group's key, aggregate, AVG companions and
// contribution count must agree bit for bit.
//
// The measures cover Restore's fold rule: integers fold everywhere;
// non-integer values in the replayed records, or a non-integer total in
// the checkpoint (there, folding would net a 10^12 insert-then-delete that
// the live sums rounded through), keep SUM and AVG at one refresh per eager
// record. Folding either of the last two changes the restored sums' bits.
func TestRestoredStateEqualsLive(t *testing.T) {
	integer := func(i int) rdf.Term { return rdf.NewInteger(int64(10 + 7*i)) }
	measures := []struct {
		name string
		val  func(tag string, i int) rdf.Term
	}{
		{"integer", func(_ string, i int) rdf.Term { return integer(i) }},
		{"decimal", func(tag string, i int) rdf.Term {
			if tag == "keep" || tag == "pre" {
				return integer(i)
			}
			return rdf.NewDecimal(float64(i*i*i)*1234567.891 + 0.1)
		}},
		{"decimal-checkpoint", func(tag string, i int) rdf.Term {
			switch tag {
			case "keep":
				return rdf.NewDecimal(0.1)
			case "e":
				return rdf.NewInteger(1e12)
			}
			return integer(i)
		}},
	}
	for _, agg := range []sparql.AggKind{sparql.AggSum, sparql.AggAvg, sparql.AggMin, sparql.AggMax} {
		for _, m := range measures {
			t.Run(agg.String()+"/"+m.name, func(t *testing.T) {
				g, pop, err := datasets.BuildWithFacet("dbpedia", 15, 5)
				if err != nil {
					t.Fatal(err)
				}
				f, err := facet.New(pop.Name+"-"+agg.String(), pop.Dims, pop.Measure, agg, pop.Pattern, pop.Prefixes)
				if err != nil {
					t.Fatal(err)
				}
				live, err := New(g, f)
				if err != nil {
					t.Fatal(err)
				}
				for _, dims := range [][]string{{"country", "continent", "lang", "year"}, {"continent", "year"}, {"continent"}, {}} {
					v, err := f.ViewByDims(dims...)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := live.Catalog.Materialize(v); err != nil {
						t.Fatal(err)
					}
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

				i := 0
				batch := func(tag string) []rdf.Triple {
					i++
					return obsBatchOf(tag, m.val(tag, i))
				}
				keep, pre, a, e := batch("keep"), batch("pre"), batch("a"), batch("e")
				applyLogged(t, live, l, keep, nil, true)
				applyLogged(t, live, l, pre, nil, true)
				checkpointSystem(t, dir, l, live)

				// Run 1: inserts around an extremum delete.
				applyLogged(t, live, l, a, nil, true)
				applyLogged(t, live, l, batch("b"), nil, true)
				applyLogged(t, live, l, nil, pre, true)
				applyLogged(t, live, l, batch("c"), nil, true)
				applyLogged(t, live, l, batch("d"), nil, false)
				// Run 2: an insert and a delete of the same triples, and a
				// second extremum delete.
				applyLogged(t, live, l, e, nil, true)
				applyLogged(t, live, l, batch("f"), nil, true)
				applyLogged(t, live, l, nil, e, true)
				applyLogged(t, live, l, nil, a, true)
				applyLogged(t, live, l, batch("g"), nil, true)
				applyLogged(t, live, l, batch("h"), nil, false)

				restored, rec, err := Restore(dir, f, Options{})
				if err != nil {
					t.Fatal(err)
				}
				wantRuns := 2
				if m.name != "integer" && (agg == sparql.AggSum || agg == sparql.AggAvg) {
					wantRuns = 9 // one per eager record
				}
				if rec.ReplayedBatches != 11 || rec.EagerRefreshes != wantRuns {
					t.Fatalf("replayed %d batches in %d refreshes, want 11 in %d", rec.ReplayedBatches, rec.EagerRefreshes, wantRuns)
				}
				if !reflect.DeepEqual(restored.Graph.SortedTriples(), live.Graph.SortedTriples()) {
					t.Fatal("base graph differs after restore")
				}
				if got, want := stateBytes(t, restored.Catalog), stateBytes(t, live.Catalog); !bytes.Equal(got, want) {
					t.Fatalf("restored catalog state differs from live (%d vs %d bytes)", len(got), len(want))
				}
			})
		}
	}
}

// stateBytes is the catalog's SaveState with each view record's provenance
// zeroed: the timings (Elapsed, LastCost, ComputeTime), which differ between
// any two runs, and the last refresh's path, source and delta size, which
// name the refresh that produced the record — on a restored catalog the
// replay's, which folds a run the live server refreshed batch by batch.
func stateBytes(t *testing.T, c *views.Catalog) []byte {
	t.Helper()
	for _, m := range c.Materialized() {
		m.Elapsed, m.Maint.LastCost, m.Maint.DeltaSize, m.Maint.LastPath = 0, 0, 0, ""
		m.Data.ComputeTime, m.Data.Source = 0, ""
	}
	var buf bytes.Buffer
	if err := c.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
