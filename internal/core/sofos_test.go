package core

import (
	"strings"
	"testing"

	"sofos/internal/cost"
	"sofos/internal/datasets"
	"sofos/internal/persist"
	"sofos/internal/workload"
)

// sys builds a small dbpedia-backed system.
func sys(t testing.TB) *System {
	t.Helper()
	g, f, err := datasets.BuildWithFacet("dbpedia", 15, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystem(t *testing.T) {
	s := sys(t)
	if s.Lattice.Size() != 16 {
		t.Errorf("lattice size = %d", s.Lattice.Size())
	}
	if s.Catalog.Base() != s.Graph {
		t.Error("catalog not built over the system graph")
	}
	if n := len(viewTriples(t, s.Catalog)); n != 0 || s.Catalog.AddedTriples() != 0 {
		t.Errorf("view graph V has %d triples before any materialization, want 0", n)
	}
	if s.Catalog.StorageAmplification() != 1 {
		t.Errorf("amplification = %f with no views, want 1", s.Catalog.StorageAmplification())
	}
}

func TestProviderCached(t *testing.T) {
	s := sys(t)
	p1, err := s.Provider()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Provider()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("provider not cached")
	}
}

func TestAnalyticModels(t *testing.T) {
	s := sys(t)
	models, err := s.AnalyticModels(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 4 {
		t.Fatalf("models = %d", len(models))
	}
	names := map[string]bool{}
	for _, m := range models {
		names[m.Name()] = true
	}
	for _, want := range []string{"random", "triples", "aggvalues", "nodes"} {
		if !names[want] {
			t.Errorf("missing model %s", want)
		}
	}
}

func TestSelectAndMaterialize(t *testing.T) {
	s := sys(t)
	models, err := s.AnalyticModels(1)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := s.SelectViews(models[2], 3)
	if err != nil {
		t.Fatal(err)
	}
	mats, err := s.Materialize(sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(mats) != len(sel.Views) {
		t.Errorf("materialized %d of %d", len(mats), len(sel.Views))
	}
	if s.Catalog.AddedTriples() <= 0 {
		t.Error("no triples added")
	}
	s.Reset()
	if s.Catalog.AddedTriples() != 0 {
		t.Error("reset incomplete")
	}
}

func TestSelectViewsByMemory(t *testing.T) {
	s := sys(t)
	models, err := s.AnalyticModels(1)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := s.SelectViewsByMemory(models[2], 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Views) == 0 {
		t.Error("no views under generous memory budget")
	}
	tiny, err := s.SelectViewsByMemory(models[2], 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiny.Views) != 0 {
		t.Error("views selected under 10-byte budget")
	}
}

func TestAnswerString(t *testing.T) {
	s := sys(t)
	ans, err := s.AnswerString(`PREFIX dbp: <http://dbpedia.org/property/>
SELECT ?lang (SUM(?pop) AS ?total) WHERE {
  ?obs dbp:country ?c .
  ?c dbp:name ?country .
  ?c dbp:continent ?continent .
  ?obs dbp:language ?lang .
  ?obs dbp:year ?year .
  ?obs dbp:population ?pop .
} GROUP BY ?lang`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Result.Rows) == 0 {
		t.Error("no rows")
	}
	if _, err := s.AnswerString("garbage"); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestRunWorkloadAndHitRate(t *testing.T) {
	s := sys(t)
	w, err := s.GenerateWorkload(workload.Config{Size: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Without views everything is a base answer.
	rep, err := s.RunWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViewHits != 0 || rep.HitRate() != 0 {
		t.Errorf("hits without views = %d", rep.ViewHits)
	}
	if rep.Timing.N() != 12 || len(rep.PerQuery) != 12 {
		t.Error("per-query records missing")
	}
	for _, qo := range rep.PerQuery {
		if qo.Via != "base" || qo.Reason == "" {
			t.Errorf("outcome = %+v", qo)
		}
	}
	// With the top view everything hits.
	if _, err := s.Catalog.Materialize(s.Facet.View(s.Facet.FullMask())); err != nil {
		t.Fatal(err)
	}
	rep, err = s.RunWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HitRate() != 1 {
		t.Errorf("hit rate with full view = %f", rep.HitRate())
	}
}

func TestRunWorkloadParallel(t *testing.T) {
	s := sys(t)
	if _, err := s.Catalog.Materialize(s.Facet.View(s.Facet.FullMask())); err != nil {
		t.Fatal(err)
	}
	w, err := s.GenerateWorkload(workload.Config{Size: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := s.RunWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := s.RunWorkloadParallel(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if parallel.Timing.N() != serial.Timing.N() {
		t.Fatalf("parallel answered %d, serial %d", parallel.Timing.N(), serial.Timing.N())
	}
	if parallel.ViewHits != serial.ViewHits {
		t.Errorf("hits differ: %d vs %d", parallel.ViewHits, serial.ViewHits)
	}
	// Same per-query outcomes in workload order (rows and via).
	for i := range serial.PerQuery {
		if parallel.PerQuery[i].Rows != serial.PerQuery[i].Rows ||
			parallel.PerQuery[i].Via != serial.PerQuery[i].Via {
			t.Errorf("query %d outcome differs: %+v vs %+v",
				i, parallel.PerQuery[i], serial.PerQuery[i])
		}
	}
	// workers <= 1 falls back to the serial path.
	one, err := s.RunWorkloadParallel(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Timing.N() != serial.Timing.N() {
		t.Error("workers=1 path broken")
	}
}

func TestCompareModels(t *testing.T) {
	s := sys(t)
	models, err := s.AnalyticModels(2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.GenerateWorkload(workload.Config{Size: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := s.CompareModels(models, 3, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(models)+1 {
		t.Fatalf("reports = %d", len(reports))
	}
	if reports[0].Model != "no-views" || reports[0].Amplification != 1 {
		t.Errorf("baseline report = %+v", reports[0])
	}
	for _, r := range reports[1:] {
		if len(r.SelectedViews) == 0 {
			t.Errorf("%s selected nothing", r.Model)
		}
		if r.Amplification <= 1 {
			t.Errorf("%s amplification = %f", r.Model, r.Amplification)
		}
		if r.HitRate <= 0 {
			t.Errorf("%s hit rate = %f", r.Model, r.HitRate)
		}
		if r.Mean <= 0 || r.SpeedupVsBase <= 0 {
			t.Errorf("%s timing = %+v", r.Model, r)
		}
	}
	// Catalog must be clean afterwards.
	if s.Catalog.AddedTriples() != 0 {
		t.Error("CompareModels left views materialized")
	}
}

func TestTrainLearnedEndToEnd(t *testing.T) {
	// Small scale to keep the measurement probes fast.
	g, f, err := datasets.BuildWithFacet("lubm", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.TrainLearned(cost.TrainConfig{ProbesPerView: 2, Seed: 1, Epochs: 100})
	if err != nil {
		t.Fatal(err)
	}
	// The learned model can drive selection end to end.
	sel, err := s.SelectViews(res.Model, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Views) == 0 {
		t.Error("learned model selected nothing")
	}
	if !strings.Contains(sel.Model, "learned") {
		t.Errorf("selection model = %q", sel.Model)
	}
	// The learned selection must be materializable like any other.
	if _, err := s.Materialize(sel); err != nil {
		t.Fatal(err)
	}
	if s.Catalog.AddedTriples() <= 0 {
		t.Error("learned selection materialized nothing")
	}
}

func TestNewWithOptionsWorkers(t *testing.T) {
	g, f, err := datasets.BuildWithFacet("dbpedia", 15, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions(g, f, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Workers != 3 {
		t.Errorf("Workers = %d, want 3", s.Workers)
	}
	// Default options resolve to at least one worker.
	if d := sys(t); d.Workers < 1 {
		t.Errorf("default Workers = %d", d.Workers)
	}
	// The workload report carries the parallelism it ran with.
	w, err := s.GenerateWorkload(workload.Config{Size: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 3 {
		t.Errorf("report Workers = %d, want 3", rep.Workers)
	}
}

func TestSystemRefresh(t *testing.T) {
	s := sys(t)
	models, err := s.AnalyticModels(1)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := s.SelectViews(models[2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Materialize(sel); err != nil {
		t.Fatal(err)
	}
	// No mutation: nothing to refresh.
	if n, err := s.Catalog.RefreshAllParallel(s.Workers); err != nil || n != 0 {
		t.Fatalf("refresh on fresh views: n=%d err=%v", n, err)
	}
	// Mutate the base through the catalog, then refresh the stale views.
	ts := s.Graph.SortedTriples()
	if d, err := s.ApplyUpdate(nil, ts[:1]); err != nil || len(d.Deleted) != 1 {
		t.Fatalf("delete = %+v, %v", d, err)
	}
	n, err := s.Catalog.RefreshAllParallel(s.Workers)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("no views refreshed after base mutation")
	}
	if len(s.Catalog.StaleViews()) != 0 {
		t.Error("stale views remain after Refresh")
	}
}

// TestReplayRecordAtOrBelowVersionIsGap: recovery and a replica both read
// the log from past the version they hold, so replaying a record the graph
// already covers means divergence: it fails with the version-gap error and
// leaves the generation and version where they were.
func TestReplayRecordAtOrBelowVersionIsGap(t *testing.T) {
	s := sys(t)
	var recs []*persist.Record
	for i, tag := range []string{"first", "second"} {
		d, err := s.ApplyUpdate(obsBatch(tag, int64(i+1)), nil)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, &persist.Record{
			FromVersion: d.FromVersion, ToVersion: d.ToVersion,
			Generation: s.Generation(), Inserts: d.Inserted,
		})
	}
	gen, ver := s.Generation(), s.GraphVersion()
	for _, rec := range recs { // ToVersion below, then equal to, the graph's
		stats := &RecoveryStats{}
		err := ReplayRecord(s, rec, stats)
		if err == nil || !strings.Contains(err.Error(), "wal gap") {
			t.Fatalf("replaying %d→%d at version %d: err = %v, want a wal gap", rec.FromVersion, rec.ToVersion, ver, err)
		}
		if s.Generation() != gen || s.GraphVersion() != ver || *stats != (RecoveryStats{}) {
			t.Fatalf("failed replay moved state: generation %d→%d, version %d→%d, stats %+v",
				gen, s.Generation(), ver, s.GraphVersion(), stats)
		}
	}
}
