package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sofos/internal/cost"
	"sofos/internal/datasets"
	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/selection"
	"sofos/internal/sparql"
	"sofos/internal/store"
	"sofos/internal/views"
	"sofos/internal/workload"
)

// TestIntegrationViewAnswersEqualBase is the system's central invariant run
// end-to-end across all three datasets: for every cost model's selection and
// a random workload, every query answered through a materialized view must
// produce exactly the rows the base graph produces. SWDF exercises AVG
// roll-ups; LUBM exercises COUNT; DBpedia exercises SUM over 4 dimensions.
func TestIntegrationViewAnswersEqualBase(t *testing.T) {
	scales := map[string]int{"lubm": 1, "dbpedia": 12, "swdf": 3}
	for _, spec := range datasets.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g, f, err := datasets.BuildWithFacet(spec.Name, scales[spec.Name], 11)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(g, f)
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.GenerateWorkload(workload.Config{Size: 15, Seed: 77, FilterProb: 0.4})
			if err != nil {
				t.Fatal(err)
			}
			models, err := s.AnalyticModels(5)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range models {
				sel, err := s.SelectViews(m, 3)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Materialize(sel); err != nil {
					t.Fatal(err)
				}
				for qi, q := range w.Queries {
					ans, err := s.Answer(q.Parsed)
					if err != nil {
						t.Fatalf("%s query %d: %v", m.Name(), qi, err)
					}
					base, err := s.Catalog.BaseEngine().Execute(q.Parsed)
					if err != nil {
						t.Fatal(err)
					}
					if !rowsEqual(sortedRows(ans.Result), sortedRows(base), f) {
						t.Errorf("%s query %d via %s diverges\nquery: %s\nview: %v\nbase: %v",
							m.Name(), qi, ans.ViaLabel(), q.Text,
							sortedRows(ans.Result), sortedRows(base))
					}
				}
				s.Reset()
			}
		})
	}
}

// rowsEqual compares canonical rows; AVG facets get numeric-tolerant
// comparison of the aggregate column.
func rowsEqual(a, b []string, f *facet.Facet) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		// Tolerate decimal formatting differences: compare numeric suffixes.
		av, bv := numericTail(a[i]), numericTail(b[i])
		if av == "" || av != bv {
			// Full numeric comparison with epsilon.
			var fa, fb float64
			if _, err := fmt.Sscanf(av, "%f", &fa); err != nil {
				return false
			}
			if _, err := fmt.Sscanf(bv, "%f", &fb); err != nil {
				return false
			}
			if diff := fa - fb; diff > 1e-6 || diff < -1e-6 {
				return false
			}
		}
	}
	return true
}

// numericTail extracts the lexical form of the last literal in a row.
func numericTail(row string) string {
	i := strings.LastIndexByte(row, '"')
	if i < 0 {
		return ""
	}
	j := strings.LastIndexByte(row[:i], '"')
	if j < 0 {
		return ""
	}
	return row[j+1 : i]
}

// TestIntegrationMaintenanceEndToEnd mutates the base graph after
// materialization and checks the full stale→refresh→correct-answers cycle
// through the public facade.
func TestIntegrationMaintenanceEndToEnd(t *testing.T) {
	g, f, err := datasets.BuildWithFacet("dbpedia", 10, 13)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, f)
	if err != nil {
		t.Fatal(err)
	}
	v := f.View(f.FullMask())
	if _, err := s.Catalog.Materialize(v); err != nil {
		t.Fatal(err)
	}
	q := f.View(facet.Mask(0b100)).AnalyticalQuery() // per-language

	before, err := s.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !before.UsedView() {
		t.Fatalf("not view-answered: %s", before.Reason)
	}

	// Insert a new observation for a fresh country speaking Esperanto.
	dbp := func(l string) rdf.Term { return rdf.NewIRI("http://dbpedia.org/property/" + l) }
	res := func(l string) rdf.Term { return rdf.NewIRI("http://dbpedia.org/resource/" + l) }
	newTriples := []rdf.Triple{
		{S: res("CountryX"), P: dbp("name"), O: rdf.NewLiteral("CountryX")},
		{S: res("CountryX"), P: dbp("continent"), O: rdf.NewLiteral("Europe")},
		{S: res("obsX"), P: dbp("country"), O: res("CountryX")},
		{S: res("obsX"), P: dbp("language"), O: rdf.NewLiteral("Esperanto")},
		{S: res("obsX"), P: dbp("year"), O: rdf.NewYear(2019)},
		{S: res("obsX"), P: dbp("population"), O: rdf.NewInteger(1000)},
	}
	if _, err := s.ApplyUpdate(newTriples, nil); err != nil {
		t.Fatal(err)
	}
	if len(s.Catalog.StaleViews()) != 1 {
		t.Fatalf("stale views = %v", s.Catalog.StaleViews())
	}

	// A stale view gives the old (now wrong) answer — the hazard.
	stale, err := s.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	foundEsperanto := false
	for _, row := range stale.Result.Rows {
		if row[0].Term.Value == "Esperanto" {
			foundEsperanto = true
		}
	}
	if foundEsperanto {
		t.Fatal("stale view already contains the new language?")
	}

	// Refresh and re-answer: the new language appears and matches base.
	if _, err := s.Catalog.RefreshAllParallel(s.Workers); err != nil {
		t.Fatal(err)
	}
	after, err := s.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !after.UsedView() {
		t.Fatalf("refresh broke view answering: %s", after.Reason)
	}
	base, err := s.Catalog.BaseEngine().Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedRows(after.Result), sortedRows(base)) {
		t.Errorf("after refresh:\nview: %v\nbase: %v", sortedRows(after.Result), sortedRows(base))
	}
	foundEsperanto = false
	for _, row := range after.Result.Rows {
		if row[0].Term.Value == "Esperanto" {
			foundEsperanto = true
		}
	}
	if !foundEsperanto {
		t.Error("refreshed view missing the new language")
	}
}

// TestIntegrationUserSelectionFlow reproduces the demo's "User Selected
// Views" walk: a manual pick, materialization, and the space/time numbers
// the GUI would contrast.
func TestIntegrationUserSelectionFlow(t *testing.T) {
	g, f, err := datasets.BuildWithFacet("swdf", 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, f)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Provider()
	if err != nil {
		t.Fatal(err)
	}
	chosen := []facet.View{}
	for _, dims := range [][]string{{"series", "year"}, {"country"}} {
		v, err := f.ViewByDims(dims...)
		if err != nil {
			t.Fatal(err)
		}
		chosen = append(chosen, v)
	}
	um := &cost.UserModel{Label: "user", Costs: map[facet.Mask]float64{}, BaseC: 1}
	for _, v := range chosen {
		um.Costs[v.Mask] = 0
	}
	sel := selection.Manual(s.Lattice, &cost.AggValuesModel{Provider: p}, chosen)
	if _, err := s.Materialize(sel); err != nil {
		t.Fatal(err)
	}
	if s.Catalog.StorageAmplification() <= 1 {
		t.Error("no amplification after manual materialization")
	}
	w, err := s.GenerateWorkload(workload.Config{Size: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HitRate() == 0 {
		t.Error("manual views answered nothing")
	}
	// The user model drives greedy to the same set.
	gsel, err := s.SelectViews(um, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(gsel.Views) != 2 {
		t.Errorf("user-model greedy picked %v", gsel.Views)
	}
}

// TestIntegrationSnapshotPersistence saves a generated dataset, reloads it,
// and verifies the whole pipeline works identically on the reloaded graph.
func TestIntegrationSnapshotPersistence(t *testing.T) {
	g, f, err := datasets.BuildWithFacet("lubm", 1, 19)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	bw := &byteWriter{&buf}
	if err := g.Save(bw); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadFromString(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(g, f)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(loaded, f)
	if err != nil {
		t.Fatal(err)
	}
	q := f.View(facet.Mask(0b100)).AnalyticalQuery()
	r1, err := s1.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedRows(r1.Result), sortedRows(r2.Result)) {
		t.Error("reloaded graph answers differently")
	}
}

// byteWriter adapts strings.Builder to io.Writer (it already is one, but the
// indirection keeps the test dependency-free).
type byteWriter struct{ b *strings.Builder }

func (w *byteWriter) Write(p []byte) (int, error) { return w.b.Write(p) }

func loadFromString(s string) (*store.Graph, error) {
	return store.Load(strings.NewReader(s))
}

// sortedRows renders the rows and sorts them: a canonical form for
// comparing results.
func sortedRows(r *engine.Result) []string {
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "\t"))
	}
	sort.Strings(out)
	return out
}

// viewTriples lists the view graph V of c, read through its engine, in a
// canonical order.
func viewTriples(t *testing.T, c *views.Catalog) []string {
	t.Helper()
	res, err := c.ExpandedEngine().Execute(sparql.MustParse(`SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`))
	if err != nil {
		t.Fatal(err)
	}
	return sortedRows(res)
}
