package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/rewrite"
	"sofos/internal/sparql"
	"sofos/internal/store"
	"sofos/internal/views"
)

func fixture(t testing.TB) (*store.Graph, *facet.Facet) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	var ts []rdf.Triple
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	for ci := 0; ci < 5; ci++ {
		for li := 0; li < 3; li++ {
			for yi := 0; yi < 2; yi++ {
				obs := ex(fmt.Sprintf("o%d%d%d", ci, li, yi))
				ts = append(ts, rdf.Triple{S: obs, P: ex("country"), O: rdf.NewLiteral(fmt.Sprintf("C%d", ci))})
				ts = append(ts, rdf.Triple{S: obs, P: ex("lang"), O: rdf.NewLiteral(fmt.Sprintf("L%d", li))})
				ts = append(ts, rdf.Triple{S: obs, P: ex("year"), O: rdf.NewYear(2018 + yi)})
				ts = append(ts, rdf.Triple{S: obs, P: ex("pop"), O: rdf.NewInteger(int64(rng.Intn(100) + 1))})
			}
		}
	}
	g, err := store.BuildFrom(ts)
	if err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT ?country ?lang ?year (SUM(?pop) AS ?a) WHERE {
  ?o ex:country ?country . ?o ex:lang ?lang . ?o ex:year ?year . ?o ex:pop ?pop .
} GROUP BY ?country ?lang ?year`)
	f, err := facet.FromQuery("pop", q)
	if err != nil {
		t.Fatal(err)
	}
	return g, f
}

func TestDimensionDomains(t *testing.T) {
	g, f := fixture(t)
	domains, err := DimensionDomains(g, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(domains["country"]) != 5 || len(domains["lang"]) != 3 || len(domains["year"]) != 2 {
		t.Errorf("domain sizes: %d %d %d", len(domains["country"]), len(domains["lang"]), len(domains["year"]))
	}
	// Sorted and deterministic.
	if domains["country"][0].Value != "C0" {
		t.Errorf("domain not sorted: %v", domains["country"][0])
	}
}

func TestGenerateReproducible(t *testing.T) {
	g, f := fixture(t)
	a, err := Generate(g, f, Config{Size: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(g, f, Config{Size: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Queries) != 15 {
		t.Fatalf("generated %d queries", len(a.Queries))
	}
	for i := range a.Queries {
		if a.Queries[i].Text != b.Queries[i].Text {
			t.Errorf("query %d differs under same seed", i)
		}
	}
	c, err := Generate(g, f, Config{Size: 15, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Queries {
		if a.Queries[i].Text != c.Queries[i].Text {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGeneratedQueriesAreValidAndParseable(t *testing.T) {
	g, f := fixture(t)
	w, err := Generate(g, f, Config{Size: 40, Seed: 3, FilterProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range w.Queries {
		if err := q.Parsed.Validate(); err != nil {
			t.Errorf("query %d invalid: %v", i, err)
		}
		reparsed, err := sparql.Parse(q.Text)
		if err != nil {
			t.Errorf("query %d text does not re-parse: %v\n%s", i, err, q.Text)
			continue
		}
		if reparsed.String() != q.Text {
			t.Errorf("query %d text not canonical", i)
		}
	}
}

func TestGeneratedQueriesExecutable(t *testing.T) {
	g, f := fixture(t)
	w, err := Generate(g, f, Config{Size: 30, Seed: 11, FilterProb: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	c := views.NewCatalog(g, f)
	if _, err := c.Materialize(f.View(f.FullMask())); err != nil {
		t.Fatal(err)
	}
	rw := rewrite.New(c)
	viewAnswered := 0
	for i, q := range w.Queries {
		ans, err := rw.Answer(q.Parsed)
		if err != nil {
			t.Fatalf("query %d: %v\n%s", i, err, q.Text)
		}
		if ans.UsedView() {
			viewAnswered++
		}
		// Every workload query targets the facet, so with the full view
		// materialized every one must be view-answerable.
		if !ans.UsedView() {
			t.Errorf("query %d fell back: %s\n%s", i, ans.Reason, q.Text)
		}
		base, err := c.BaseEngine().Execute(q.Parsed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedRows(ans.Result), sortedRows(base)) {
			t.Errorf("query %d: view answer differs from base\n%s", i, q.Text)
		}
	}
	if viewAnswered != len(w.Queries) {
		t.Errorf("only %d/%d queries view-answered", viewAnswered, len(w.Queries))
	}
}

func TestGeneratedMasksConsistent(t *testing.T) {
	g, f := fixture(t)
	w, err := Generate(g, f, Config{Size: 50, Seed: 13, FilterProb: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	sawFilter := false
	for i, q := range w.Queries {
		// GroupMask matches the parsed GROUP BY.
		var mask facet.Mask
		for _, v := range q.Parsed.GroupBy {
			mask |= 1 << f.DimIndex(v)
		}
		if mask != q.GroupMask {
			t.Errorf("query %d: group mask %b != parsed %b", i, q.GroupMask, mask)
		}
		// FilterMask matches the parsed filters.
		var fmask facet.Mask
		for _, fe := range q.Parsed.Where.Filters {
			for _, v := range sparql.ExprVars(fe) {
				fmask |= 1 << f.DimIndex(v)
			}
		}
		if fmask != q.FilterMask {
			t.Errorf("query %d: filter mask %b != parsed %b", i, q.FilterMask, fmask)
		}
		if q.FilterMask != 0 {
			sawFilter = true
		}
	}
	if !sawFilter {
		t.Error("no query got a filter at FilterProb=0.6")
	}
}

func TestSummarize(t *testing.T) {
	g, f := fixture(t)
	w, err := Generate(g, f, Config{Size: 25, Seed: 17, FilterProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Summarize()
	if st.Queries != 25 {
		t.Errorf("Queries = %d", st.Queries)
	}
	total := 0
	for _, n := range st.GroupLevelHistogram {
		total += n
	}
	if total != 25 {
		t.Errorf("histogram sums to %d", total)
	}
	if st.WithFilters == 0 {
		t.Error("no filtered queries recorded")
	}
}

func TestGenerateWithValuesClauses(t *testing.T) {
	g, f := fixture(t)
	w, err := Generate(g, f, Config{Size: 40, Seed: 23, FilterProb: 0.6, ValuesProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sawValues := false
	c := views.NewCatalog(g, f)
	if _, err := c.Materialize(f.View(f.FullMask())); err != nil {
		t.Fatal(err)
	}
	rw := rewrite.New(c)
	for i, q := range w.Queries {
		if len(q.Parsed.Where.Values) > 0 {
			sawValues = true
			// VALUES dims must be reflected in the filter mask.
			for _, d := range q.Parsed.Where.Values {
				if q.FilterMask&(1<<f.DimIndex(d.Var)) == 0 {
					t.Errorf("query %d: VALUES dim ?%s missing from filter mask", i, d.Var)
				}
			}
		}
		// Correctness end to end: view answer equals base answer.
		ans, err := rw.Answer(q.Parsed)
		if err != nil {
			t.Fatalf("query %d: %v\n%s", i, err, q.Text)
		}
		base, err := c.BaseEngine().Execute(q.Parsed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedRows(ans.Result), sortedRows(base)) {
			t.Errorf("query %d diverges:\n%s", i, q.Text)
		}
	}
	if !sawValues {
		t.Error("no VALUES clauses generated at ValuesProb=0.5")
	}
}

func TestGenerateDefaults(t *testing.T) {
	g, f := fixture(t)
	w, err := Generate(g, f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 20 {
		t.Errorf("default size = %d", len(w.Queries))
	}
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
