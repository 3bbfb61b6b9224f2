package facet

import (
	"strings"
	"testing"

	"sofos/internal/sparql"
)

// popFacet builds the paper's running-example facet: population by
// (country, language, year).
func popFacet(t testing.TB) *Facet {
	t.Helper()
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT ?country ?lang ?year (SUM(?pop) AS ?total) WHERE {
  ?c ex:name ?country .
  ?c ex:language ?lang .
  ?c ex:year ?year .
  ?c ex:population ?pop .
} GROUP BY ?country ?lang ?year`)
	f, err := FromQuery("population", q)
	if err != nil {
		t.Fatalf("FromQuery: %v", err)
	}
	return f
}

func TestFromQuery(t *testing.T) {
	f := popFacet(t)
	if len(f.Dims) != 3 || f.Dims[0] != "country" || f.Dims[2] != "year" {
		t.Errorf("Dims = %v", f.Dims)
	}
	if f.Measure != "pop" || f.Agg != sparql.AggSum {
		t.Errorf("measure/agg = %s/%v", f.Measure, f.Agg)
	}
	if len(f.Pattern.Triples) != 4 {
		t.Errorf("pattern triples = %d", len(f.Pattern.Triples))
	}
	if !strings.Contains(f.String(), "population") {
		t.Errorf("String = %q", f.String())
	}
}

func TestFromQueryErrors(t *testing.T) {
	noAgg := sparql.MustParse(`SELECT ?x WHERE { ?x ?p ?o . }`)
	if _, err := FromQuery("f", noAgg); err == nil {
		t.Error("query without aggregate accepted")
	}
	noGroup := sparql.MustParse(`SELECT (COUNT(?x) AS ?n) WHERE { ?x ?p ?o . }`)
	if _, err := FromQuery("f", noGroup); err == nil {
		t.Error("query without GROUP BY accepted")
	}
	twoAggs := sparql.MustParse(`SELECT ?x (COUNT(?o) AS ?n) (SUM(?o) AS ?s) WHERE { ?x ?p ?o . } GROUP BY ?x`)
	if _, err := FromQuery("f", twoAggs); err == nil {
		t.Error("query with two aggregates accepted")
	}
}

func TestFacetValidate(t *testing.T) {
	base := popFacet(t)
	cases := []struct {
		name   string
		mutate func(*Facet)
	}{
		{"empty name", func(f *Facet) { f.Name = "" }},
		{"no dims", func(f *Facet) { f.Dims = nil }},
		{"too many dims", func(f *Facet) {
			f.Dims = make([]string, MaxDims+1)
			for i := range f.Dims {
				f.Dims[i] = "country"
			}
		}},
		{"missing agg", func(f *Facet) { f.Agg = sparql.AggNone }},
		{"sum without measure", func(f *Facet) { f.Measure = "" }},
		{"dim not in pattern", func(f *Facet) { f.Dims = []string{"ghost"} }},
		{"duplicate dim", func(f *Facet) { f.Dims = []string{"country", "country"} }},
		{"measure is dim", func(f *Facet) { f.Dims = []string{"country", "pop"} }},
		{"measure not in pattern", func(f *Facet) { f.Measure = "ghost" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := *base
			f.Dims = append([]string(nil), base.Dims...)
			tc.mutate(&f)
			if err := f.Validate(); err == nil {
				t.Error("invalid facet accepted")
			}
		})
	}
	// COUNT facets may omit the measure.
	q := sparql.MustParse(`SELECT ?x (COUNT(*) AS ?n) WHERE { ?x <http://p> ?o . } GROUP BY ?x`)
	f, err := FromQuery("count", q)
	if err != nil {
		t.Fatalf("COUNT(*) facet rejected: %v", err)
	}
	if f.Measure != "" {
		t.Errorf("measure = %q", f.Measure)
	}
}

func TestViewDimsAndID(t *testing.T) {
	f := popFacet(t)
	v := f.View(Mask(0b101))
	dims := v.Dims()
	if len(dims) != 2 || dims[0] != "country" || dims[1] != "year" {
		t.Errorf("Dims = %v", dims)
	}
	if v.ID() != "country+year" {
		t.Errorf("ID = %q", v.ID())
	}
	if f.View(0).ID() != "apex" {
		t.Errorf("apex ID = %q", f.View(0).ID())
	}
	if !strings.Contains(v.IRI(), "population/country+year") {
		t.Errorf("IRI = %q", v.IRI())
	}
	if v.Level() != 2 || f.View(0).Level() != 0 {
		t.Error("levels wrong")
	}
}

func TestViewByDims(t *testing.T) {
	f := popFacet(t)
	v, err := f.ViewByDims("lang", "year")
	if err != nil {
		t.Fatal(err)
	}
	if v.Mask != Mask(0b110) {
		t.Errorf("mask = %b", v.Mask)
	}
	if _, err := f.ViewByDims("ghost"); err == nil {
		t.Error("unknown dim accepted")
	}
}

func TestViewCovers(t *testing.T) {
	f := popFacet(t)
	full := f.View(f.FullMask())
	cl := f.View(Mask(0b11))
	c := f.View(Mask(0b1))
	apex := f.View(0)
	if !full.Covers(cl) || !cl.Covers(c) || !c.Covers(apex) || !full.Covers(apex) {
		t.Error("covers chain broken")
	}
	if c.Covers(cl) {
		t.Error("subset view covers superset")
	}
	if !c.Covers(c) {
		t.Error("view does not cover itself")
	}
	other := popFacet(t)
	if full.Covers(other.View(0)) {
		t.Error("covers across facets")
	}
}

func TestViewQuery(t *testing.T) {
	f := popFacet(t)
	v := f.View(Mask(0b10)) // lang only
	q := v.Query()
	if err := q.Validate(); err != nil {
		t.Fatalf("view query invalid: %v", err)
	}
	text := q.String()
	if !strings.Contains(text, "GROUP BY ?lang") {
		t.Errorf("query = %s", text)
	}
	if !strings.Contains(text, "SUM(?pop)") {
		t.Errorf("query = %s", text)
	}
	// The pattern is kept whole: all four triple patterns present.
	if len(q.Where.Triples) != 4 {
		t.Errorf("pattern triples = %d", len(q.Where.Triples))
	}
	// Re-parsable.
	if _, err := sparql.Parse(text); err != nil {
		t.Errorf("view query not parsable: %v\n%s", err, text)
	}
	// Apex query has no GROUP BY.
	apexQ := f.View(0).Query()
	if len(apexQ.GroupBy) != 0 {
		t.Errorf("apex GROUP BY = %v", apexQ.GroupBy)
	}
	if err := apexQ.Validate(); err != nil {
		t.Errorf("apex query invalid: %v", err)
	}
}

func TestViewQueryAvgCarriesSumCount(t *testing.T) {
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT ?x (AVG(?v) AS ?a) WHERE { ?s ex:d ?x . ?s ex:v ?v . } GROUP BY ?x`)
	f, err := FromQuery("avgf", q)
	if err != nil {
		t.Fatal(err)
	}
	vq := f.View(f.FullMask()).Query()
	if len(vq.Aggregates()) != 3 {
		t.Fatalf("AVG view query aggregates = %v", vq.Select)
	}
	text := vq.String()
	if !strings.Contains(text, "AVG(?v)") || !strings.Contains(text, "SUM(?v)") || !strings.Contains(text, "COUNT(?v)") {
		t.Errorf("AVG view query = %s", text)
	}
}

func TestTemplateQueryMatchesTop(t *testing.T) {
	f := popFacet(t)
	if f.TemplateQuery().String() != f.View(f.FullMask()).Query().String() {
		t.Error("TemplateQuery != top view query")
	}
}

func TestDimIndex(t *testing.T) {
	f := popFacet(t)
	if f.DimIndex("lang") != 1 || f.DimIndex("ghost") != -1 {
		t.Error("DimIndex wrong")
	}
}
