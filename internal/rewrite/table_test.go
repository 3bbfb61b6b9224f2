package rewrite

import (
	"fmt"
	"reflect"
	"testing"

	"sofos/internal/algebra"
	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
	"sofos/internal/views"
)

// The group-table evaluator against the star join over V and the base graph
// on the edges of the star join's semantics. Where the star join and the
// base graph disagree (a group the encoding cannot express), the table must
// side with the star join.

const popPattern = `?o ex:country ?country .
  ?o ex:lang ?lang .
  ?o ex:year ?year .
  ?o ex:pop ?pop .`

// popQuery parses a query over the fixture's facet pattern; body is spliced
// into the WHERE clause after the pattern and tail follows it.
func popQuery(t *testing.T, sel, body, tail string) *sparql.Query {
	t.Helper()
	src := fmt.Sprintf("PREFIX ex: <http://ex.org/>\nSELECT %s WHERE {\n  %s\n  %s\n} %s", sel, popPattern, body, tail)
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	return q
}

// materializeFull materializes the fixture facet's finest view.
func materializeFull(t *testing.T, f *facet.Facet, c *views.Catalog) {
	t.Helper()
	if _, err := c.Materialize(f.View(f.FullMask())); err != nil {
		t.Fatal(err)
	}
}

// baseResult is q's answer on the base graph.
func baseResult(t *testing.T, c *views.Catalog, q *sparql.Query) []string {
	t.Helper()
	res, err := c.BaseEngine().Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.OrderBy) > 0 {
		return rowStrings(res)
	}
	return res.Sorted()
}

// tableResult is the table answer's rows in the form baseResult uses.
func tableResult(q *sparql.Query, a *Answer) []string {
	if len(q.OrderBy) > 0 {
		return rowStrings(a.Result)
	}
	return a.Result.Sorted()
}

func TestTableEmptyNoGroupByRow(t *testing.T) {
	// A query without GROUP BY whose filter keeps no group still returns
	// one row: the value of an empty accumulator, as the engine answers an
	// empty solution sequence.
	want := map[string]algebra.Value{
		"SUM": algebra.Bind(rdf.NewInteger(0)), "COUNT": algebra.Bind(rdf.NewInteger(0)),
		"AVG": algebra.Unbound, "MIN": algebra.Unbound, "MAX": algebra.Unbound,
	}
	for agg, v := range want {
		t.Run(agg, func(t *testing.T) {
			_, f, c := fixture(t, agg)
			materializeFull(t, f, c)
			q := facetQuery(t, agg, nil, `?year > 3000`)
			a := answerBothWays(t, New(c), q, agg)
			if len(a.Result.Rows) != 1 || a.Result.Rows[0][0] != v {
				t.Errorf("rows = %v, want one row holding %v", a.Result.Rows, v)
			}
			if got := baseResult(t, c, q); !reflect.DeepEqual(tableResult(q, a), got) {
				t.Errorf("table %v, base %v", tableResult(q, a), got)
			}
		})
	}
}

func TestTableUnboundRequiredDimension(t *testing.T) {
	// An OPTIONAL dimension leaves some groups with an unbound key value.
	// Such a group has no sofos:d_lang triple, so the star join drops it
	// from every query that needs lang, and keeps it in the others.
	g := store.NewGraph()
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	for i := 0; i < 12; i++ {
		o := ex(fmt.Sprintf("o%d", i))
		g.MustAdd(rdf.Triple{S: o, P: ex("country"), O: rdf.NewLiteral(fmt.Sprintf("C%d", i%3))})
		g.MustAdd(rdf.Triple{S: o, P: ex("pop"), O: rdf.NewInteger(int64(10 + i))})
		if i%4 != 0 {
			g.MustAdd(rdf.Triple{S: o, P: ex("lang"), O: rdf.NewLiteral(fmt.Sprintf("L%d", i%2))})
		}
	}
	pattern := `?o ex:country ?country . ?o ex:pop ?pop . OPTIONAL { ?o ex:lang ?lang }`
	f, err := facet.FromQuery("pop", sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT ?country ?lang (SUM(?pop) AS ?a) WHERE { `+pattern+` } GROUP BY ?country ?lang`))
	if err != nil {
		t.Fatal(err)
	}
	c := views.NewCatalog(g, f)
	materializeFull(t, f, c)
	r := New(c)
	byCountry := sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT ?country (SUM(?pop) AS ?a) WHERE { ` + pattern + ` } GROUP BY ?country`)
	a := answerBothWays(t, r, byCountry, "by country")
	if got := baseResult(t, c, byCountry); !reflect.DeepEqual(tableResult(byCountry, a), got) {
		t.Errorf("by country: table %v, base %v", tableResult(byCountry, a), got)
	}
	byLang := sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT ?lang (SUM(?pop) AS ?a) WHERE { ` + pattern + ` } GROUP BY ?lang`)
	a = answerBothWays(t, r, byLang, "by lang")
	// The base graph also answers the observations without a language, in
	// one row with an unbound ?lang; the encoding cannot express it.
	base, err := c.BaseEngine().Execute(byLang)
	if err != nil {
		t.Fatal(err)
	}
	var kept [][]algebra.Value
	for _, row := range base.Rows {
		if row[0].Bound {
			kept = append(kept, row)
		}
	}
	if len(kept) != len(base.Rows)-1 {
		t.Fatalf("fixture broken: base rows %v", base.Rows)
	}
	base.Rows = kept
	if !reflect.DeepEqual(a.Result.Sorted(), base.Sorted()) {
		t.Errorf("by lang: table %v, base without the unbound row %v", a.Result.Sorted(), base.Sorted())
	}
}

func TestTableUnboundAggregate(t *testing.T) {
	// A second observation with a non-numeric measure poisons one finest
	// group's SUM: the group has no sofos:agg triple, so the star join
	// drops it, and queries that do not reach it agree with the base graph.
	g, f, c := fixture(t, "SUM")
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	o := ex("obsNaN")
	g.MustAdd(rdf.Triple{S: o, P: ex("country"), O: rdf.NewLiteral("C0")})
	g.MustAdd(rdf.Triple{S: o, P: ex("lang"), O: rdf.NewLiteral("L1")})
	g.MustAdd(rdf.Triple{S: o, P: ex("year"), O: rdf.NewYear(2015)})
	g.MustAdd(rdf.Triple{S: o, P: ex("pop"), O: rdf.NewLiteral("n/a")})
	materializeFull(t, f, c)
	r := New(c)

	finest := facetQuery(t, "SUM", []string{"country", "lang", "year"}, "")
	a := answerBothWays(t, r, finest, "finest")
	base, err := c.BaseEngine().Execute(finest)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Result.Rows) != len(base.Rows)-1 {
		t.Errorf("finest: %d table rows, want the base's %d less the poisoned group", len(a.Result.Rows), len(base.Rows))
	}
	for _, row := range a.Result.Rows {
		if row[0].Term.Value == "C0" && row[1].Term.Value == "L1" && row[2].Term.Value == "2015" {
			t.Errorf("poisoned group answered: %v", row)
		}
	}
	// A roll-up over the poisoned group sums the rest, as the star join does.
	answerBothWays(t, r, facetQuery(t, "SUM", []string{"lang"}, ""), "rollup")
	clear := facetQuery(t, "SUM", []string{"lang"}, `?country != "C0"`)
	a = answerBothWays(t, r, clear, "rollup avoiding the poisoned group")
	if got := baseResult(t, c, clear); !reflect.DeepEqual(tableResult(clear, a), got) {
		t.Errorf("table %v, base %v", tableResult(clear, a), got)
	}
}

func TestTableAvgFromSumAndCount(t *testing.T) {
	// An AVG roll-up divides the summed Sum by the summed Count; it is not
	// an average of the stored averages.
	_, f, c := fixture(t, "AVG")
	materializeFull(t, f, c)
	r := New(c)
	for _, dims := range [][]string{{"lang"}, {"country", "year"}, nil} {
		q := facetQuery(t, "AVG", dims, "")
		a := answerBothWays(t, r, q, fmt.Sprint(dims))
		if a.Outcome != "partial_rollup" {
			t.Errorf("%v: outcome %s, want a roll-up", dims, a.Outcome)
		}
		if got := baseResult(t, c, q); !sameRows(tableResult(q, a), got, true) {
			t.Errorf("%v: table %v, base %v", dims, tableResult(q, a), got)
		}
	}
}

func TestTableValues(t *testing.T) {
	// Each VALUES seed row a group matches counts once: a repeated term
	// doubles the group's SUM and COUNT contributions, an absent term
	// matches nothing, and a later clause on a variable overwrites an
	// earlier one once per earlier row.
	cases := []string{
		`VALUES ?lang { "L0" "L2" }`,
		`VALUES ?lang { "L0" "L0" "L2" "Lnone" }`,
		`VALUES ?lang { "L0" "L1" } VALUES ?lang { "L2" }`,
		`VALUES ?lang { "L1" } VALUES ?year { 2016 2017 }`,
		`VALUES ?lang { "Lnone" }`,
	}
	for _, agg := range []string{"SUM", "COUNT", "AVG", "MAX"} {
		_, f, c := fixture(t, agg)
		materializeFull(t, f, c)
		r := New(c)
		for _, values := range cases {
			for _, tail := range []string{"GROUP BY ?country", ""} {
				sel := fmt.Sprintf("(%s(?pop) AS ?a)", agg)
				if tail != "" {
					sel = "?country " + sel
				}
				q := popQuery(t, sel, values, tail)
				label := fmt.Sprintf("%s %s %s", agg, values, tail)
				a := answerBothWays(t, r, q, label)
				if got := baseResult(t, c, q); !sameRows(tableResult(q, a), got, agg == "AVG") {
					t.Errorf("%s: table %v, base %v", label, tableResult(q, a), got)
				}
			}
		}
	}
}

func TestTableSolutionModifiers(t *testing.T) {
	// HAVING, DISTINCT, ORDER BY and LIMIT/OFFSET run after re-aggregation;
	// ORDER BY is total here, so the rows compare in order.
	cases := []struct{ agg, sel, body, tail string }{
		{"SUM", "?lang (SUM(?pop) AS ?a)", "", "GROUP BY ?lang HAVING (?a > 100) ORDER BY DESC(?a) ?lang LIMIT 2 OFFSET 1"},
		{"COUNT", "?country ?year (COUNT(?pop) AS ?a)", `FILTER (?lang != "L2")`, "GROUP BY ?country ?year ORDER BY ?country DESC(?year) OFFSET 3"},
		{"MAX", "DISTINCT ?lang (MAX(?pop) AS ?a)", "", "GROUP BY ?lang ?year"},
		{"MIN", "DISTINCT ?year (MIN(?pop) AS ?a)", "", "GROUP BY ?year ?lang HAVING (?a < 400) ORDER BY ?a ?year LIMIT 4"},
		{"AVG", "?country (AVG(?pop) AS ?a)", "", "GROUP BY ?country HAVING (?a > 200) ORDER BY ?country"},
	}
	for _, tc := range cases {
		_, f, c := fixture(t, tc.agg)
		materializeFull(t, f, c)
		q := popQuery(t, tc.sel, tc.body, tc.tail)
		label := tc.sel + " " + tc.tail
		a := answerBothWays(t, New(c), q, label)
		if got := baseResult(t, c, q); !sameRows(tableResult(q, a), got, tc.agg == "AVG") {
			t.Errorf("%s: table %v, base %v", label, tableResult(q, a), got)
		}
	}
}

func TestTableStaleViewAnswersCommittedContents(t *testing.T) {
	// A lazy update leaves the view stale; until a refresh it answers with
	// its committed contents, exactly as the star join over V does.
	_, f, c := fixture(t, "SUM")
	materializeFull(t, f, c)
	q := facetQuery(t, "SUM", []string{"country"}, "")
	before := baseResult(t, c, q)
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	o := ex("obsLate")
	if _, err := c.ApplyUpdate([]rdf.Triple{
		{S: o, P: ex("country"), O: rdf.NewLiteral("C1")},
		{S: o, P: ex("lang"), O: rdf.NewLiteral("L1")},
		{S: o, P: ex("year"), O: rdf.NewYear(2016)},
		{S: o, P: ex("pop"), O: rdf.NewInteger(1000)},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if !c.Stale(f.FullMask()) {
		t.Fatal("view not stale after the update")
	}
	a := answerBothWays(t, New(c), q, "stale")
	if got := tableResult(q, a); !reflect.DeepEqual(got, before) {
		t.Errorf("stale view answered %v, want its committed contents %v", got, before)
	}
	if after := baseResult(t, c, q); reflect.DeepEqual(after, before) {
		t.Error("fixture broken: the update did not change the base answer")
	}
}
