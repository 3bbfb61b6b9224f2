package rewrite_test

import (
	"fmt"

	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/rewrite"
	"sofos/internal/sparql"
	"sofos/internal/store"
	"sofos/internal/views"
)

// ExampleRewriter_Answer materializes one view of a sales facet and shows
// the online module answering a coarser query from it — the stored per
// (region, year) sums are re-aggregated to per-region granularity — and
// falling back to the base graph for a query the view cannot serve.
func ExampleRewriter_Answer() {
	// A tiny sales graph: each sale has a region, a year, and an amount.
	var ts []rdf.Triple
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	for i, sale := range []struct {
		region string
		year   int
		amount int64
	}{
		{"east", 2023, 10}, {"east", 2024, 20},
		{"west", 2023, 5}, {"west", 2024, 40},
	} {
		s := ex(fmt.Sprintf("sale%d", i))
		ts = append(ts, rdf.Triple{S: s, P: ex("region"), O: rdf.NewLiteral(sale.region)})
		ts = append(ts, rdf.Triple{S: s, P: ex("year"), O: rdf.NewYear(sale.year)})
		ts = append(ts, rdf.Triple{S: s, P: ex("amount"), O: rdf.NewInteger(sale.amount)})
	}

	g, err := store.BuildFrom(ts)
	if err != nil {
		panic(err)
	}
	// The facet: SUM(?amount) by (?region, ?year).
	template := sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT ?region ?year (SUM(?amount) AS ?total) WHERE {
  ?s ex:region ?region .
  ?s ex:year ?year .
  ?s ex:amount ?amount .
} GROUP BY ?region ?year`)
	f, err := facet.FromQuery("sales", template)
	if err != nil {
		panic(err)
	}

	// Materialize the (region, year) view into G+ and build the rewriter.
	catalog := views.NewCatalog(g, f)
	v, _ := f.ViewByDims("region", "year")
	if _, err := catalog.Materialize(v); err != nil {
		panic(err)
	}
	rw := rewrite.New(catalog)

	// A coarser query: per-region totals. The rewriter answers it from the
	// materialized view by summing the stored per-(region, year) values.
	ans, err := rw.Answer(sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT ?region (SUM(?amount) AS ?total) WHERE {
  ?s ex:region ?region .
  ?s ex:year ?year .
  ?s ex:amount ?amount .
} GROUP BY ?region ORDER BY ?region`))
	if err != nil {
		panic(err)
	}
	fmt.Println("answered via:", ans.ViaLabel())
	for _, row := range ans.Result.Rows {
		fmt.Printf("%s: %s\n", row[0].Term.Value, row[1].Term.Value)
	}

	// A counting query does not match the facet's SUM aggregate, so the
	// rewriter falls back to the base graph and says why.
	ans, err = rw.Answer(sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT (COUNT(DISTINCT ?region) AS ?n) WHERE {
  ?s ex:region ?region .
  ?s ex:year ?year .
  ?s ex:amount ?amount .
}`))
	if err != nil {
		panic(err)
	}
	fmt.Println("answered via:", ans.ViaLabel())
	fmt.Println("reason:", ans.Reason)

	// Output:
	// answered via: region+year
	// east: 30
	// west: 45
	// answered via: base
	// reason: aggregate COUNT differs from facet SUM
}
