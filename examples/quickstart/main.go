// Quickstart: build the paper's Figure 1 knowledge graph by hand, define the
// population facet, materialize a view, and answer an analytical query both
// from the base graph and through the view.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"sofos/internal/core"
	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

func main() {
	// 1. The knowledge graph of Figure 1: countries with languages,
	//    populations, years, and part-of relations.
	turtle := `
@prefix ex: <http://ex.org/> .
ex:france  ex:name "France"  ; ex:language "French"  ; ex:population 67000000 ; ex:year 2019 ; ex:partOf ex:eu .
ex:germany ex:name "Germany" ; ex:language "German"  ; ex:population 82000000 ; ex:year 2019 ; ex:partOf ex:eu .
ex:italy   ex:name "Italy"   ; ex:language "Italian" ; ex:population 60000000 ; ex:year 2019 ; ex:partOf ex:eu .
ex:canada  ex:name "Canada"  ; ex:language "French", "English" ; ex:population 37000000 ; ex:year 2019 .
`
	triples, err := rdf.ParseString(turtle)
	if err != nil {
		log.Fatal(err)
	}
	g := store.NewGraph()
	if _, err := g.LoadTriples(triples); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d triples\n", g.Len())

	// 2. The analytical facet F = ⟨{name, language, year}, P, SUM(pop)⟩.
	template := sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT ?name ?lang ?year (SUM(?pop) AS ?total) WHERE {
  ?c ex:name ?name .
  ?c ex:language ?lang .
  ?c ex:year ?year .
  ?c ex:population ?pop .
} GROUP BY ?name ?lang ?year`)
	f, err := facet.FromQuery("population", template)
	if err != nil {
		log.Fatal(err)
	}
	system, err := core.New(g, f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("facet: %s\nlattice: %d views\n\n", f, system.Lattice.Size())

	// 3. Materialize the language-level view (one aggregate per language).
	langView, err := f.ViewByDims("lang")
	if err != nil {
		log.Fatal(err)
	}
	mat, err := system.Catalog.Materialize(langView)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("materialized %s: a table of %d groups, whose encoding adds %d triples to G+\n\n",
		langView.ID(), mat.Data.NumGroups(), mat.Triples)

	// 4. Example 1.1: "what is the total French-speaking population?"
	query := `PREFIX ex: <http://ex.org/>
SELECT (SUM(?pop) AS ?total) WHERE {
  ?c ex:name ?name .
  ?c ex:language ?lang .
  ?c ex:year ?year .
  ?c ex:population ?pop .
  FILTER (?lang = "French")
}`
	ans, err := system.AnswerString(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("French-speaking population: %s (answered via %s in %s)\n",
		ans.Result.Rows[0][0], ans.ViaLabel(), ans.Elapsed)
	if ans.Rewritten != nil {
		fmt.Printf("\nthe query was rewritten to this star join over the view encoding in G+,\nanswered from the view's group table:\n%s\n", ans.Rewritten)
	}

	// 5. The same query without views, for comparison.
	system.Reset()
	ans, err = system.AnswerString(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwithout views: %s (answered via %s in %s)\n",
		ans.Result.Rows[0][0], ans.ViaLabel(), ans.Elapsed)
}
