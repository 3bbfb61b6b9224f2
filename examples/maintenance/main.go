// Maintenance scenario: materialized views must track a living knowledge
// graph. This example materializes a view, mutates the base graph through
// the catalog, shows the stale view returning outdated aggregates, and then
// refreshes it incrementally.
//
//	go run ./examples/maintenance
package main

import (
	"fmt"
	"log"

	"sofos/internal/benchkit"
	"sofos/internal/core"
	"sofos/internal/datasets"
	"sofos/internal/facet"
	"sofos/internal/rdf"
)

func main() {
	g, f, err := datasets.BuildWithFacet("dbpedia", 25, 7)
	if err != nil {
		log.Fatal(err)
	}
	system, err := core.New(g, f)
	if err != nil {
		log.Fatal(err)
	}
	v := f.View(f.FullMask())
	if _, err := system.Catalog.Materialize(v); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("materialized %s against a %d-triple graph\n\n", v.ID(), g.Len())

	langQ := f.View(mustMask(f, "lang")).AnalyticalQuery()
	ans, err := system.Answer(langQ)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("languages before update: %d (via %s, %s)\n",
		len(ans.Result.Rows), ans.ViaLabel(), benchkit.FmtDuration(ans.Elapsed))

	// A new country starts reporting Esperanto speakers.
	dbp := func(l string) rdf.Term { return rdf.NewIRI("http://dbpedia.org/property/" + l) }
	res := func(l string) rdf.Term { return rdf.NewIRI("http://dbpedia.org/resource/" + l) }
	newTriples := []rdf.Triple{
		{S: res("Esperantujo"), P: dbp("name"), O: rdf.NewLiteral("Esperantujo")},
		{S: res("Esperantujo"), P: dbp("continent"), O: rdf.NewLiteral("Europe")},
		{S: res("obsEo"), P: dbp("country"), O: res("Esperantujo")},
		{S: res("obsEo"), P: dbp("language"), O: rdf.NewLiteral("Esperanto")},
		{S: res("obsEo"), P: dbp("year"), O: rdf.NewYear(2019)},
		{S: res("obsEo"), P: dbp("population"), O: rdf.NewInteger(2_000_000)},
	}
	if _, err := system.Catalog.ApplyUpdate(newTriples, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninserted %d triples; stale views: %v\n", len(newTriples), viewIDs(system))

	// The stale view misses the new language.
	ans, err = system.Answer(langQ)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("languages via STALE view:  %d  <- the hazard the demo warns about\n",
		len(ans.Result.Rows))

	// The refresh replays the batch's delta onto the stored groups, not a
	// full rebuild.
	n, err := system.Catalog.RefreshAllParallel(system.Workers)
	if err != nil {
		log.Fatal(err)
	}
	ans, err = system.Answer(langQ)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("refreshed %d view(s); languages now: %d (via %s, %s)\n",
		n, len(ans.Result.Rows), ans.ViaLabel(), benchkit.FmtDuration(ans.Elapsed))

	// Cross-check against the base graph.
	base, err := system.Catalog.BaseEngine().Execute(langQ)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("base graph agrees: %v\n", len(base.Rows) == len(ans.Result.Rows))
}

// mustMask resolves dimension names to a mask.
func mustMask(f *facet.Facet, dims ...string) facet.Mask {
	v, err := f.ViewByDims(dims...)
	if err != nil {
		log.Fatal(err)
	}
	return v.Mask
}

// viewIDs lists stale view IDs.
func viewIDs(s *core.System) []string {
	var out []string
	for _, v := range s.Catalog.StaleViews() {
		out = append(out, v.ID())
	}
	return out
}
