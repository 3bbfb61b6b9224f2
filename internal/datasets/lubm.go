package datasets

import (
	"fmt"
	"math/rand"

	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

// LUBM namespace, mirroring the Univ-Bench ontology vocabulary.
const lubmNS = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"

// LUBMSpec returns the LUBM dataset: universities containing departments,
// faculty of three ranks working for departments, and publications authored
// by faculty — the same organization hierarchy and cardinalities as the
// official UBA generator (departments per university, faculty per
// department, publications per rank), scaled by the number of universities.
func LUBMSpec() Spec {
	return Spec{
		Name:         "lubm",
		Description:  "Univ-Bench: universities, departments, faculty, publications",
		DefaultScale: 2,
		Build:        buildLUBM,
		Facet:        lubmFacet,
	}
}

// buildLUBM generates `scale` universities.
func buildLUBM(scale int, seed int64) (*store.Graph, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("datasets: lubm scale %d must be positive", scale)
	}
	rng := rand.New(rand.NewSource(seed))
	var ts []rdf.Triple
	add := func(s, p, o rdf.Term) { ts = append(ts, rdf.Triple{S: s, P: p, O: o}) }
	ub := func(local string) rdf.Term { return rdf.NewIRI(lubmNS + local) }
	ent := func(format string, args ...any) rdf.Term {
		return rdf.NewIRI("http://www.university.edu/" + fmt.Sprintf(format, args...))
	}
	ranks := []string{"FullProfessor", "AssociateProfessor", "AssistantProfessor", "Lecturer"}
	// Publications per rank mirror UBA: full professors publish the most.
	pubRange := map[string][2]int{
		"FullProfessor":      {15, 20},
		"AssociateProfessor": {10, 18},
		"AssistantProfessor": {5, 10},
		"Lecturer":           {0, 5},
	}
	facultyRange := map[string][2]int{
		"FullProfessor":      {7, 10},
		"AssociateProfessor": {10, 14},
		"AssistantProfessor": {8, 11},
		"Lecturer":           {5, 7},
	}
	typeP, worksFor, subOrg := ub("type"), ub("worksFor"), ub("subOrganizationOf")
	rankP, authorP, nameP := ub("rank"), ub("publicationAuthor"), ub("name")
	for u := 0; u < scale; u++ {
		univ := ent("univ%d", u)
		add(univ, typeP, ub("University"))
		add(univ, nameP, rdf.NewLiteral(fmt.Sprintf("University%d", u)))
		nDept := 3 + rng.Intn(3) // UBA uses 15-25; scaled down, same shape
		for d := 0; d < nDept; d++ {
			dept := ent("univ%d/dept%d", u, d)
			add(dept, typeP, ub("Department"))
			add(dept, subOrg, univ)
			add(dept, nameP, rdf.NewLiteral(fmt.Sprintf("Department%d-U%d", d, u)))
			for _, rank := range ranks {
				fr := facultyRange[rank]
				nFac := fr[0] + rng.Intn(fr[1]-fr[0]+1)
				// Scale faculty down ~4x to keep the demo laptop-sized
				// while preserving the rank proportions.
				nFac = nFac/3 + 1
				for p := 0; p < nFac; p++ {
					prof := ent("univ%d/dept%d/%s%d", u, d, rank, p)
					add(prof, typeP, ub(rank))
					add(prof, worksFor, dept)
					add(prof, rankP, rdf.NewLiteral(rank))
					pr := pubRange[rank]
					nPub := pr[0] + rng.Intn(pr[1]-pr[0]+1)
					for pb := 0; pb < nPub; pb++ {
						pub := ent("univ%d/dept%d/%s%d/pub%d", u, d, rank, p, pb)
						add(pub, typeP, ub("Publication"))
						add(pub, authorP, prof)
					}
				}
			}
		}
	}
	return store.BuildFrom(ts)
}

// lubmFacet is the LUBM analytical facet: the number of publications per
// (university, department, faculty rank) — a COUNT aggregation over a
// 3-dimension lattice of 8 views.
func lubmFacet() (*facet.Facet, error) {
	q, err := sparql.Parse(`PREFIX ub: <` + lubmNS + `>
SELECT ?univ ?dept ?rank (COUNT(?pub) AS ?pubs) WHERE {
  ?prof ub:worksFor ?dept .
  ?dept ub:subOrganizationOf ?univ .
  ?prof ub:rank ?rank .
  ?pub ub:publicationAuthor ?prof .
} GROUP BY ?univ ?dept ?rank`)
	if err != nil {
		return nil, fmt.Errorf("datasets: lubm facet: %w", err)
	}
	return facet.FromQuery("lubm-pubs", q)
}
