package engine

import (
	"reflect"
	"strings"
	"testing"

	"sofos/internal/sparql"
)

func TestValuesBasic(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name ?pop WHERE {
  ?c ex:name ?name .
  ?c ex:population ?pop .
  VALUES ?name { "France" "Italy" }
}`)
	got := sortedRows(res)
	if len(got) != 2 || !strings.Contains(got[0], "France") || !strings.Contains(got[1], "Italy") {
		t.Errorf("rows = %v", got)
	}
}

func TestValuesEquivalentToFilterDisjunction(t *testing.T) {
	g := figure1Graph(t)
	withValues := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE {
  ?c ex:name ?name . ?c ex:language ?lang .
  VALUES ?lang { "French" "German" }
}`)
	withFilter := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE {
  ?c ex:name ?name . ?c ex:language ?lang .
  FILTER (?lang = "French" || ?lang = "German")
}`)
	if !reflect.DeepEqual(sortedRows(withValues), sortedRows(withFilter)) {
		t.Errorf("VALUES %v != FILTER %v", sortedRows(withValues), sortedRows(withFilter))
	}
}

func TestValuesUnknownTermsYieldNothing(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE { ?c ex:name ?name . VALUES ?name { "Atlantis" } }`)
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", sortedRows(res))
	}
	// Mixed known/unknown keeps the known.
	res = exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE { ?c ex:name ?name . VALUES ?name { "Atlantis" "Canada" } }`)
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v", sortedRows(res))
	}
}

func TestValuesWithAggregation(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT (SUM(?pop) AS ?total) WHERE {
  ?c ex:population ?pop . ?c ex:language ?lang .
  VALUES ?lang { "French" }
}`)
	if res.Rows[0][0].Term.Value != "104000000" {
		t.Errorf("SUM = %s", res.Rows[0][0])
	}
}

func TestValuesWithIRIsAndNumbers(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?p WHERE { ?c ex:population ?p . VALUES ?p { 67000000 60000000 } } ORDER BY ?p`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", sortedRows(res))
	}
	res = exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?u WHERE { ?c ex:partOf ?u . VALUES ?c { ex:france ex:canada } }`)
	if len(res.Rows) != 1 { // only france is partOf something
		t.Errorf("rows = %v", sortedRows(res))
	}
}

func TestValuesMultipleClauses(t *testing.T) {
	g := figure1Graph(t)
	// Two VALUES clauses form a cross product, constrained by the pattern.
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name ?lang WHERE {
  ?c ex:name ?name . ?c ex:language ?lang .
  VALUES ?name { "France" "Canada" }
  VALUES ?lang { "French" "English" }
} ORDER BY ?name ?lang`)
	// France/French, Canada/French, Canada/English.
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", sortedRows(res))
	}
}

func TestValuesInUnionBranches(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE {
  { ?c ex:name ?name . VALUES ?name { "France" } }
  UNION
  { ?c ex:name ?name . VALUES ?name { "Italy" } }
}`)
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", sortedRows(res))
	}
}

func TestValuesValidation(t *testing.T) {
	cases := []string{
		// Empty term list.
		`SELECT ?x WHERE { ?x <http://p> ?o . VALUES ?o { } }`,
		// Variable not in any pattern.
		`SELECT ?x WHERE { ?x <http://p> ?o . VALUES ?zzz { "a" } }`,
		// Variable inside VALUES.
		`SELECT ?x WHERE { ?x <http://p> ?o . VALUES ?o { ?x } }`,
		// VALUES inside OPTIONAL.
		`SELECT ?x WHERE { ?x <http://p> ?o . OPTIONAL { ?x <http://q> ?y . VALUES ?y { "a" } } }`,
	}
	for _, src := range cases {
		if _, err := sparql.Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestValuesStringRoundTrip(t *testing.T) {
	src := `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE { ?c ex:name ?name . VALUES ?name { "France" "Italy" } }`
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	text := q.String()
	q2, err := sparql.Parse(text)
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, text)
	}
	if q2.String() != text {
		t.Errorf("not a fixpoint:\n%s\nvs\n%s", text, q2.String())
	}
	if len(q2.Where.Values) != 1 || len(q2.Where.Values[0].Terms) != 2 {
		t.Errorf("values lost: %+v", q2.Where.Values)
	}
}

func TestValuesDrivesJoinOrder(t *testing.T) {
	// With a VALUES binding, the planner prefers patterns touching the bound
	// variable first.
	g := figure1Graph(t)
	q := mustQuery(t, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE {
  ?c ex:population ?pop .
  ?c ex:name ?name .
  VALUES ?name { "France" }
}`)
	if first := firstScan(g, compilePlan(t, g, q, Options{})); !strings.Contains(first, "name") {
		t.Errorf("VALUES-bound pattern not scanned first: %s", first)
	}
}
