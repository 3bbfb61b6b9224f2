package engine

import (
	"reflect"
	"strings"
	"testing"

	"sofos/internal/sparql"
)

func TestUnionBasic(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?c WHERE {
  { ?c ex:language "German" . }
  UNION
  { ?c ex:language "Italian" . }
}`)
	got := sortedRows(res)
	if len(got) != 2 {
		t.Fatalf("rows = %v", got)
	}
	if !strings.Contains(got[0], "germany") || !strings.Contains(got[1], "italy") {
		t.Errorf("rows = %v", got)
	}
}

func TestUnionBagSemantics(t *testing.T) {
	g := figure1Graph(t)
	// Overlapping branches produce duplicate rows (bag union), removable
	// with DISTINCT.
	src := `PREFIX ex: <http://ex.org/>
SELECT ?c WHERE {
  { ?c ex:language "French" . }
  UNION
  { ?c ex:name "France" . }
}`
	res := exec(t, g, src)
	if len(res.Rows) != 3 { // france (x2: both branches), canada
		t.Errorf("bag union rows = %v", sortedRows(res))
	}
	res = exec(t, g, strings.Replace(src, "SELECT ?c", "SELECT DISTINCT ?c", 1))
	if len(res.Rows) != 2 {
		t.Errorf("distinct union rows = %v", sortedRows(res))
	}
}

func TestUnionDisjointVariables(t *testing.T) {
	g := figure1Graph(t)
	// Variables bound in only one branch are unbound in the other's rows.
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?pop ?u WHERE {
  { ex:france ex:population ?pop . }
  UNION
  { ex:france ex:partOf ?u . }
}`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", sortedRows(res))
	}
	bound := 0
	for _, row := range res.Rows {
		if row[0].Bound != row[1].Bound {
			bound++
		} else {
			t.Errorf("expected exactly one bound column per row: %v", row)
		}
	}
	if bound != 2 {
		t.Errorf("disjoint binding pattern wrong: %v", sortedRows(res))
	}
}

func TestUnionWithAggregation(t *testing.T) {
	g := figure1Graph(t)
	// Total population of German- or Italian-speaking countries.
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT (SUM(?pop) AS ?total) WHERE {
  { ?c ex:language "German" . ?c ex:population ?pop . }
  UNION
  { ?c ex:language "Italian" . ?c ex:population ?pop . }
}`)
	if res.Rows[0][0].Term.Value != "142000000" {
		t.Errorf("union SUM = %s", res.Rows[0][0])
	}
}

func TestUnionWithFiltersInBranches(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE {
  { ?c ex:name ?name . ?c ex:population ?pop . FILTER (?pop > 80000000) }
  UNION
  { ?c ex:name ?name . ?c ex:population ?pop . FILTER (?pop < 40000000) }
}`)
	got := sortedRows(res)
	want := []string{`"Canada"`, `"Germany"`}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

func TestUnionWithOptionalInBranch(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name ?u WHERE {
  { ?c ex:language "French" . ?c ex:name ?name . OPTIONAL { ?c ex:partOf ?u . } }
  UNION
  { ?c ex:language "German" . ?c ex:name ?name . }
}`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", sortedRows(res))
	}
}

func TestUnionEmptyBranch(t *testing.T) {
	g := figure1Graph(t)
	// One branch mentions a term absent from the graph: only the other
	// contributes.
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?c WHERE {
  { ?c ex:language "Klingon" . }
  UNION
  { ?c ex:language "German" . }
}`)
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v", sortedRows(res))
	}
	// Both branches empty.
	res = exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?c WHERE {
  { ?c ex:language "Klingon" . }
  UNION
  { ?c ex:language "Vulcan" . }
}`)
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", sortedRows(res))
	}
}

func TestUnionParseErrors(t *testing.T) {
	cases := []string{
		// Union mixed with triples at the same level.
		`SELECT ?c WHERE { ?c <http://p> ?o . { ?c <http://q> ?x . } UNION { ?c <http://r> ?y . } }`,
		// Single-branch "union".
		`SELECT ?c WHERE { { ?c <http://p> ?o . } }`,
		// Nested union.
		`SELECT ?c WHERE { { { ?c <http://a> ?o . } UNION { ?c <http://b> ?o . } } UNION { ?c <http://q> ?o . } }`,
		// Union inside OPTIONAL.
		`SELECT ?c WHERE { ?c <http://p> ?o . OPTIONAL { { ?c <http://a> ?x . } UNION { ?c <http://b> ?x . } } }`,
		// UNION not followed by a brace.
		`SELECT ?c WHERE { { ?c <http://a> ?o . } UNION ?c <http://b> ?o . }`,
	}
	for _, src := range cases {
		if _, err := sparql.Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestUnionStringRoundTrip(t *testing.T) {
	src := `PREFIX ex: <http://ex.org/>
SELECT ?c WHERE {
  { ?c ex:language "German" . }
  UNION
  { ?c ex:language "Italian" . FILTER (?c != ex:vatican) }
}`
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	text := q.String()
	q2, err := sparql.Parse(text)
	if err != nil {
		t.Fatalf("round trip parse: %v\n%s", err, text)
	}
	if q2.String() != text {
		t.Errorf("not a fixpoint:\n%s\nvs\n%s", text, q2.String())
	}
}

func TestUnionExplain(t *testing.T) {
	g := figure1Graph(t)
	q := mustQuery(t, `PREFIX ex: <http://ex.org/>
SELECT ?c WHERE { { ?c ex:language "German" . } UNION { ?c ex:language "Italian" . } }`)
	if plan := compilePlan(t, g, q, Options{}); len(plan.unions) != 2 {
		t.Errorf("plan has %d union branches, want 2", len(plan.unions))
	}
}

func TestUnionOrderLimit(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name ?pop WHERE {
  { ?c ex:language "French" . ?c ex:name ?name . ?c ex:population ?pop . }
  UNION
  { ?c ex:language "German" . ?c ex:name ?name . ?c ex:population ?pop . }
} ORDER BY DESC(?pop) LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", sortedRows(res))
	}
	if res.Rows[0][0].Term.Value != "Germany" || res.Rows[1][0].Term.Value != "France" {
		t.Errorf("order = %v", sortedRows(res))
	}
}
