package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sofos/internal/rdf"
	"sofos/internal/store"
)

func TestNaiveOrderSameResults(t *testing.T) {
	g := figure1Graph(t)
	queries := []string{
		`PREFIX ex: <http://ex.org/>
SELECT ?name ?pop WHERE { ?c ex:name ?name . ?c ex:population ?pop . ?c ex:language "French" . }`,
		`PREFIX ex: <http://ex.org/>
SELECT ?lang (SUM(?pop) AS ?t) WHERE { ?c ex:language ?lang . ?c ex:population ?pop . } GROUP BY ?lang`,
		`PREFIX ex: <http://ex.org/>
SELECT ?name ?u WHERE { ?c ex:name ?name . OPTIONAL { ?c ex:partOf ?u . } }`,
	}
	def := New(g)
	naive := NewWithOptions(g, Options{NaiveOrder: true})
	for _, src := range queries {
		a, err := execWith(def, src)
		if err != nil {
			t.Fatalf("default: %v", err)
		}
		b, err := execWith(naive, src)
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		if !reflect.DeepEqual(sortedRows(a), sortedRows(b)) {
			t.Errorf("ordering changed results for %q:\n%v\nvs\n%v", src, sortedRows(a), sortedRows(b))
		}
	}
}

func TestNaiveOrderPreservesTextOrder(t *testing.T) {
	g := figure1Graph(t)
	src := `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE {
  ?c ex:name ?name .
  ?c ex:population ?pop .
  ?c ex:language "French" .
}`
	q := mustQuery(t, src)
	first := firstScan(g, compilePlan(t, g, q, Options{NaiveOrder: true}))
	if !strings.Contains(first, "name") {
		t.Errorf("naive plan reordered; first = %s", first)
	}
	// The default engine puts the selective French pattern first.
	if first := firstScan(g, compilePlan(t, g, q, Options{})); !strings.Contains(first, "French") {
		t.Errorf("greedy plan did not reorder; first = %s", first)
	}
}

func TestNaiveOrderDoesMoreWork(t *testing.T) {
	// On a graph where ordering matters, naive execution scans strictly more
	// intermediate rows than the greedy plan.
	var ts []rdf.Triple
	for i := 0; i < 200; i++ {
		ts = append(ts, tripleIRI("s", i, "broad", "o", i))
	}
	ts = append(ts, tripleIRI("s", 7, "narrow", "x", 0))
	g, err := store.BuildFrom(ts)
	if err != nil {
		t.Fatal(err)
	}
	src := `PREFIX ex: <http://ex.org/>
SELECT ?s WHERE { ?s ex:broad ?o . ?s ex:narrow ?x . }`
	a, err := execWith(New(g), src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := execWith(NewWithOptions(g, Options{NaiveOrder: true}), src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedRows(a), sortedRows(b)) {
		t.Fatal("results differ")
	}
	if b.Stats.IntermediateRows <= a.Stats.IntermediateRows {
		t.Errorf("naive rows %d <= greedy rows %d",
			b.Stats.IntermediateRows, a.Stats.IntermediateRows)
	}
}

func TestLimitPushdownStopsEarly(t *testing.T) {
	var ts []rdf.Triple
	for i := 0; i < 500; i++ {
		ts = append(ts, tripleIRI("s", i, "p", "o", i))
	}
	g, err := store.BuildFrom(ts)
	if err != nil {
		t.Fatal(err)
	}
	limited := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?s ?o WHERE { ?s ex:p ?o . } LIMIT 5`)
	if len(limited.Rows) != 5 {
		t.Fatalf("rows = %d", len(limited.Rows))
	}
	full := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?s ?o WHERE { ?s ex:p ?o . }`)
	if limited.Stats.IntermediateRows >= full.Stats.IntermediateRows {
		t.Errorf("limit did not stop early: %d vs %d rows scanned",
			limited.Stats.IntermediateRows, full.Stats.IntermediateRows)
	}
	// Every limited row must be a valid full-result row.
	all := map[string]bool{}
	for _, r := range sortedRows(full) {
		all[r] = true
	}
	for _, r := range sortedRows(limited) {
		if !all[r] {
			t.Errorf("limited row %q not in full result", r)
		}
	}
}

func TestLimitPushdownDisabledWhenUnsafe(t *testing.T) {
	g := figure1Graph(t)
	// ORDER BY requires seeing all rows: LIMIT must still return the true
	// top-k, not an arbitrary prefix.
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name ?pop WHERE { ?c ex:name ?name . ?c ex:population ?pop . }
ORDER BY DESC(?pop) LIMIT 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].Term.Value != "Germany" {
		t.Errorf("ordered LIMIT = %v", sortedRows(res))
	}
	// DISTINCT with LIMIT still deduplicates before cutting.
	res = exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT DISTINCT ?year WHERE { ?c ex:year ?year . } LIMIT 5`)
	if len(res.Rows) != 1 {
		t.Errorf("distinct LIMIT rows = %v", sortedRows(res))
	}
	// Aggregation with LIMIT aggregates over everything first.
	res = exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT (SUM(?pop) AS ?t) WHERE { ?c ex:population ?pop . } LIMIT 1`)
	if res.Rows[0][0].Term.Value != "246000000" {
		t.Errorf("aggregate under LIMIT = %v", sortedRows(res))
	}
}

func TestLimitPushdownWithUnion(t *testing.T) {
	var ts []rdf.Triple
	for i := 0; i < 100; i++ {
		ts = append(ts, tripleIRI("a", i, "p", "x", i))
		ts = append(ts, tripleIRI("b", i, "q", "y", i))
	}
	g, err := store.BuildFrom(ts)
	if err != nil {
		t.Fatal(err)
	}
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?s WHERE { { ?s ex:p ?o . } UNION { ?s ex:q ?o . } } LIMIT 7`)
	if len(res.Rows) != 7 {
		t.Errorf("union LIMIT rows = %d", len(res.Rows))
	}
	if res.Stats.IntermediateRows > 20 {
		t.Errorf("union LIMIT scanned %d rows", res.Stats.IntermediateRows)
	}
}

// tripleIRI builds ex:<a><i> ex:<p> ex:<b><j>.
func tripleIRI(a string, i int, p, b string, j int) rdf.Triple {
	return rdf.Triple{
		S: rdf.NewIRI(fmt.Sprintf("http://ex.org/%s%d", a, i)),
		P: rdf.NewIRI("http://ex.org/" + p),
		O: rdf.NewIRI(fmt.Sprintf("http://ex.org/%s%d", b, j)),
	}
}
