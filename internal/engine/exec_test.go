package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sofos/internal/algebra"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

// figure1Graph builds the knowledge graph of Figure 1 in the paper:
// countries with name, population, year, language, and part-of edges.
func figure1Graph(t testing.TB) *store.Graph {
	t.Helper()
	src := `
@prefix ex: <http://ex.org/> .
ex:france ex:name "France" ; ex:language "French" ; ex:population 67000000 ; ex:year 2019 ; ex:partOf ex:eu .
ex:germany ex:name "Germany" ; ex:language "German" ; ex:population 82000000 ; ex:year 2019 ; ex:partOf ex:eu .
ex:italy ex:name "Italy" ; ex:language "Italian" ; ex:population 60000000 ; ex:year 2019 ; ex:partOf ex:eu .
ex:canada ex:name "Canada" ; ex:language "French" ; ex:population 37000000 ; ex:year 2019 .
ex:canada ex:language "English" .
ex:eu ex:name "EU" .
`
	ts, err := rdf.ParseString(src)
	if err != nil {
		t.Fatalf("fixture parse: %v", err)
	}
	g := store.NewGraph()
	if _, err := g.LoadTriples(ts); err != nil {
		t.Fatalf("fixture load: %v", err)
	}
	return g
}

func exec(t testing.TB, g *store.Graph, src string) *Result {
	t.Helper()
	res, err := execWith(New(g), src)
	if err != nil {
		t.Fatalf("Execute(%q): %v", src, err)
	}
	return res
}

// execWith parses src and runs it on e.
func execWith(e *Engine, src string) (*Result, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Execute(q)
}

// sortedRows renders the rows and sorts them: a canonical form for
// comparing results.
func sortedRows(r *Result) []string {
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

// compilePlan compiles q as Execute does.
func compilePlan(t *testing.T, g *store.Graph, q *Query, opts Options) *Plan {
	t.Helper()
	plan, err := compile(g, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// firstScan renders the first scan of plan's main branch, constants
// resolved through g's dictionary.
func firstScan(g *store.Graph, plan *Plan) string {
	pat := plan.main.steps[0].pat
	var parts []string
	for _, ct := range []compiledTerm{pat.s, pat.p, pat.o} {
		if ct.isVar {
			parts = append(parts, "?"+plan.vars[ct.slot])
		} else {
			parts = append(parts, g.Dict().Term(ct.id).String())
		}
	}
	return strings.Join(parts, " ")
}

func TestExecuteSingleSelect(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?n WHERE { ex:france ex:name ?n . }`)
	if len(res.Rows) != 1 || res.Rows[0][0].Term.Value != "France" {
		t.Errorf("rows = %v", sortedRows(res))
	}
}

func TestExecuteJoin(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name ?pop WHERE {
  ?c ex:language "French" .
  ?c ex:name ?name .
  ?c ex:population ?pop .
}`)
	got := sortedRows(res)
	if len(got) != 2 {
		t.Fatalf("rows = %v", got)
	}
	if !strings.Contains(got[0], "Canada") || !strings.Contains(got[1], "France") {
		t.Errorf("rows = %v", got)
	}
}

func TestExecuteFilterComparison(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE {
  ?c ex:name ?name .
  ?c ex:population ?pop .
  FILTER (?pop > 60000000)
}`)
	got := sortedRows(res)
	want := []string{`"France"`, `"Germany"`}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

func TestExecuteGroupBySum(t *testing.T) {
	g := figure1Graph(t)
	// Total population per language — Example 1.1 of the paper.
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?lang (SUM(?pop) AS ?total) WHERE {
  ?c ex:language ?lang .
  ?c ex:population ?pop .
} GROUP BY ?lang ORDER BY ?lang`)
	got := sortedRows(res)
	want := []string{
		`"English"	"37000000"^^<http://www.w3.org/2001/XMLSchema#integer>`,
		`"French"	"104000000"^^<http://www.w3.org/2001/XMLSchema#integer>`,
		`"German"	"82000000"^^<http://www.w3.org/2001/XMLSchema#integer>`,
		`"Italian"	"60000000"^^<http://www.w3.org/2001/XMLSchema#integer>`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

func TestExecuteCountCountries(t *testing.T) {
	g := figure1Graph(t)
	// "In how many countries is French an official language?" (Example 1.1).
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT (COUNT(?c) AS ?n) WHERE { ?c ex:language "French" . }`)
	if len(res.Rows) != 1 || res.Rows[0][0].Term.Value != "2" {
		t.Errorf("rows = %v", sortedRows(res))
	}
}

func TestExecuteAllAggregates(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT (COUNT(*) AS ?n) (SUM(?pop) AS ?s) (AVG(?pop) AS ?a) (MIN(?pop) AS ?mn) (MAX(?pop) AS ?mx)
WHERE { ?c ex:population ?pop . }`)
	row := res.Rows[0]
	wantVals := []string{"4", "246000000", "61500000", "37000000", "82000000"}
	for i, w := range wantVals {
		if row[i].Term.Value != w {
			t.Errorf("col %d = %s, want %s", i, row[i].Term.Value, w)
		}
	}
}

func TestExecuteAggregateEmptyInput(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT (COUNT(?c) AS ?n) (SUM(?pop) AS ?s) (MIN(?pop) AS ?m) WHERE { ?c ex:language "Klingon" . ?c ex:population ?pop . }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", sortedRows(res))
	}
	row := res.Rows[0]
	if row[0].Term.Value != "0" || row[1].Term.Value != "0" || row[2].Bound {
		t.Errorf("empty aggregates = %v", sortedRows(res))
	}
	// With GROUP BY, an empty input gives zero rows instead.
	res = exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?lang (COUNT(?c) AS ?n) WHERE { ?c ex:language ?lang . ?c ex:name "Klingonia" . } GROUP BY ?lang`)
	if len(res.Rows) != 0 {
		t.Errorf("grouped empty input rows = %v", sortedRows(res))
	}
}

func TestExecuteMissingConstant(t *testing.T) {
	g := figure1Graph(t)
	// A term that was never interned must yield an empty result quickly.
	res := exec(t, g, `SELECT ?o WHERE { <http://nowhere.org/x> <http://nowhere.org/p> ?o . }`)
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", sortedRows(res))
	}
}

func TestExecuteHaving(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?lang (COUNT(?c) AS ?n) WHERE {
  ?c ex:language ?lang .
} GROUP BY ?lang HAVING (?n > 1)`)
	if len(res.Rows) != 1 || res.Rows[0][0].Term.Value != "French" {
		t.Errorf("rows = %v", sortedRows(res))
	}
}

func TestExecuteOrderByLimitOffset(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name ?pop WHERE { ?c ex:name ?name . ?c ex:population ?pop . }
ORDER BY DESC(?pop) LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", sortedRows(res))
	}
	if res.Rows[0][0].Term.Value != "Germany" || res.Rows[1][0].Term.Value != "France" {
		t.Errorf("order = %v %v", res.Rows[0][0], res.Rows[1][0])
	}
	res = exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name ?pop WHERE { ?c ex:name ?name . ?c ex:population ?pop . }
ORDER BY DESC(?pop) LIMIT 2 OFFSET 1`)
	if res.Rows[0][0].Term.Value != "France" || res.Rows[1][0].Term.Value != "Italy" {
		t.Errorf("offset order = %v", sortedRows(res))
	}
	// Offset beyond result size.
	res = exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE { ?c ex:name ?name . } OFFSET 100`)
	if len(res.Rows) != 0 {
		t.Errorf("beyond-offset rows = %v", sortedRows(res))
	}
}

func TestExecuteDistinct(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT DISTINCT ?year WHERE { ?c ex:year ?year . }`)
	if len(res.Rows) != 1 {
		t.Errorf("distinct years = %v", sortedRows(res))
	}
}

func TestExecuteOptional(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name ?union WHERE {
  ?c ex:name ?name .
  ?c ex:population ?pop .
  OPTIONAL { ?c ex:partOf ?u . ?u ex:name ?union . }
} ORDER BY ?name`)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", sortedRows(res))
	}
	byName := map[string]string{}
	for _, row := range res.Rows {
		byName[row[0].Term.Value] = row[1].String()
	}
	if byName["France"] != `"EU"` || byName["Canada"] != "UNDEF" {
		t.Errorf("optional bindings = %v", byName)
	}
}

func TestExecuteOptionalWithFilter(t *testing.T) {
	g := figure1Graph(t)
	// Filter inside OPTIONAL removes the optional binding, not the row.
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name ?pop2 WHERE {
  ?c ex:name ?name .
  OPTIONAL { ?c ex:population ?pop2 . FILTER (?pop2 > 70000000) }
} ORDER BY ?name`)
	byName := map[string]bool{}
	for _, row := range res.Rows {
		byName[row[0].Term.Value] = row[1].Bound
	}
	if !byName["Germany"] || byName["France"] || byName["EU"] {
		t.Errorf("optional filter bindings = %v", byName)
	}
}

func TestExecuteLateFilterOnOptionalVar(t *testing.T) {
	g := figure1Graph(t)
	// !BOUND filter referencing an optional variable runs late.
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE {
  ?c ex:name ?name .
  ?c ex:population ?pop .
  OPTIONAL { ?c ex:partOf ?u . }
  FILTER (!BOUND(?u))
}`)
	if len(res.Rows) != 1 || res.Rows[0][0].Term.Value != "Canada" {
		t.Errorf("rows = %v", sortedRows(res))
	}
}

func TestExecuteSharedVariablePattern(t *testing.T) {
	var ts []rdf.Triple
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	ts = append(ts, rdf.Triple{S: ex("a"), P: ex("knows"), O: ex("a")})
	ts = append(ts, rdf.Triple{S: ex("a"), P: ex("knows"), O: ex("b")})
	ts = append(ts, rdf.Triple{S: ex("b"), P: ex("knows"), O: ex("b")})
	g, err := store.BuildFrom(ts)
	if err != nil {
		t.Fatal(err)
	}
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?x WHERE { ?x ex:knows ?x . }`)
	if len(res.Rows) != 2 {
		t.Errorf("self-loops = %v", sortedRows(res))
	}
}

func TestExecuteVariablePredicate(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT DISTINCT ?p WHERE { ex:france ?p ?o . } ORDER BY ?p`)
	if len(res.Rows) != 5 {
		t.Errorf("predicates = %v", sortedRows(res))
	}
}

func TestExecuteCountDistinct(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT (COUNT(DISTINCT ?lang) AS ?n) WHERE { ?c ex:language ?lang . }`)
	if res.Rows[0][0].Term.Value != "4" {
		t.Errorf("distinct languages = %v", sortedRows(res))
	}
}

func TestExecStatsPopulated(t *testing.T) {
	g := figure1Graph(t)
	res := exec(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?n WHERE { ?c ex:name ?n . ?c ex:population ?p . }`)
	if res.Stats.PatternScans == 0 || res.Stats.IntermediateRows == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if res.Stats.ResultRows != len(res.Rows) {
		t.Errorf("ResultRows = %d, rows = %d", res.Stats.ResultRows, len(res.Rows))
	}
	if res.Stats.Elapsed <= 0 {
		t.Error("Elapsed not measured")
	}
}

func TestExplainPlanOrdering(t *testing.T) {
	g := figure1Graph(t)
	// The selective pattern (language = "French", 2 matches) must be scanned
	// before the broad ones (name: 6 matches, population: 4).
	q := mustQuery(t, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE {
  ?c ex:name ?name .
  ?c ex:population ?pop .
  ?c ex:language "French" .
}`)
	plan := compilePlan(t, g, q, Options{})
	if first := firstScan(g, plan); !strings.Contains(first, "French") {
		t.Errorf("first step = %s", first)
	}
}

func TestExplainEmptyPlan(t *testing.T) {
	g := figure1Graph(t)
	q := mustQuery(t, `SELECT ?o WHERE { <http://gone> <http://p> ?o . }`)
	plan := compilePlan(t, g, q, Options{})
	if !plan.empty {
		t.Error("plan not marked empty")
	}
	if len(plan.vars) == 0 {
		t.Error("vars not tracked")
	}
}

func mustQuery(t *testing.T, src string) *Query {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestJoinOrderInsensitivity: all permutations of the BGP produce identical
// results — the planner's ordering is an optimization, not a semantics
// change.
func TestJoinOrderInsensitivity(t *testing.T) {
	g := figure1Graph(t)
	patterns := []string{
		`?c ex:name ?name .`,
		`?c ex:population ?pop .`,
		`?c ex:language ?lang .`,
		`?c ex:year 2019 .`,
	}
	perms := permutations(len(patterns))
	var want []string
	for i, perm := range perms {
		var body strings.Builder
		for _, pi := range perm {
			body.WriteString(patterns[pi])
			body.WriteString("\n")
		}
		src := "PREFIX ex: <http://ex.org/>\nSELECT ?name ?pop ?lang WHERE {\n" + body.String() + "}"
		got := sortedRows(exec(t, g, src))
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("permutation %v differs:\n%v\nvs\n%v", perm, got, want)
		}
	}
}

// permutations returns all permutations of 0..n-1.
func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	sub := permutations(n - 1)
	var out [][]int
	for _, s := range sub {
		for i := 0; i <= len(s); i++ {
			p := make([]int, 0, n)
			p = append(p, s[:i]...)
			p = append(p, n-1)
			p = append(p, s[i:]...)
			out = append(out, p)
		}
	}
	return out
}

// TestEngineAgainstReferenceEvaluator cross-checks BGP+filter execution on
// random graphs against a brute-force evaluator.
func TestEngineAgainstReferenceEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		var ts []rdf.Triple
		nt := 30 + rng.Intn(60)
		for i := 0; i < nt; i++ {
			s := fmt.Sprintf("http://ex.org/s%d", rng.Intn(10))
			p := fmt.Sprintf("http://ex.org/p%d", rng.Intn(4))
			var o rdf.Term
			if rng.Intn(2) == 0 {
				o = rdf.NewIRI(fmt.Sprintf("http://ex.org/s%d", rng.Intn(10)))
			} else {
				o = rdf.NewInteger(int64(rng.Intn(20)))
			}
			ts = append(ts, rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: o})
		}
		g, err := store.BuildFrom(ts)
		if err != nil {
			t.Fatal(err)
		}
		src := `PREFIX ex: <http://ex.org/>
SELECT ?x ?y WHERE { ?x ex:p0 ?y . ?x ex:p1 ?z . FILTER (?z >= 5) }`
		got := sortedRows(exec(t, g, src))
		want := referenceEval(g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d mismatch:\nengine: %v\nreference: %v", trial, got, want)
		}
	}
}

// referenceEval brute-forces the fixed test query above.
func referenceEval(g *store.Graph) []string {
	var out []string
	all := g.Triples()
	for _, t1 := range all {
		if t1.P.Value != "http://ex.org/p0" {
			continue
		}
		for _, t2 := range all {
			if t2.P.Value != "http://ex.org/p1" || t2.S != t1.S {
				continue
			}
			v, ok := algebra.NumericValue(t2.O)
			if !ok || v < 5 {
				continue
			}
			out = append(out, t1.S.String()+"\t"+t1.O.String())
		}
	}
	// Deduplicate: multiple z matches produce duplicate (x, y) rows in both
	// implementations, so keep duplicates — but ordering must be canonical.
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
