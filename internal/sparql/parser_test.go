package sparql

import (
	"strings"
	"testing"

	"sofos/internal/rdf"
)

func TestParseSimpleSelect(t *testing.T) {
	q, err := Parse(`SELECT ?s ?o WHERE { ?s <http://p> ?o . }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Select) != 2 || q.Select[0].Var != "s" || q.Select[1].Var != "o" {
		t.Errorf("Select = %v", q.Select)
	}
	if len(q.Where.Triples) != 1 {
		t.Fatalf("Triples = %v", q.Where.Triples)
	}
	tp := q.Where.Triples[0]
	if !tp.S.IsVar || tp.S.Var != "s" || tp.P.IsVar || tp.P.Term.Value != "http://p" || !tp.O.IsVar {
		t.Errorf("triple = %v", tp)
	}
	if q.Limit != -1 || q.Offset != 0 || q.Distinct {
		t.Errorf("modifiers wrong: %+v", q)
	}
}

func TestParseAnalyticalQuery(t *testing.T) {
	src := `PREFIX ex: <http://ex.org/>
SELECT ?country (SUM(?pop) AS ?total) WHERE {
  ?c ex:name ?country .
  ?c ex:population ?pop .
  ?c ex:language ?lang .
  FILTER (?lang = "French")
} GROUP BY ?country ORDER BY DESC(?total) LIMIT 10`
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Select) != 2 {
		t.Fatalf("Select = %v", q.Select)
	}
	agg := q.Select[1]
	if agg.Agg != AggSum || agg.AggVar != "pop" || agg.Var != "total" {
		t.Errorf("aggregate item = %+v", agg)
	}
	if len(q.Where.Triples) != 3 || len(q.Where.Filters) != 1 {
		t.Errorf("pattern = %+v", q.Where)
	}
	if q.Where.Triples[0].P.Term.Value != "http://ex.org/name" {
		t.Errorf("prefix expansion = %v", q.Where.Triples[0].P)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "country" {
		t.Errorf("GroupBy = %v", q.GroupBy)
	}
	if len(q.OrderBy) != 1 || !q.OrderBy[0].Desc || q.OrderBy[0].Var != "total" {
		t.Errorf("OrderBy = %v", q.OrderBy)
	}
	if q.Limit != 10 {
		t.Errorf("Limit = %d", q.Limit)
	}
	if !q.HasAggregates() || len(q.Aggregates()) != 1 {
		t.Error("aggregate helpers wrong")
	}
}

func TestParseAllAggregates(t *testing.T) {
	for _, agg := range []string{"SUM", "AVG", "COUNT", "MAX", "MIN"} {
		src := `SELECT ?x (` + agg + `(?u) AS ?a) WHERE { ?x <http://p> ?u . } GROUP BY ?x`
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse %s: %v", agg, err)
		}
		want, _ := ParseAggKind(agg)
		if q.Select[1].Agg != want {
			t.Errorf("agg = %v, want %v", q.Select[1].Agg, want)
		}
	}
}

func TestParseCountStarAndDistinct(t *testing.T) {
	q, err := Parse(`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Select[0].Agg != AggCount || q.Select[0].AggVar != "" {
		t.Errorf("COUNT(*) = %+v", q.Select[0])
	}
	q, err = Parse(`SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !q.Select[0].AggDistinct || q.Select[0].AggVar != "s" {
		t.Errorf("COUNT(DISTINCT ?s) = %+v", q.Select[0])
	}
	if _, err := Parse(`SELECT (SUM(*) AS ?n) WHERE { ?s ?p ?o . }`); err == nil {
		t.Error("SUM(*) accepted")
	}
}

func TestParseSelectStar(t *testing.T) {
	q, err := Parse(`SELECT * WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Select) != 3 {
		t.Errorf("SELECT * expanded to %v", q.Select)
	}
}

func TestParsePredicateObjectLists(t *testing.T) {
	q, err := Parse(`PREFIX ex: <http://ex.org/>
SELECT ?s WHERE { ?s ex:p ?a, ?b ; ex:q ?c ; a ex:T . }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Where.Triples) != 4 {
		t.Fatalf("triples = %v", q.Where.Triples)
	}
	if q.Where.Triples[3].P.Term.Value != rdf.RDFType {
		t.Errorf("`a` predicate = %v", q.Where.Triples[3].P)
	}
}

func TestParseOptional(t *testing.T) {
	q, err := Parse(`SELECT ?s ?l WHERE {
  ?s <http://p> ?o .
  OPTIONAL { ?s <http://label> ?l . }
}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Where.Optionals) != 1 || len(q.Where.Optionals[0].Triples) != 1 {
		t.Errorf("optionals = %+v", q.Where.Optionals)
	}
	// Nested OPTIONAL rejected.
	_, err = Parse(`SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { ?s ?q ?r . OPTIONAL { ?s ?t ?u . } } }`)
	if err == nil {
		t.Error("nested OPTIONAL accepted")
	}
}

func TestParseFilterExpressions(t *testing.T) {
	src := `SELECT ?x WHERE {
  ?x <http://p> ?v .
  FILTER (?v > 5 && ?v <= 100 || !(?v = 7))
  FILTER (REGEX(STR(?x), "abc"))
  FILTER (BOUND(?v) && ISLITERAL(?v) && ABS(?v - 3) < 2.5)
}`
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Where.Filters) != 3 {
		t.Fatalf("filters = %d", len(q.Where.Filters))
	}
	// Top of first filter must be OR (lowest precedence).
	be, ok := q.Where.Filters[0].(*BinaryExpr)
	if !ok || be.Op != OpOr {
		t.Errorf("filter 0 top = %v", q.Where.Filters[0])
	}
	vars := ExprVars(q.Where.Filters[0])
	if len(vars) != 1 || vars[0] != "v" {
		t.Errorf("filter vars = %v", vars)
	}
}

func TestParseHaving(t *testing.T) {
	q, err := Parse(`SELECT ?x (COUNT(?u) AS ?n) WHERE { ?x <http://p> ?u . } GROUP BY ?x HAVING (?n > 2)`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Having == nil {
		t.Fatal("Having = nil")
	}
	if _, err := Parse(`SELECT ?x WHERE { ?x <http://p> ?u . } HAVING (?x > 2)`); err == nil {
		t.Error("HAVING without grouping accepted")
	}
}

func TestParseLiteralForms(t *testing.T) {
	src := `PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?s WHERE {
  ?s <http://a> "plain" .
  ?s <http://b> "tagged"@en .
  ?s <http://c> "5"^^xsd:integer .
  ?s <http://d> 42 .
  ?s <http://e> 3.5 .
  ?s <http://f> true .
}`
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	objs := q.Where.Triples
	if objs[1].O.Term.Lang != "en" {
		t.Errorf("lang literal = %v", objs[1].O.Term)
	}
	if objs[2].O.Term.Datatype != rdf.XSDInteger {
		t.Errorf("typed literal = %v", objs[2].O.Term)
	}
	if objs[3].O.Term.Datatype != rdf.XSDInteger {
		t.Errorf("numeric shorthand = %v", objs[3].O.Term)
	}
	if objs[4].O.Term.Datatype != rdf.XSDDecimal {
		t.Errorf("decimal shorthand = %v", objs[4].O.Term)
	}
	if objs[5].O.Term.Datatype != rdf.XSDBoolean {
		t.Errorf("boolean shorthand = %v", objs[5].O.Term)
	}
}

func TestParseValidationErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"group by unknown var", `SELECT ?x WHERE { ?x ?p ?o . } GROUP BY ?zzz`},
		{"select unknown var", `SELECT ?zzz WHERE { ?x ?p ?o . }`},
		{"plain var with agg ungrouped", `SELECT ?x (SUM(?o) AS ?s) WHERE { ?x ?p ?o . }`},
		{"agg over unknown var", `SELECT (SUM(?zzz) AS ?s) WHERE { ?x ?p ?o . }`},
		{"order by unbound", `SELECT ?x WHERE { ?x ?p ?o . } ORDER BY ?qqq`},
		{"literal subject", `SELECT ?p WHERE { "lit" ?p ?o . }`},
		{"literal predicate", `SELECT ?s WHERE { ?s "lit" ?o . }`},
		{"blank predicate", `SELECT ?s WHERE { ?s _:b ?o . }`},
		{"missing where", `SELECT ?x { ?x ?p ?o . }`},
		{"undeclared prefix", `SELECT ?x WHERE { ?x ex:p ?o . }`},
		{"empty group by", `SELECT ?x WHERE { ?x ?p ?o . } GROUP BY`},
		{"trailing junk", `SELECT ?x WHERE { ?x ?p ?o . } LIMIT 5 WHERE`},
		{"unterminated group", `SELECT ?x WHERE { ?x ?p ?o .`},
		{"agg missing AS", `SELECT (SUM(?o) ?s) WHERE { ?x ?p ?o . }`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tc.src)
			}
		})
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("SELECT ?x\nWHERE { ?x ?p }")
	if err == nil {
		t.Fatal("want error")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if pe.Line != 2 {
		t.Errorf("line = %d, want 2", pe.Line)
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	sources := []string{
		`SELECT ?s ?o WHERE { ?s <http://p> ?o . }`,
		`PREFIX ex: <http://ex.org/>
SELECT ?c (SUM(?pop) AS ?total) WHERE { ?x ex:name ?c . ?x ex:pop ?pop . FILTER (?pop > 1000) } GROUP BY ?c ORDER BY DESC(?total) LIMIT 5`,
		`SELECT DISTINCT ?s WHERE { ?s ?p ?o . OPTIONAL { ?s <http://l> ?lab . } } OFFSET 2`,
		`SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o . }`,
		`SELECT ?x (AVG(?v) AS ?a) WHERE { ?x <http://p> ?v . } GROUP BY ?x HAVING (?a >= 2)`,
	}
	for _, src := range sources {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		text := q1.String()
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("re-Parse of %q: %v", text, err)
		}
		if q2.String() != text {
			t.Errorf("String not a fixpoint:\n%s\nvs\n%s", text, q2.String())
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic")
		}
	}()
	MustParse(`not a query`)
}

func TestGroupPatternVarsAndClone(t *testing.T) {
	q := MustParse(`SELECT ?s WHERE { ?s <http://p> ?o . OPTIONAL { ?s <http://q> ?r . } }`)
	vars := q.Where.Vars()
	if len(vars) != 3 || vars[0] != "s" || vars[1] != "o" || vars[2] != "r" {
		t.Errorf("Vars = %v", vars)
	}
	c := q.Where.Clone()
	c.Triples[0].S = Variable("mutated")
	if q.Where.Triples[0].S.Var != "s" {
		t.Error("Clone shares triple slice")
	}
	c.Optionals[0].Triples[0].S = Variable("mutated2")
	if q.Where.Optionals[0].Triples[0].S.Var != "s" {
		t.Error("Clone shares optional triples")
	}
}

func TestParseAggKindErrors(t *testing.T) {
	if _, err := ParseAggKind("MEDIAN"); err == nil {
		t.Error("unknown aggregate accepted")
	}
	if k, err := ParseAggKind("count"); err != nil || k != AggCount {
		t.Errorf("lowercase aggregate: %v %v", k, err)
	}
	if AggNone.String() != "" || AggSum.String() != "SUM" {
		t.Error("AggKind.String wrong")
	}
	if !strings.Contains(AggKind(42).String(), "42") {
		t.Error("unknown AggKind.String wrong")
	}
}

func TestSelectItemString(t *testing.T) {
	cases := []struct {
		item SelectItem
		want string
	}{
		{SelectItem{Var: "x"}, "?x"},
		{SelectItem{Var: "n", Agg: AggCount}, "(COUNT(*) AS ?n)"},
		{SelectItem{Var: "n", Agg: AggCount, AggVar: "s", AggDistinct: true}, "(COUNT(DISTINCT ?s) AS ?n)"},
		{SelectItem{Var: "t", Agg: AggSum, AggVar: "pop"}, "(SUM(?pop) AS ?t)"},
	}
	for _, tc := range cases {
		if got := tc.item.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestExprHelpers(t *testing.T) {
	e := Eq("x", rdf.NewInteger(5))
	if e.String() != `(?x = "5"^^<http://www.w3.org/2001/XMLSchema#integer>)` {
		t.Errorf("Eq String = %q", e.String())
	}
}
