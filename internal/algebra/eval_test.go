package algebra

import (
	"testing"

	"sofos/internal/rdf"
	"sofos/internal/sparql"
)

// exprOf extracts the single FILTER expression from a query wrapper.
func exprOf(t *testing.T, filter string) sparql.Expr {
	t.Helper()
	q, err := sparql.Parse(`SELECT ?x WHERE { ?x <http://p> ?v . ?x <http://q> ?w . FILTER (` + filter + `) }`)
	if err != nil {
		t.Fatalf("parse filter %q: %v", filter, err)
	}
	return q.Where.Filters[0]
}

// env builds a resolver from a var->term map.
func env(m map[string]rdf.Term) Resolver {
	return func(name string) Value {
		if t, ok := m[name]; ok {
			return Bind(t)
		}
		return Unbound
	}
}

func TestEvalComparisons(t *testing.T) {
	e := env(map[string]rdf.Term{"v": rdf.NewInteger(10), "w": rdf.NewLiteral("abc")})
	cases := []struct {
		filter string
		want   bool
	}{
		{"?v > 5", true},
		{"?v > 10", false},
		{"?v >= 10", true},
		{"?v < 20", true},
		{"?v <= 9", false},
		{"?v = 10", true},
		{"?v != 10", false},
		{`?w = "abc"`, true},
		{`?w != "abc"`, false},
		{`?w < "abd"`, true},
		{"?v + 5 = 15", true},
		{"?v - 5 = 5", true},
		{"?v * 2 = 20", true},
		{"?v / 4 = 2.5", true},
		{"-?v = -10", true},
		{"!(?v = 3)", true},
		{"?v > 5 && ?v < 15", true},
		{"?v > 5 && ?v < 8", false},
		{"?v < 5 || ?v > 8", true},
		{"?v < 5 || ?v > 20", false},
	}
	for _, tc := range cases {
		t.Run(tc.filter, func(t *testing.T) {
			if got := EvalBool(exprOf(t, tc.filter), e); got != tc.want {
				t.Errorf("EvalBool(%q) = %v, want %v", tc.filter, got, tc.want)
			}
		})
	}
}

func TestEvalTypeErrorsAreFalse(t *testing.T) {
	e := env(map[string]rdf.Term{"v": rdf.NewLiteral("notnum")})
	for _, f := range []string{"?v > 5", "?v + 1 = 2", "?missing = 1", "?v / 0 = 1", "-?v = 1"} {
		if EvalBool(exprOf(t, f), e) {
			t.Errorf("EvalBool(%q) = true on type error", f)
		}
	}
	// Division by zero specifically.
	e2 := env(map[string]rdf.Term{"v": rdf.NewInteger(1)})
	if EvalBool(exprOf(t, "?v / 0 = 1"), e2) {
		t.Error("division by zero not a type error")
	}
}

func TestEvalThreeValuedLogic(t *testing.T) {
	// ?missing is unbound (a type error); && and || must still produce
	// definite answers when the other side decides.
	e := env(map[string]rdf.Term{"v": rdf.NewInteger(1)})
	if EvalBool(exprOf(t, "?missing = 1 && ?v = 2"), e) {
		t.Error("err && false should be false")
	}
	if !EvalBool(exprOf(t, "?missing = 1 || ?v = 1"), e) {
		t.Error("err || true should be true")
	}
	if EvalBool(exprOf(t, "?missing = 1 || ?v = 2"), e) {
		t.Error("err || false should be error -> false")
	}
	if EvalBool(exprOf(t, "?missing = 1 && ?v = 1"), e) {
		t.Error("err && true should be error -> false")
	}
}

func TestEvalBuiltins(t *testing.T) {
	e := env(map[string]rdf.Term{
		"v": rdf.NewInteger(-3),
		"w": rdf.NewLangLiteral("Bonjour", "fr"),
		"u": rdf.NewIRI("http://ex.org/entity/42"),
	})
	cases := []struct {
		filter string
		want   bool
	}{
		{"ABS(?v) = 3", true},
		{"BOUND(?v)", true},
		{"BOUND(?missing)", false},
		{"!BOUND(?missing)", true},
		{`LANG(?w) = "fr"`, true},
		{`STR(?v) = "-3"`, true},
		{`STR(?u) = "http://ex.org/entity/42"`, true},
		{`DATATYPE(?v) = <http://www.w3.org/2001/XMLSchema#integer>`, true},
		{"ISIRI(?u)", true},
		{"ISIRI(?v)", false},
		{"ISLITERAL(?w)", true},
		{"ISBLANK(?u)", false},
		{"ISNUMERIC(?v)", true},
		{"ISNUMERIC(?w)", false},
		{`REGEX(STR(?u), "entity/[0-9]+")`, true},
		{`REGEX(?w, "^bon", "i")`, true},
		{`REGEX(?w, "^bon")`, false},
		{`REGEX(?w, "xyz")`, false},
	}
	for _, tc := range cases {
		t.Run(tc.filter, func(t *testing.T) {
			if got := EvalBool(exprOf(t, tc.filter), e); got != tc.want {
				t.Errorf("EvalBool(%q) = %v, want %v", tc.filter, got, tc.want)
			}
		})
	}
}

func TestEvalBuiltinTypeErrors(t *testing.T) {
	e := env(map[string]rdf.Term{"u": rdf.NewIRI("http://x")})
	for _, f := range []string{`LANG(?u) = "fr"`, `DATATYPE(?u) = <http://x>`, `ABS(?u) = 1`, `REGEX(?u, "x")`} {
		if EvalBool(exprOf(t, f), e) {
			t.Errorf("EvalBool(%q) = true, want false (type error)", f)
		}
	}
	// Invalid regex pattern is a type error, not a panic.
	e2 := env(map[string]rdf.Term{"v": rdf.NewLiteral("x")})
	if EvalBool(exprOf(t, `REGEX(?v, "([")`), e2) {
		t.Error("invalid regex evaluated true")
	}
}

func TestNumericResultWidening(t *testing.T) {
	e := env(map[string]rdf.Term{"v": rdf.NewInteger(3), "w": rdf.NewDouble(0.5)})
	// int + double stays comparable to decimal value.
	if !EvalBool(exprOf(t, "?v + ?w = 3.5"), e) {
		t.Error("int+double widening failed")
	}
	// Integer division producing a fraction is exact.
	if !EvalBool(exprOf(t, "?v / 2 = 1.5"), e) {
		t.Error("integer division should produce exact decimal")
	}
}

func TestFormatFloat(t *testing.T) {
	if got := FormatFloat(5); got.Datatype != rdf.XSDInteger || got.Value != "5" {
		t.Errorf("FormatFloat(5) = %s", got)
	}
	if got := FormatFloat(2.5); got.Datatype != rdf.XSDDecimal || got.Value != "2.5" {
		t.Errorf("FormatFloat(2.5) = %s", got)
	}
}

func TestParseNumeric(t *testing.T) {
	if f, err := ParseNumeric(rdf.NewInteger(4)); err != nil || f != 4 {
		t.Errorf("ParseNumeric = %v, %v", f, err)
	}
	if _, err := ParseNumeric(rdf.NewLiteral("x")); err == nil || !IsTypeError(err) {
		t.Errorf("ParseNumeric of string: %v", err)
	}
}
