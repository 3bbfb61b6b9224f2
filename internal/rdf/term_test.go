package rdf

import (
	"strings"
	"testing"
)

func TestTermConstructors(t *testing.T) {
	tests := []struct {
		name string
		term Term
		kind TermKind
		str  string
	}{
		{"iri", NewIRI("http://ex.org/a"), KindIRI, "<http://ex.org/a>"},
		{"blank", NewBlank("b0"), KindBlank, "_:b0"},
		{"plain literal", NewLiteral("hello"), KindLiteral, `"hello"`},
		{"lang literal", NewLangLiteral("bonjour", "fr"), KindLiteral, `"bonjour"@fr`},
		{"typed literal", NewTypedLiteral("5", XSDInteger), KindLiteral, `"5"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{"integer", NewInteger(-42), KindLiteral, `"-42"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{"double", NewDouble(2.5), KindLiteral, `"2.5"^^<http://www.w3.org/2001/XMLSchema#double>`},
		{"boolean", NewBoolean(true), KindLiteral, `"true"^^<http://www.w3.org/2001/XMLSchema#boolean>`},
		{"year", NewYear(2019), KindLiteral, `"2019"^^<http://www.w3.org/2001/XMLSchema#gYear>`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.term.Kind != tc.kind {
				t.Errorf("kind = %v, want %v", tc.term.Kind, tc.kind)
			}
			if got := tc.term.String(); got != tc.str {
				t.Errorf("String() = %q, want %q", got, tc.str)
			}
		})
	}
}

func TestTermKindString(t *testing.T) {
	if KindIRI.String() != "iri" || KindBlank.String() != "blank" || KindLiteral.String() != "literal" {
		t.Errorf("unexpected kind names: %v %v %v", KindIRI, KindBlank, KindLiteral)
	}
	if got := TermKind(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestXSDStringSuppressedInOutput(t *testing.T) {
	lit := NewTypedLiteral("x", XSDString)
	if got := lit.String(); got != `"x"` {
		t.Errorf("xsd:string literal rendered as %q, want plain form", got)
	}
}

func TestIsNumericAndFloat(t *testing.T) {
	for _, dt := range []string{XSDInteger, XSDDecimal, XSDDouble} {
		lit := NewTypedLiteral("3.0", dt)
		if dt == XSDInteger {
			lit = NewTypedLiteral("3", dt)
		}
		if !lit.IsNumeric() {
			t.Errorf("literal with %s not numeric", dt)
		}
	}
	if NewLiteral("3").IsNumeric() {
		t.Error("plain literal should not be numeric")
	}
	if NewIRI("http://x").IsNumeric() {
		t.Error("IRI should not be numeric")
	}
}

func TestEffectiveDatatype(t *testing.T) {
	tests := []struct {
		term Term
		want string
	}{
		{NewLiteral("a"), XSDString},
		{NewLangLiteral("a", "en"), LangStringT},
		{NewInteger(1), XSDInteger},
		{NewIRI("http://x"), ""},
		{NewBlank("b"), ""},
	}
	for _, tc := range tests {
		if got := tc.term.EffectiveDatatype(); got != tc.want {
			t.Errorf("EffectiveDatatype(%s) = %q, want %q", tc.term, got, tc.want)
		}
	}
}

func TestTermLessTotalOrder(t *testing.T) {
	terms := []Term{
		NewIRI("http://a"), NewIRI("http://b"),
		NewBlank("a"), NewBlank("b"),
		NewLiteral("a"), NewLangLiteral("a", "en"), NewInteger(1),
	}
	for i, a := range terms {
		if a.Less(a) {
			t.Errorf("term %d Less than itself", i)
		}
		for j, b := range terms {
			if i == j {
				continue
			}
			if a.Less(b) == b.Less(a) && !a.Equal(b) {
				t.Errorf("Less not antisymmetric for %s / %s", a, b)
			}
		}
	}
	if !NewIRI("z").Less(NewBlank("a")) {
		t.Error("IRIs must sort before blanks")
	}
	if !NewBlank("z").Less(NewLiteral("a")) {
		t.Error("blanks must sort before literals")
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	inputs := []string{
		"plain", `with "quotes"`, "tab\there", "new\nline", "back\\slash", "cr\rhere",
		"unicode é世", "",
	}
	for _, in := range inputs {
		esc := escapeLiteral(in)
		got, err := unescapeLiteral(esc)
		if err != nil {
			t.Fatalf("unescape(%q): %v", esc, err)
		}
		if got != in {
			t.Errorf("round trip %q -> %q -> %q", in, esc, got)
		}
	}
}

func TestUnescapeUnicodeEscapes(t *testing.T) {
	got, err := unescapeLiteral(`café`)
	if err != nil || got != "café" {
		t.Fatalf("\\u escape: got %q, %v", got, err)
	}
	got, err = unescapeLiteral(`\U0001F600`)
	if err != nil || got != "😀" {
		t.Fatalf("\\U escape: got %q, %v", got, err)
	}
	for _, bad := range []string{`\`, `\u12`, `\uZZZZ`, `\q`} {
		if _, err := unescapeLiteral(bad); err == nil {
			t.Errorf("unescape(%q) should fail", bad)
		}
	}
}

func TestTripleValidateAndString(t *testing.T) {
	good := Triple{NewIRI("http://s"), NewIRI("http://p"), NewLiteral("o")}
	if err := good.Validate(); err != nil {
		t.Errorf("valid triple rejected: %v", err)
	}
	if got := good.String(); got != `<http://s> <http://p> "o" .` {
		t.Errorf("String() = %q", got)
	}
	badSubj := Triple{NewLiteral("s"), NewIRI("http://p"), NewLiteral("o")}
	if err := badSubj.Validate(); err == nil {
		t.Error("literal subject accepted")
	}
	badPred := Triple{NewIRI("http://s"), NewBlank("p"), NewLiteral("o")}
	if err := badPred.Validate(); err == nil {
		t.Error("blank predicate accepted")
	}
}

func TestSortTriples(t *testing.T) {
	ts := []Triple{
		{NewIRI("http://b"), NewIRI("http://p"), NewInteger(1)},
		{NewIRI("http://a"), NewIRI("http://q"), NewInteger(2)},
		{NewIRI("http://a"), NewIRI("http://p"), NewInteger(3)},
		{NewIRI("http://a"), NewIRI("http://p"), NewInteger(1)},
	}
	SortTriples(ts)
	for i := 1; i < len(ts); i++ {
		if ts[i].Less(ts[i-1]) {
			t.Fatalf("not sorted at %d: %s after %s", i, ts[i], ts[i-1])
		}
	}
	if ts[0].S.Value != "http://a" || ts[len(ts)-1].S.Value != "http://b" {
		t.Errorf("unexpected order: %v", ts)
	}
}
