package rdf

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseNTriplesBasic(t *testing.T) {
	in := `<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .
<http://ex.org/s> <http://ex.org/q> "lit" .
_:b0 <http://ex.org/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex.org/s> <http://ex.org/r> "hi"@en .
`
	ts, err := ParseString(in)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(ts) != 4 {
		t.Fatalf("got %d triples, want 4", len(ts))
	}
	if ts[0].O.Kind != KindIRI || ts[1].O.Kind != KindLiteral {
		t.Error("object kinds wrong")
	}
	if ts[2].S.Kind != KindBlank || ts[2].S.Value != "b0" {
		t.Errorf("blank subject = %v", ts[2].S)
	}
	if ts[2].O.Datatype != XSDInteger {
		t.Errorf("datatype = %q", ts[2].O.Datatype)
	}
	if ts[3].O.Lang != "en" {
		t.Errorf("lang = %q", ts[3].O.Lang)
	}
}

func TestParseCommentsAndBlankLines(t *testing.T) {
	in := `# a comment
<http://s> <http://p> "a" . # trailing comment

# another
<http://s> <http://p> "b" .`
	ts, err := ParseString(in)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(ts) != 2 {
		t.Fatalf("got %d triples, want 2", len(ts))
	}
}

func TestParseTurtlePrefixes(t *testing.T) {
	in := `@prefix ex: <http://ex.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s ex:p ex:o .
ex:s a ex:Class .
ex:s ex:count "4"^^xsd:integer .
`
	ts, err := ParseString(in)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(ts) != 3 {
		t.Fatalf("got %d triples, want 3", len(ts))
	}
	if ts[0].S.Value != "http://ex.org/s" {
		t.Errorf("prefixed name expanded to %q", ts[0].S.Value)
	}
	if ts[1].P.Value != RDFType {
		t.Errorf("`a` expanded to %q", ts[1].P.Value)
	}
	if ts[2].O.Datatype != XSDInteger {
		t.Errorf("prefixed datatype expanded to %q", ts[2].O.Datatype)
	}
}

func TestParseSPARQLStylePrefix(t *testing.T) {
	in := `PREFIX ex: <http://ex.org/>
ex:s ex:p ex:o .`
	ts, err := ParseString(in)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(ts) != 1 || ts[0].S.Value != "http://ex.org/s" {
		t.Fatalf("got %v", ts)
	}
}

func TestParseBase(t *testing.T) {
	in := `@base <http://ex.org/> .
<s> <p> <o> .`
	ts, err := ParseString(in)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if ts[0].S.Value != "http://ex.org/s" {
		t.Errorf("relative IRI resolved to %q", ts[0].S.Value)
	}
}

func TestParsePredicateObjectLists(t *testing.T) {
	in := `@prefix ex: <http://ex.org/> .
ex:s ex:p ex:a, ex:b ;
     ex:q "x" ;
     a ex:T .
`
	ts, err := ParseString(in)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(ts) != 4 {
		t.Fatalf("got %d triples, want 4: %v", len(ts), ts)
	}
	for _, tr := range ts {
		if tr.S.Value != "http://ex.org/s" {
			t.Errorf("subject drifted: %v", tr.S)
		}
	}
}

func TestParseTrailingSemicolonBeforeDot(t *testing.T) {
	in := `@prefix ex: <http://ex.org/> .
ex:s ex:p ex:o ; .`
	ts, err := ParseString(in)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(ts) != 1 {
		t.Fatalf("got %d triples, want 1", len(ts))
	}
}

func TestParseNumericShorthands(t *testing.T) {
	in := `@prefix ex: <http://ex.org/> .
ex:s ex:i 42 .
ex:s ex:n -7 .
ex:s ex:d 3.25 .
ex:s ex:e 1.5e3 .
ex:s ex:b true .
ex:s ex:c false .
`
	ts, err := ParseString(in)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	wantDT := []string{XSDInteger, XSDInteger, XSDDecimal, XSDDouble, XSDBoolean, XSDBoolean}
	if len(ts) != len(wantDT) {
		t.Fatalf("got %d triples, want %d", len(ts), len(wantDT))
	}
	for i, tr := range ts {
		if tr.O.Datatype != wantDT[i] {
			t.Errorf("triple %d: datatype %q, want %q", i, tr.O.Datatype, wantDT[i])
		}
	}
}

func TestParseEscapedLiterals(t *testing.T) {
	in := `<http://s> <http://p> "line\nbreak \"quoted\" tab\there \\ done" .`
	ts, err := ParseString(in)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	want := "line\nbreak \"quoted\" tab\there \\ done"
	if ts[0].O.Value != want {
		t.Errorf("literal = %q, want %q", ts[0].O.Value, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"literal subject", `"s" <http://p> <http://o> .`},
		{"blank predicate", `<http://s> _:p <http://o> .`},
		{"undeclared prefix", `ex:s ex:p ex:o .`},
		{"unterminated iri", `<http://s`},
		{"unterminated literal", `<http://s> <http://p> "abc`},
		{"missing dot", `<http://s> <http://p> <http://o>`},
		{"bad directive", `@frobnicate <x> .`},
		{"empty blank label", `_: <http://p> <http://o> .`},
		{"bad escape", `<http://s> <http://p> "a\q" .`},
		{"empty lang", `<http://s> <http://p> "a"@ .`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseString(tc.in); err == nil {
				t.Errorf("ParseString(%q) succeeded, want error", tc.in)
			}
		})
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := ParseString("<http://s> <http://p>\n\"s\" oops")
	if err == nil {
		t.Fatal("want error")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line < 1 {
		t.Errorf("line = %d", pe.Line)
	}
	if !strings.Contains(pe.Error(), "parse error") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

func TestEachStopsOnCallbackError(t *testing.T) {
	in := `<http://s> <http://p> "a" .
<http://s> <http://p> "b" .`
	p := NewParser(strings.NewReader(in))
	n := 0
	sentinel := &ParseError{Msg: "stop"}
	err := p.Each(func(Triple) error { n++; return sentinel })
	if err != sentinel {
		t.Errorf("err = %v, want sentinel", err)
	}
	if n != 1 {
		t.Errorf("callback ran %d times, want 1", n)
	}
}

// TestNTriplesRoundTripProperty: serialize→parse is the identity on random
// valid triples.
func TestNTriplesRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prop := func() bool {
		tr := randomTriple(rng)
		parsed, err := ParseString(tr.String())
		if err != nil {
			t.Logf("parse error on %s: %v", tr, err)
			return false
		}
		return len(parsed) == 1 && parsed[0] == tr
	}
	conf := &quick.Config{MaxCount: 400}
	if err := quick.Check(func() bool { return prop() }, conf); err != nil {
		t.Error(err)
	}
}

// randomTriple builds a random well-formed triple.
func randomTriple(rng *rand.Rand) Triple {
	subj := NewIRI("http://ex.org/s/" + randString(rng))
	if rng.Intn(4) == 0 {
		subj = NewBlank("b" + randString(rng))
	}
	pred := NewIRI("http://ex.org/p/" + randString(rng))
	var obj Term
	switch rng.Intn(5) {
	case 0:
		obj = NewIRI("http://ex.org/o/" + randString(rng))
	case 1:
		obj = NewBlank("o" + randString(rng))
	case 2:
		obj = NewLiteral("v " + randString(rng) + "\n\"x\"")
	case 3:
		obj = NewInteger(rng.Int63n(1000) - 500)
	default:
		obj = NewLangLiteral(randString(rng), "en")
	}
	return Triple{S: subj, P: pred, O: obj}
}

func TestWriteNTriplesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var ts []Triple
	for i := 0; i < 100; i++ {
		ts = append(ts, randomTriple(rng))
	}
	var b strings.Builder
	if err := WriteNTriples(&b, ts); err != nil {
		t.Fatalf("WriteNTriples: %v", err)
	}
	parsed, err := ParseString(b.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(parsed) != len(ts) {
		t.Fatalf("round trip count %d != %d", len(parsed), len(ts))
	}
	for i := range ts {
		if parsed[i] != ts[i] {
			t.Errorf("triple %d changed: %s -> %s", i, ts[i], parsed[i])
		}
	}
}

func TestTurtleWriterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ts []Triple
	for i := 0; i < 60; i++ {
		ts = append(ts, randomTriple(rng))
	}
	tw := NewTurtleWriter(map[string]string{
		"ex": "http://ex.org/",
		"s":  "http://ex.org/s/",
	})
	var b strings.Builder
	if err := tw.Write(&b, ts); err != nil {
		t.Fatalf("TurtleWriter.Write: %v", err)
	}
	parsed, err := ParseString(b.String())
	if err != nil {
		t.Fatalf("re-parse turtle:\n%s\nerror: %v", b.String(), err)
	}
	if len(parsed) != len(dedup(ts)) {
		t.Fatalf("round trip count %d != %d", len(parsed), len(dedup(ts)))
	}
	SortTriples(parsed)
	want := dedup(ts)
	SortTriples(want)
	for i := range want {
		if parsed[i] != want[i] {
			t.Errorf("triple %d changed: %s -> %s", i, want[i], parsed[i])
		}
	}
}

// dedup removes duplicate triples (Turtle grouping merges them).
func dedup(ts []Triple) []Triple {
	seen := make(map[Triple]bool, len(ts))
	var out []Triple
	for _, t := range ts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

func TestNTriplesString(t *testing.T) {
	ts := []Triple{{NewIRI("http://s"), NewIRI("http://p"), NewLiteral("o")}}
	got := NTriplesString(ts)
	if got != "<http://s> <http://p> \"o\" .\n" {
		t.Errorf("NTriplesString = %q", got)
	}
}
