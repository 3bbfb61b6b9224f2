// Package rdf implements the RDF data model used throughout SOFOS: terms
// (IRIs, blank nodes, and literals), triples, dictionary encoding of terms to
// dense integer identifiers, and parsing/serialization of a Turtle subset and
// N-Triples.
//
// A knowledge graph G is a set of triples (s, p, o) ∈ (I ∪ B) × I × (I ∪ B ∪ L)
// where I are IRIs, B blank nodes, and L literals, following §3 of the SOFOS
// paper.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

const (
	// KindIRI is an IRI reference such as <http://example.org/x>.
	KindIRI TermKind = iota
	// KindBlank is a blank node such as _:b0.
	KindBlank
	// KindLiteral is a literal value, optionally typed or language-tagged.
	KindLiteral
)

// String returns a human-readable name of the kind.
func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "iri"
	case KindBlank:
		return "blank"
	case KindLiteral:
		return "literal"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Common XSD datatype IRIs used by the engine for typed literals.
const (
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDGYear   = "http://www.w3.org/2001/XMLSchema#gYear"
)

// RDF vocabulary IRIs.
const (
	RDFType     = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	RDFSLabel   = "http://www.w3.org/2000/01/rdf-schema#label"
	LangStringT = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
)

// Term is an RDF term. The zero value is the IRI with empty value, which is
// never produced by the parsers and may be used as a sentinel.
//
// For KindIRI, Value holds the IRI. For KindBlank, Value holds the blank node
// label (without the "_:" prefix). For KindLiteral, Value holds the lexical
// form, Datatype the datatype IRI (empty means xsd:string), and Lang an
// optional language tag (which forces the datatype to rdf:langString).
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
	Lang     string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// NewBlank returns a blank node term with the given label (no "_:" prefix).
func NewBlank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// NewLiteral returns a plain string literal.
func NewLiteral(lexical string) Term {
	return Term{Kind: KindLiteral, Value: lexical}
}

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lexical, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged string literal.
func NewLangLiteral(lexical, lang string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Lang: lang}
}

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatInt(v, 10), Datatype: XSDInteger}
}

// NewDouble returns an xsd:double literal.
func NewDouble(v float64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatFloat(v, 'g', -1, 64), Datatype: XSDDouble}
}

// NewDecimal returns an xsd:decimal literal.
func NewDecimal(v float64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatFloat(v, 'f', -1, 64), Datatype: XSDDecimal}
}

// NewBoolean returns an xsd:boolean literal.
func NewBoolean(v bool) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatBool(v), Datatype: XSDBoolean}
}

// NewYear returns an xsd:gYear literal, used for temporal dimensions.
func NewYear(y int) Term {
	return Term{Kind: KindLiteral, Value: strconv.Itoa(y), Datatype: XSDGYear}
}

// IsNumeric reports whether the term is a literal of a numeric XSD type.
func (t Term) IsNumeric() bool {
	if t.Kind != KindLiteral {
		return false
	}
	switch t.Datatype {
	case XSDInteger, XSDDecimal, XSDDouble:
		return true
	}
	return false
}

// EffectiveDatatype returns the datatype IRI of a literal, normalizing the
// implicit defaults: plain literals are xsd:string and language-tagged
// literals are rdf:langString. For non-literals it returns "".
func (t Term) EffectiveDatatype() string {
	if t.Kind != KindLiteral {
		return ""
	}
	if t.Lang != "" {
		return LangStringT
	}
	if t.Datatype == "" {
		return XSDString
	}
	return t.Datatype
}

// Equal reports term equality. Literals compare by lexical form, datatype,
// and language tag (RDF term equality, not value equality).
func (t Term) Equal(o Term) bool { return t == o }

// Less imposes a total order over terms: IRIs < blanks < literals, then by
// value, datatype, and language. It is used for deterministic output.
func (t Term) Less(o Term) bool {
	if t.Kind != o.Kind {
		return t.Kind < o.Kind
	}
	if t.Value != o.Value {
		return t.Value < o.Value
	}
	if t.Datatype != o.Datatype {
		return t.Datatype < o.Datatype
	}
	return t.Lang < o.Lang
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	var b strings.Builder
	t.writeNT(&b)
	return b.String()
}

// writeNT writes the N-Triples rendering of the term to b.
func (t Term) writeNT(b *strings.Builder) {
	switch t.Kind {
	case KindIRI:
		b.WriteByte('<')
		b.WriteString(t.Value)
		b.WriteByte('>')
	case KindBlank:
		b.WriteString("_:")
		b.WriteString(t.Value)
	case KindLiteral:
		b.WriteByte('"')
		b.WriteString(escapeLiteral(t.Value))
		b.WriteByte('"')
		if t.Lang != "" {
			b.WriteByte('@')
			b.WriteString(t.Lang)
		} else if t.Datatype != "" && t.Datatype != XSDString {
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		}
	}
}

// escapeLiteral escapes the characters that N-Triples requires escaping
// inside a quoted literal.
func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// unescapeLiteral reverses escapeLiteral, handling the standard N-Triples
// string escapes including \uXXXX and \UXXXXXXXX.
func unescapeLiteral(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("rdf: dangling escape at end of literal %q", s)
		}
		switch s[i] {
		case 't':
			b.WriteByte('\t')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 'b':
			b.WriteByte('\b')
		case 'f':
			b.WriteByte('\f')
		case '"':
			b.WriteByte('"')
		case '\'':
			b.WriteByte('\'')
		case '\\':
			b.WriteByte('\\')
		case 'u', 'U':
			n := 4
			if s[i] == 'U' {
				n = 8
			}
			if i+n >= len(s) {
				return "", fmt.Errorf("rdf: truncated \\%c escape in literal %q", s[i], s)
			}
			code, err := strconv.ParseUint(s[i+1:i+1+n], 16, 32)
			if err != nil {
				return "", fmt.Errorf("rdf: invalid \\%c escape in literal %q: %w", s[i], s, err)
			}
			b.WriteRune(rune(code))
			i += n
		default:
			return "", fmt.Errorf("rdf: unknown escape \\%c in literal %q", s[i], s)
		}
	}
	return b.String(), nil
}
