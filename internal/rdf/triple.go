package rdf

import (
	"fmt"
	"sort"
	"strings"
)

// Triple is an RDF triple of terms. Valid triples have an IRI or blank node
// subject, an IRI predicate, and any term as object; Validate enforces this.
type Triple struct {
	S, P, O Term
}

// Validate reports whether the triple is well formed per the RDF model.
func (t Triple) Validate() error {
	if t.S.Kind == KindLiteral {
		return fmt.Errorf("rdf: literal subject in triple %s", t)
	}
	if t.P.Kind != KindIRI {
		return fmt.Errorf("rdf: non-IRI predicate in triple %s", t)
	}
	return nil
}

// String renders the triple in N-Triples syntax (with trailing dot).
func (t Triple) String() string {
	var b strings.Builder
	t.S.writeNT(&b)
	b.WriteByte(' ')
	t.P.writeNT(&b)
	b.WriteByte(' ')
	t.O.writeNT(&b)
	b.WriteString(" .")
	return b.String()
}

// Less orders triples lexicographically by subject, predicate, object.
func (t Triple) Less(o Triple) bool {
	if !t.S.Equal(o.S) {
		return t.S.Less(o.S)
	}
	if !t.P.Equal(o.P) {
		return t.P.Less(o.P)
	}
	return t.O.Less(o.O)
}

// SortTriples sorts a slice of triples in the canonical order used for
// deterministic serialization.
func SortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
}
