package rdf

import (
	"fmt"
	"sync"
)

// ID is a dense dictionary identifier for a term. ID 0 is reserved and never
// assigned, so it can be used as a "no term" sentinel by callers.
type ID uint32

// NoID is the reserved sentinel identifier.
const NoID ID = 0

// Dict interns terms to dense IDs and resolves IDs back to terms. It is the
// dictionary-encoding layer every store and engine component builds on: all
// triple indexes and bindings operate on IDs, and terms are only materialized
// at the edges (parsing and result rendering).
//
// Dict is safe for concurrent use. The dictionary is append-only — IDs are
// never reassigned or removed — which lets a published graph snapshot and the
// writable fork preparing the next generation share one dictionary: readers
// resolving IDs of the published snapshot can never observe an inconsistent
// entry, only interleave with the writer appending fresh terms.
type Dict struct {
	mu     sync.RWMutex
	byTerm map[Term]ID
	terms  []Term // terms[i] corresponds to ID(i+1)
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byTerm: make(map[Term]ID)}
}

// Intern returns the ID for the term, assigning a fresh one if needed.
func (d *Dict) Intern(t Term) ID {
	d.mu.RLock()
	id, ok := d.byTerm[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byTerm[t]; ok {
		return id
	}
	d.terms = append(d.terms, t)
	id = ID(len(d.terms))
	d.byTerm[t] = id
	return id
}

// Lookup returns the ID of a term if it has been interned.
func (d *Dict) Lookup(t Term) (ID, bool) {
	d.mu.RLock()
	id, ok := d.byTerm[t]
	d.mu.RUnlock()
	return id, ok
}

// Term resolves an ID back to its term. It panics on the sentinel or an
// out-of-range ID, which always indicates a programming error.
func (d *Dict) Term(id ID) Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id == NoID || int(id) > len(d.terms) {
		panic(fmt.Sprintf("rdf: dictionary lookup of invalid id %d (size %d)", id, len(d.terms)))
	}
	return d.terms[id-1]
}

// Len returns the number of interned terms.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// Clone returns an independent copy of the dictionary. Graph.Clone uses this
// so mutating a cloned graph never grows the original's dictionary.
func (d *Dict) Clone() *Dict {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c := &Dict{
		byTerm: make(map[Term]ID, len(d.byTerm)),
		terms:  make([]Term, len(d.terms)),
	}
	copy(c.terms, d.terms)
	for t, id := range d.byTerm {
		c.byTerm[t] = id
	}
	return c
}

// EachTerm calls fn for every interned (id, term) pair in ID order. fn must
// not mutate the dictionary.
func (d *Dict) EachTerm(fn func(ID, Term) bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i, t := range d.terms {
		if !fn(ID(i+1), t) {
			return
		}
	}
}

// EncodedTriple is a dictionary-encoded triple.
type EncodedTriple [3]ID

// S returns the subject ID.
func (e EncodedTriple) S() ID { return e[0] }

// P returns the predicate ID.
func (e EncodedTriple) P() ID { return e[1] }

// O returns the object ID.
func (e EncodedTriple) O() ID { return e[2] }
