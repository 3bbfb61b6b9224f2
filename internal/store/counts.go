package store

import (
	"maps"
	"slices"

	"sofos/internal/rdf"
)

// idCounts holds, for one triple component (subject, predicate or object),
// how many live triples carry each ID there. The count of an ID is
// base[id] + delta[id]: base is immutable once built and shared by reference
// between a graph and its forks and clones, delta is the owner's private
// adjustment since base was built. Compaction and bulk loads — which are
// O(|G|) already — fold delta into a fresh base, so between them a fork
// copies only the IDs the overlay touched.
type idCounts struct {
	base     map[rdf.ID]int // never written after it is installed
	delta    map[rdf.ID]int // signed, no zero entries
	distinct int            // IDs with a positive count
}

// newIDCounts adopts m, which the caller must not touch again, as the base.
func newIDCounts(m map[rdf.ID]int) idCounts {
	return idCounts{base: m, distinct: len(m)}
}

func (c *idCounts) get(id rdf.ID) int { return c.base[id] + c.delta[id] }

// add moves id's count by d (which must not take it below zero).
func (c *idCounts) add(id rdf.ID, d int) {
	if c.delta == nil {
		c.delta = make(map[rdf.ID]int)
	}
	nd := c.delta[id] + d
	if nd == 0 {
		delete(c.delta, id)
	} else {
		c.delta[id] = nd
	}
	switch now := c.base[id] + nd; {
	case now == 0:
		c.distinct--
	case now == d:
		c.distinct++
	}
}

// fork returns an independent copy sharing base.
func (c *idCounts) fork() idCounts {
	return idCounts{base: c.base, delta: maps.Clone(c.delta), distinct: c.distinct}
}

// fold merges delta into a fresh base, leaving delta empty.
func (c *idCounts) fold() {
	if len(c.delta) == 0 {
		return
	}
	if len(c.base) == 0 {
		// Nothing to subtract from, so every adjustment is a positive count.
		c.base, c.delta = c.delta, nil
		return
	}
	nb := make(map[rdf.ID]int, len(c.base)+len(c.delta))
	maps.Copy(nb, c.base)
	for id, d := range c.delta {
		if n := nb[id] + d; n == 0 {
			delete(nb, id)
		} else {
			nb[id] = n
		}
	}
	c.base, c.delta = nb, nil
}

// each calls yield for every ID with a positive count, in no particular order.
func (c *idCounts) each(yield func(id rdf.ID, n int)) {
	for id, n := range c.base {
		if n += c.delta[id]; n > 0 {
			yield(id, n)
		}
	}
	for id, d := range c.delta {
		if _, inBase := c.base[id]; !inBase {
			yield(id, d)
		}
	}
}

// sortedIDs returns the IDs with a positive count in ascending order.
func (c *idCounts) sortedIDs() []rdf.ID {
	ids := make([]rdf.ID, 0, c.distinct)
	c.each(func(id rdf.ID, _ int) { ids = append(ids, id) })
	slices.Sort(ids)
	return ids
}

// decOrDelete decrements a counter, deleting the key at zero so len() of the
// counter map equals the number of distinct live components.
func decOrDelete(m map[rdf.ID]int, k rdf.ID) {
	if m[k] <= 1 {
		delete(m, k)
	} else {
		m[k]--
	}
}
