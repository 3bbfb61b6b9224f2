package store

import "sofos/internal/rdf"

// NestedMapGraph is the trivially correct model the columnar Graph is tested
// against: three nested-map indexes (map[ID]map[ID]map[ID]struct{}) for SPO,
// POS, and OSP. TestGraphPropertyVsNestedMap and TestDifferentialBulkLoad
// assert that Graph produces the same Match and Estimate results. It
// operates on encoded IDs only (no dictionary, no locking).
type NestedMapGraph struct {
	spo nestedIndex
	pos nestedIndex
	osp nestedIndex
	n   int

	countS map[rdf.ID]int
	countP map[rdf.ID]int
	countO map[rdf.ID]int
}

// nestedIndex is a three-level adjacency: first key → second key → set of
// thirds.
type nestedIndex map[rdf.ID]map[rdf.ID]map[rdf.ID]struct{}

func (ix nestedIndex) add(a, b, c rdf.ID) bool {
	m2, ok := ix[a]
	if !ok {
		m2 = make(map[rdf.ID]map[rdf.ID]struct{})
		ix[a] = m2
	}
	m3, ok := m2[b]
	if !ok {
		m3 = make(map[rdf.ID]struct{})
		m2[b] = m3
	}
	if _, exists := m3[c]; exists {
		return false
	}
	m3[c] = struct{}{}
	return true
}

func (ix nestedIndex) remove(a, b, c rdf.ID) bool {
	m2, ok := ix[a]
	if !ok {
		return false
	}
	m3, ok := m2[b]
	if !ok {
		return false
	}
	if _, exists := m3[c]; !exists {
		return false
	}
	delete(m3, c)
	if len(m3) == 0 {
		delete(m2, b)
		if len(m2) == 0 {
			delete(ix, a)
		}
	}
	return true
}

// NewNestedMapGraph returns an empty reference store.
func NewNestedMapGraph() *NestedMapGraph {
	return &NestedMapGraph{
		spo:    make(nestedIndex),
		pos:    make(nestedIndex),
		osp:    make(nestedIndex),
		countS: make(map[rdf.ID]int),
		countP: make(map[rdf.ID]int),
		countO: make(map[rdf.ID]int),
	}
}

// Len returns the number of triples.
func (g *NestedMapGraph) Len() int { return g.n }

// Add inserts an encoded triple, reporting whether it was new.
func (g *NestedMapGraph) Add(s, p, o rdf.ID) bool {
	if !g.spo.add(s, p, o) {
		return false
	}
	g.pos.add(p, o, s)
	g.osp.add(o, s, p)
	g.n++
	g.countS[s]++
	g.countP[p]++
	g.countO[o]++
	return true
}

// Remove deletes an encoded triple, reporting whether it was present.
func (g *NestedMapGraph) Remove(s, p, o rdf.ID) bool {
	if !g.spo.remove(s, p, o) {
		return false
	}
	g.pos.remove(p, o, s)
	g.osp.remove(o, s, p)
	g.n--
	decOrDelete(g.countS, s)
	decOrDelete(g.countP, p)
	decOrDelete(g.countO, o)
	return true
}

// Clone returns a deep copy.
func (g *NestedMapGraph) Clone() *NestedMapGraph {
	c := NewNestedMapGraph()
	g.Match(rdf.NoID, rdf.NoID, rdf.NoID, func(s, p, o rdf.ID) bool {
		c.Add(s, p, o)
		return true
	})
	return c
}

// Match invokes yield for every triple matching the pattern (NoID components
// are wildcards), choosing the best index per bound-component combination.
func (g *NestedMapGraph) Match(s, p, o rdf.ID, yield func(s, p, o rdf.ID) bool) {
	switch {
	case s != rdf.NoID && p != rdf.NoID && o != rdf.NoID:
		if m2, ok := g.spo[s]; ok {
			if m3, ok := m2[p]; ok {
				if _, ok := m3[o]; ok {
					yield(s, p, o)
				}
			}
		}
	case s != rdf.NoID && p != rdf.NoID:
		if m2, ok := g.spo[s]; ok {
			for oo := range m2[p] {
				if !yield(s, p, oo) {
					return
				}
			}
		}
	case s != rdf.NoID && o != rdf.NoID:
		if m2, ok := g.osp[o]; ok {
			for pp := range m2[s] {
				if !yield(s, pp, o) {
					return
				}
			}
		}
	case p != rdf.NoID && o != rdf.NoID:
		if m2, ok := g.pos[p]; ok {
			for ss := range m2[o] {
				if !yield(ss, p, o) {
					return
				}
			}
		}
	case s != rdf.NoID:
		if m2, ok := g.spo[s]; ok {
			for pp, m3 := range m2 {
				for oo := range m3 {
					if !yield(s, pp, oo) {
						return
					}
				}
			}
		}
	case p != rdf.NoID:
		if m2, ok := g.pos[p]; ok {
			for oo, m3 := range m2 {
				for ss := range m3 {
					if !yield(ss, p, oo) {
						return
					}
				}
			}
		}
	case o != rdf.NoID:
		if m2, ok := g.osp[o]; ok {
			for ss, m3 := range m2 {
				for pp := range m3 {
					if !yield(ss, pp, o) {
						return
					}
				}
			}
		}
	default:
		for ss, m2 := range g.spo {
			for pp, m3 := range m2 {
				for oo := range m3 {
					if !yield(ss, pp, oo) {
						return
					}
				}
			}
		}
	}
}

// Estimate returns the exact number of triples matching the pattern, read
// off an index level in O(1).
func (g *NestedMapGraph) Estimate(s, p, o rdf.ID) int {
	switch {
	case s != rdf.NoID && p != rdf.NoID && o != rdf.NoID:
		if m2, ok := g.spo[s]; ok {
			if m3, ok := m2[p]; ok {
				if _, ok := m3[o]; ok {
					return 1
				}
			}
		}
		return 0
	case s != rdf.NoID && p != rdf.NoID:
		if m2, ok := g.spo[s]; ok {
			return len(m2[p])
		}
		return 0
	case s != rdf.NoID && o != rdf.NoID:
		if m2, ok := g.osp[o]; ok {
			return len(m2[s])
		}
		return 0
	case p != rdf.NoID && o != rdf.NoID:
		if m2, ok := g.pos[p]; ok {
			return len(m2[o])
		}
		return 0
	case s != rdf.NoID:
		return g.countS[s]
	case p != rdf.NoID:
		return g.countP[p]
	case o != rdf.NoID:
		return g.countO[o]
	default:
		return g.n
	}
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
