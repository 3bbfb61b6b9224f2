package facet

import (
	"math/bits"
	"sort"
)

// Lattice is the full view lattice V(F) of a facet: all 2^|X| dimension
// subsets, partially ordered by set inclusion. The top (full mask) is the
// finest view; the apex (empty mask) is the grand total.
type Lattice struct {
	Facet *Facet
	views []View // indexed by mask
}

// NewLattice enumerates the lattice of f.
func NewLattice(f *Facet) (*Lattice, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	n := 1 << len(f.Dims)
	l := &Lattice{Facet: f, views: make([]View, n)}
	for m := 0; m < n; m++ {
		l.views[m] = f.View(Mask(m))
	}
	return l, nil
}

// Size returns the number of views, 2^|X|.
func (l *Lattice) Size() int { return len(l.views) }

// Views returns all views ordered by mask.
func (l *Lattice) Views() []View { return append([]View(nil), l.views...) }

// Top returns the finest view (all dimensions).
func (l *Lattice) Top() View { return l.views[len(l.views)-1] }

// Levels returns the views grouped by level, from apex (level 0) upward.
func (l *Lattice) Levels() [][]View {
	out := make([][]View, len(l.Facet.Dims)+1)
	for _, v := range l.views {
		out[v.Level()] = append(out[v.Level()], v)
	}
	return out
}

// Descendants returns every view w ⊑ v (strictly below or equal, per the
// subset order), i.e. all roll-ups answerable from v, including v itself.
func (l *Lattice) Descendants(v View) []View {
	// Enumerate submasks of v.Mask via the standard subset-iteration trick.
	var out []View
	m := uint32(v.Mask)
	sub := m
	for {
		out = append(out, l.views[Mask(sub)])
		if sub == 0 {
			break
		}
		sub = (sub - 1) & m
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Mask < out[j].Mask })
	return out
}

// PopCount exposes the level computation for reports.
func PopCount(m Mask) int { return bits.OnesCount32(uint32(m)) }
