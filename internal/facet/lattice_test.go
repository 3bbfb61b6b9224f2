package facet

import (
	"testing"
	"testing/quick"
)

func popLattice(t testing.TB) *Lattice {
	l, err := NewLattice(popFacet(t))
	if err != nil {
		t.Fatalf("NewLattice: %v", err)
	}
	return l
}

func TestLatticeSizeAndLevels(t *testing.T) {
	l := popLattice(t)
	if l.Size() != 8 {
		t.Fatalf("Size = %d, want 8", l.Size())
	}
	levels := l.Levels()
	wantWidths := []int{1, 3, 3, 1}
	if len(levels) != 4 {
		t.Fatalf("levels = %d", len(levels))
	}
	for k, w := range wantWidths {
		if len(levels[k]) != w {
			t.Errorf("level %d width = %d, want %d", k, len(levels[k]), w)
		}
	}
}

func TestLatticeTopApex(t *testing.T) {
	l := popLattice(t)
	if l.Top().Mask != 7 || l.Levels()[0][0].Mask != 0 {
		t.Errorf("top=%b apex=%b", l.Top().Mask, l.Levels()[0][0].Mask)
	}
}

func TestDescendantsAncestors(t *testing.T) {
	l := popLattice(t)
	v := l.Facet.View(Mask(0b101))
	desc := l.Descendants(v)
	if len(desc) != 4 { // {}, {0}, {2}, {0,2}
		t.Fatalf("descendants = %v", desc)
	}
	for _, d := range desc {
		if !v.Covers(d) {
			t.Errorf("descendant %v not covered", d)
		}
	}
	var anc []View // the views v rolls up from
	for _, w := range l.Views() {
		if w.Covers(v) {
			anc = append(anc, w)
		}
	}
	if len(anc) != 2 || anc[0].Mask != 0b101 || anc[1].Mask != 0b111 {
		t.Fatalf("ancestors = %v", anc)
	}
}

// TestLatticeOrderLaws checks the partial-order laws on the full lattice:
// reflexivity, antisymmetry and transitivity of Covers.
func TestLatticeOrderLaws(t *testing.T) {
	l := popLattice(t)
	vs := l.Views()
	for _, a := range vs {
		if !a.Covers(a) {
			t.Errorf("%v not reflexive", a)
		}
		for _, b := range vs {
			if a.Covers(b) && b.Covers(a) && a.Mask != b.Mask {
				t.Errorf("antisymmetry violated: %v %v", a, b)
			}
			for _, c := range vs {
				if a.Covers(b) && b.Covers(c) && !a.Covers(c) {
					t.Errorf("transitivity violated: %v %v %v", a, b, c)
				}
			}
		}
	}
}

// TestMaskSubsetProperty: Subset agrees with the bitwise definition.
func TestMaskSubsetProperty(t *testing.T) {
	prop := func(a, b uint16) bool {
		ma, mb := Mask(a), Mask(b)
		want := uint32(a)&uint32(b) == uint32(a)
		return ma.Subset(mb) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestDescendantCountProperty: a view at level k has exactly 2^k
// descendants (including itself).
func TestDescendantCountProperty(t *testing.T) {
	l := popLattice(t)
	for _, v := range l.Views() {
		want := 1 << v.Level()
		if got := len(l.Descendants(v)); got != want {
			t.Errorf("view %v: %d descendants, want %d", v, got, want)
		}
	}
}

func TestPopCount(t *testing.T) {
	if PopCount(Mask(0b101001)) != 3 {
		t.Error("PopCount wrong")
	}
}

func TestNewLatticeInvalidFacet(t *testing.T) {
	f := popFacet(t)
	f.Dims = nil
	if _, err := NewLattice(f); err == nil {
		t.Error("invalid facet accepted")
	}
}
