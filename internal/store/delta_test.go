package store

import (
	"fmt"
	"testing"

	"sofos/internal/rdf"
)

func deltaTriple(i int) rdf.Triple {
	return rdf.Triple{
		S: rdf.NewIRI(fmt.Sprintf("http://ex.org/s%d", i)),
		P: rdf.NewIRI("http://ex.org/p"),
		O: rdf.NewInteger(int64(i)),
	}
}

func TestApplyEffectiveDelta(t *testing.T) {
	g := NewGraph()
	pre := []rdf.Triple{deltaTriple(1), deltaTriple(2)}
	if _, err := g.LoadTriples(pre); err != nil {
		t.Fatal(err)
	}
	v0 := g.Version()
	// Insert one duplicate, one new (twice), and delete one present, one
	// absent triple.
	d, err := g.Apply(
		[]rdf.Triple{deltaTriple(1), deltaTriple(3), deltaTriple(3)},
		[]rdf.Triple{deltaTriple(2), deltaTriple(9)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Inserted) != 1 || d.Inserted[0] != deltaTriple(3) {
		t.Errorf("Inserted = %v, want exactly the new triple", d.Inserted)
	}
	if len(d.Deleted) != 1 || d.Deleted[0] != deltaTriple(2) {
		t.Errorf("Deleted = %v, want exactly the removed triple", d.Deleted)
	}
	if d.FromVersion != v0 || d.ToVersion != g.Version() || d.FromVersion == d.ToVersion {
		t.Errorf("version interval [%d, %d], graph at %d", d.FromVersion, d.ToVersion, g.Version())
	}
	if !g.Contains(deltaTriple(3)) || g.Contains(deltaTriple(2)) || g.Len() != 2 {
		t.Error("graph contents do not match the delta")
	}
}

func TestApplySameBatchCancel(t *testing.T) {
	g := NewGraph()
	d, err := g.Apply([]rdf.Triple{deltaTriple(1)}, []rdf.Triple{deltaTriple(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Errorf("delta = %+v, want empty (insert then delete cancels)", d)
	}
	if g.Len() != 0 {
		t.Errorf("graph has %d triples after a cancelling batch", g.Len())
	}
	// A pre-existing triple deleted in the same batch as its (duplicate)
	// insert is a genuine deletion.
	if _, err := g.LoadTriples([]rdf.Triple{deltaTriple(2)}); err != nil {
		t.Fatal(err)
	}
	d, err = g.Apply([]rdf.Triple{deltaTriple(2)}, []rdf.Triple{deltaTriple(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Inserted) != 0 || len(d.Deleted) != 1 {
		t.Errorf("delta = %+v, want one deletion", d)
	}
}

func TestApplyInvalidInsertAllOrNothing(t *testing.T) {
	g := NewGraph()
	bad := rdf.Triple{S: rdf.NewLiteral("x"), P: rdf.NewIRI("http://ex.org/p"), O: rdf.NewInteger(1)}
	if _, err := g.Apply([]rdf.Triple{deltaTriple(1), bad}, nil); err == nil {
		t.Fatal("invalid insert accepted")
	}
	if g.Len() != 0 || g.Version() != 0 {
		t.Error("failed batch left partial state")
	}
}

func TestOverlayWith(t *testing.T) {
	g := NewGraph()
	if _, err := g.LoadTriples([]rdf.Triple{deltaTriple(1), deltaTriple(2), deltaTriple(3)}); err != nil {
		t.Fatal(err)
	}
	// Delete triple 2 so the overlay must resurrect a tombstoned run entry,
	// and triple 3 post-compaction so it is a genuine overlay re-add.
	removeOne(g, deltaTriple(2))
	g.Compact()
	removeOne(g, deltaTriple(3))

	o := g.OverlayWith([]rdf.Triple{deltaTriple(2), deltaTriple(3), deltaTriple(1)})
	if o.Len() != 3 {
		t.Errorf("overlay Len = %d, want 3", o.Len())
	}
	for i := 1; i <= 3; i++ {
		if !o.Contains(deltaTriple(i)) {
			t.Errorf("overlay missing triple %d", i)
		}
	}
	// The receiver is untouched.
	if g.Len() != 1 || g.Contains(deltaTriple(2)) || g.Contains(deltaTriple(3)) {
		t.Error("OverlayWith mutated the receiver")
	}
	// Estimates see the overlay contents.
	p, _ := g.Dict().Lookup(rdf.NewIRI("http://ex.org/p"))
	if got := o.Estimate(rdf.NoID, p, rdf.NoID); got != 3 {
		t.Errorf("overlay Estimate = %d, want 3", got)
	}
	if got := g.Estimate(rdf.NoID, p, rdf.NoID); got != 1 {
		t.Errorf("base Estimate = %d, want 1", got)
	}
	// Scans agree with Triples.
	if got := len(o.Triples()); got != 3 {
		t.Errorf("overlay Triples = %d", got)
	}
	// Triples with never-interned terms are skipped, not interned.
	before := g.Dict().Len()
	o2 := g.OverlayWith([]rdf.Triple{{
		S: rdf.NewIRI("http://ex.org/never"),
		P: rdf.NewIRI("http://ex.org/p"),
		O: rdf.NewInteger(1),
	}})
	if o2.Len() != g.Len() {
		t.Error("unknown-term extra changed the overlay size")
	}
	if g.Dict().Len() != before {
		t.Error("OverlayWith interned new terms into the shared dictionary")
	}
}
