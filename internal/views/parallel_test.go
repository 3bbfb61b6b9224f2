package views

import (
	"fmt"
	"reflect"
	"testing"

	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/store"
)

// latticeViews lists every view of the facet's lattice, finest first so the
// batch exercises the roll-up wave ordering.
func latticeViews(f *facet.Facet) []facet.View {
	var out []facet.View
	for m := int(f.FullMask()); m >= 0; m-- {
		out = append(out, f.View(facet.Mask(m)))
	}
	return out
}

// TestMaterializeAllMatchesSerial materializes the whole lattice via the
// parallel batch path and via serial Materialize calls, asserting identical
// view contents, G+ triples, and roll-up sourcing for the children.
func TestMaterializeAllMatchesSerial(t *testing.T) {
	g := popGraph(t, 3, 5, 4, 3)
	f := popFacet(t, "AVG") // AVG exercises the (Sum, Count) roll-up state
	vs := latticeViews(f)

	serial := NewCatalog(g.Clone(), f)
	for _, v := range vs {
		if _, err := serial.Materialize(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		par := NewCatalog(g.Clone(), f)
		mats, err := par.MaterializeAll(vs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(mats) != len(vs) {
			t.Fatalf("workers=%d: %d records for %d views", workers, len(mats), len(vs))
		}
		for i, v := range vs {
			want, _ := serial.Get(v.Mask)
			got := mats[i]
			if !reflect.DeepEqual(groupsOf(got.Data), groupsOf(want.Data)) {
				t.Errorf("workers=%d: view %s groups differ from serial", workers, v)
			}
			if v.Mask != f.FullMask() && got.Data.Source == "base" {
				t.Errorf("workers=%d: view %s computed from base, expected roll-up", workers, v)
			}
		}
		if par.ViewGraph().Len() != serial.ViewGraph().Len() {
			t.Errorf("workers=%d: |V| = %d, serial %d",
				workers, par.ViewGraph().Len(), serial.ViewGraph().Len())
		}
	}
}

// TestMaterializeAllDuplicatesAndExisting covers dedup and already-present
// views in one batch.
func TestMaterializeAllDuplicatesAndExisting(t *testing.T) {
	g := popGraph(t, 4, 4, 3, 2)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	top := f.View(f.FullMask())
	if _, err := c.Materialize(top); err != nil {
		t.Fatal(err)
	}
	child := f.View(facet.MaskFromBits(0))
	mats, err := c.MaterializeAll([]facet.View{top, child, child, top}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(mats) != 4 || mats[0] != mats[3] || mats[1] != mats[2] {
		t.Errorf("batch records not shared across duplicates")
	}
}

// TestCommitMaterializeAfterWriteMarksStale covers the plan/commit window:
// a base-graph write that lands between PlanMaterialize and
// CommitMaterialize must leave the just-committed views marked stale, since
// their contents were computed against the pre-write base. (Serving them as
// fresh would let the rewriter answer from pre-write data forever.)
func TestCommitMaterializeAfterWriteMarksStale(t *testing.T) {
	g := popGraph(t, 6, 4, 3, 2)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	v := f.View(f.FullMask())
	plan, err := c.PlanMaterialize([]facet.View{v}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A write sneaks in between planning and commit.
	addObservation(t, c, "midwindow", "C77", "L0", 2017, 999)
	if _, err := c.CommitMaterialize(plan); err != nil {
		t.Fatal(err)
	}
	if !c.Stale(v.Mask) {
		t.Fatal("view committed from a pre-write plan is marked fresh")
	}
	// Refresh converges it to the post-write base.
	if _, err := c.Refresh(v); err != nil {
		t.Fatal(err)
	}
	if c.Stale(v.Mask) {
		t.Error("view still stale after refresh")
	}
	direct, err := Compute(c.BaseEngine(), v)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := c.Get(v.Mask)
	assertSameGroups(t, v, direct, m.Data)
}

// TestCommitMaterializeNoInterveningWriteIsFresh is the happy-path
// counterpart: with no write in the plan/commit window the views commit
// fresh.
func TestCommitMaterializeNoInterveningWriteIsFresh(t *testing.T) {
	g := popGraph(t, 7, 4, 3, 2)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	v := f.View(f.FullMask())
	plan, err := c.PlanMaterialize([]facet.View{v}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CommitMaterialize(plan); err != nil {
		t.Fatal(err)
	}
	if c.Stale(v.Mask) {
		t.Error("view committed with no intervening write is marked stale")
	}
}

// TestMaterializeRollUpFromStaleAncestorIsStale: materializing a view by
// rolling up a stale ancestor yields stale-at-birth contents, and the record
// must say so.
func TestMaterializeRollUpFromStaleAncestorIsStale(t *testing.T) {
	g := popGraph(t, 8, 4, 3, 2)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	top := f.View(f.FullMask())
	if _, err := c.Materialize(top); err != nil {
		t.Fatal(err)
	}
	addObservation(t, c, "staler", "C88", "L1", 2018, 111)
	if !c.Stale(top.Mask) {
		t.Fatal("ancestor not stale after base mutation")
	}
	child := f.View(facet.MaskFromBits(0))
	m, err := c.Materialize(child) // rolls up from the stale top view
	if err != nil {
		t.Fatal(err)
	}
	if m.Data.Source == "base" {
		t.Skip("child computed from base, roll-up path not exercised")
	}
	if !c.Stale(child.Mask) {
		t.Error("view rolled up from a stale ancestor is marked fresh")
	}
}

// TestMaterializeTieBreakConsistency: when two covering ancestors tie on
// NumGroups — one fresh, one stale — the roll-up source and the recorded
// baseVersion must come from the same ancestor (bestSource breaks ties by
// map iteration order, so resolving twice could mix them). The observable
// invariant: a view committed as fresh must hold exactly the from-scratch
// contents. Repeated across independent catalogs to exercise both orders.
func TestMaterializeTieBreakConsistency(t *testing.T) {
	f := popFacet(t, "SUM")
	a := f.View(facet.MaskFromBits(0, 1)) // country+lang
	b := f.View(facet.MaskFromBits(0, 2)) // country+year
	child := f.View(facet.MaskFromBits(0))
	for round := 0; round < 12; round++ {
		c := NewCatalog(store.NewGraph(), f)
		// Dense 2x2x2 grid: country+lang and country+year both have 4 groups.
		for ci := 0; ci < 2; ci++ {
			for li := 0; li < 2; li++ {
				for yi := 0; yi < 2; yi++ {
					addObservation(t, c, fmt.Sprintf("tie%d_%d_%d_%d", round, ci, li, yi),
						fmt.Sprintf("C%d", ci), fmt.Sprintf("L%d", li), 2015+yi, int64(10+ci+li+yi))
				}
			}
		}
		for _, v := range []facet.View{a, b} {
			if _, err := c.Materialize(v); err != nil {
				t.Fatal(err)
			}
		}
		// A write to an existing group stales both ancestors without changing
		// their group counts; refreshing only one leaves a fresh/stale pair
		// still tied on NumGroups.
		addObservation(t, c, fmt.Sprintf("tiefresh%d", round), "C0", "L0", 2015, 1000)
		if _, err := c.Refresh(a); err != nil {
			t.Fatal(err)
		}
		ma, _ := c.Get(a.Mask)
		mb, _ := c.Get(b.Mask)
		if c.Stale(a.Mask) || !c.Stale(b.Mask) || ma.Data.NumGroups() != mb.Data.NumGroups() {
			t.Fatalf("fixture broken: staleA=%v staleB=%v groups %d vs %d",
				c.Stale(a.Mask), c.Stale(b.Mask), ma.Data.NumGroups(), mb.Data.NumGroups())
		}
		plan, err := c.PlanMaterialize([]facet.View{child}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.CommitMaterialize(plan); err != nil {
			t.Fatal(err)
		}
		if !c.Stale(child.Mask) {
			// Committed as fresh: the contents must really be fresh.
			direct, err := Compute(c.BaseEngine(), child)
			if err != nil {
				t.Fatal(err)
			}
			m, _ := c.Get(child.Mask)
			assertSameGroups(t, child, direct, m.Data)
		}
	}
}

// TestRefreshAllParallelMatchesSerial mutates the base, then refreshes the
// stale lattice with 1 and 4 workers against independent clones, asserting
// identical results.
func TestRefreshAllParallelMatchesSerial(t *testing.T) {
	f := popFacet(t, "SUM")
	build := func() *Catalog {
		c := NewCatalog(popGraph(t, 5, 4, 3, 2), f)
		if _, err := c.MaterializeAll(latticeViews(f), 2); err != nil {
			t.Fatal(err)
		}
		return c
	}
	mutate := func(c *Catalog) {
		ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
		for i := 0; i < 5; i++ {
			obs := ex(fmt.Sprintf("fresh%d", i))
			for _, tr := range []rdf.Triple{
				{S: obs, P: ex("country"), O: rdf.NewLiteral("C99")},
				{S: obs, P: ex("lang"), O: rdf.NewLiteral("L99")},
				{S: obs, P: ex("year"), O: rdf.NewYear(2030)},
				{S: obs, P: ex("pop"), O: rdf.NewInteger(int64(100 + i))},
			} {
				if _, err := c.Insert(tr); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	want := build()
	mutate(want)
	if n, err := want.RefreshAll(); err != nil || n == 0 {
		t.Fatalf("serial refresh: n=%d err=%v", n, err)
	}
	got := build()
	mutate(got)
	if n, err := got.RefreshAllParallel(4); err != nil || n == 0 {
		t.Fatalf("parallel refresh: n=%d err=%v", n, err)
	}
	if got.ViewGraph().Len() != want.ViewGraph().Len() {
		t.Errorf("parallel refresh |V| = %d, serial %d", got.ViewGraph().Len(), want.ViewGraph().Len())
	}
	for _, v := range latticeViews(f) {
		gm, _ := got.Get(v.Mask)
		wm, _ := want.Get(v.Mask)
		if !reflect.DeepEqual(groupsOf(gm.Data), groupsOf(wm.Data)) {
			t.Errorf("view %s groups differ after parallel refresh", v)
		}
	}
}
