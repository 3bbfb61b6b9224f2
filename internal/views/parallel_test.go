package views

import (
	"fmt"
	"reflect"
	"testing"

	"sofos/internal/facet"
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

// materializeBatch plans vs on up to workers goroutines and commits the
// plan, returning the committed records.
func materializeBatch(t *testing.T, c *Catalog, vs []facet.View, workers int) []*Materialized {
	t.Helper()
	plan, err := c.PlanMaterialize(vs, workers)
	if err != nil {
		t.Fatalf("planning: %v", err)
	}
	mats, err := c.CommitMaterialize(plan)
	if err != nil {
		t.Fatalf("committing: %v", err)
	}
	return mats
}

// TestMaterializeAllMatchesSerial materializes the whole lattice as one
// plan+commit batch and via serial Materialize calls, asserting identical
// view contents, V triples, and roll-up sourcing for the children.
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
	for _, workers := range []int{1, 2, 4, 8} {
		par := NewCatalog(g.Clone(), f)
		mats := materializeBatch(t, par, vs, workers)
		if len(mats) != len(vs) {
			t.Fatalf("workers=%d: %d records for %d views", workers, len(mats), len(vs))
		}
		for i, v := range vs {
			want, _ := serial.Get(v.Mask)
			got := mats[i]
			if got.View().Mask != v.Mask {
				t.Fatalf("workers=%d: record %d is %s, want %s (input order)", workers, i, got.View(), v)
			}
			if !reflect.DeepEqual(groupsOf(got.Data), groupsOf(want.Data)) {
				t.Errorf("workers=%d: view %s groups differ from serial", workers, v)
			}
			if v.Mask != f.FullMask() && got.Data.Source == "base" {
				t.Errorf("workers=%d: view %s computed from base, expected roll-up", workers, v)
			}
		}
		if !reflect.DeepEqual(par.ViewGraph().SortedTriples(), serial.ViewGraph().SortedTriples()) {
			t.Errorf("workers=%d: V differs from serial (%d vs %d triples)",
				workers, par.ViewGraph().Len(), serial.ViewGraph().Len())
		}
	}
}

// TestPlanMaterializeRollsUpFromBatchParent: on an empty catalog, a child
// listed before the parent that covers it still waits for the parent's wave
// and rolls up from its planned contents instead of scanning G.
func TestPlanMaterializeRollsUpFromBatchParent(t *testing.T) {
	g := popGraph(t, 2, 4, 3, 2)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	parent, child := f.View(facet.MaskFromBits(0, 1)), f.View(facet.MaskFromBits(0))
	mats := materializeBatch(t, c, []facet.View{child, parent}, 2)
	if len(mats) != 2 || mats[0].View().Mask != child.Mask || mats[1].View().Mask != parent.Mask {
		t.Fatalf("records = %v, want child then parent", mats)
	}
	if got, want := mats[0].Data.Source, "rollup:"+parent.ID(); got != want {
		t.Errorf("child source = %q, want %q", got, want)
	}
	if mats[1].Data.Source != "base" {
		t.Errorf("parent source = %q, want base", mats[1].Data.Source)
	}
	if c.Stale(child.Mask) || c.Stale(parent.Mask) {
		t.Error("a batch with no intervening write committed stale views")
	}
	direct, err := Compute(c.BaseEngine(), child)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGroups(t, child, direct, mats[0].Data)
}

// TestMaterializeAllDuplicatesAndExisting covers dedup and already-present
// views on the plan/commit path: a batch plans each missing view once,
// skips materialized ones (a plan of only those is nil), and a view
// materialized between planning and commit keeps its record.
func TestMaterializeAllDuplicatesAndExisting(t *testing.T) {
	g := popGraph(t, 4, 4, 3, 2)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	top := f.View(f.FullMask())
	topRec, err := c.Materialize(top)
	if err != nil {
		t.Fatal(err)
	}
	child := f.View(facet.MaskFromBits(0))
	mats := materializeBatch(t, c, []facet.View{top, child, child, top}, 4)
	if len(mats) != 1 || mats[0].View().Mask != child.Mask {
		t.Fatalf("batch committed %v, want the child once", mats)
	}
	if m, _ := c.Get(child.Mask); m != mats[0] {
		t.Error("committed record is not the catalog's")
	}
	if m, _ := c.Get(top.Mask); m != topRec {
		t.Error("already-materialized view got a new record")
	}
	if plan, err := c.PlanMaterialize([]facet.View{top, child, top}, 4); err != nil || plan != nil {
		t.Errorf("plan of materialized views = %v, %v; want nil", plan, err)
	}
	if again, err := c.Materialize(child); err != nil || again != mats[0] {
		t.Errorf("re-materializing returned %p, %v; want the existing record", again, err)
	}

	// Planned, then materialized by another path before the commit.
	mid := f.View(facet.MaskFromBits(0, 1))
	plan, err := c.PlanMaterialize([]facet.View{mid}, 2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Materialize(mid)
	if err != nil {
		t.Fatal(err)
	}
	vLen := c.ViewGraph().Len()
	late, err := c.CommitMaterialize(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(late) != 1 || late[0] != first || c.ViewGraph().Len() != vLen {
		t.Errorf("late commit replaced the record or added to V (|V| %d -> %d)", vLen, c.ViewGraph().Len())
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
	refreshView(t, c, v)
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
		// b is materialized first; a write to an existing group stales it
		// without changing its group count, and a — which b does not cover —
		// then computes fresh from G: a fresh/stale pair tied on NumGroups.
		if _, err := c.Materialize(b); err != nil {
			t.Fatal(err)
		}
		addObservation(t, c, fmt.Sprintf("tiefresh%d", round), "C0", "L0", 2015, 1000)
		if _, err := c.Materialize(a); err != nil {
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
		materializeBatch(t, c, latticeViews(f), 2)
		return c
	}
	mutate := func(c *Catalog) {
		for i := 0; i < 5; i++ {
			addObservation(t, c, fmt.Sprintf("fresh%d", i), "C99", "L99", 2030, int64(100+i))
		}
	}
	want := build()
	mutate(want)
	if n, err := want.RefreshAllParallel(1); err != nil || n == 0 {
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
