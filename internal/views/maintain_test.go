package views

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sofos/internal/facet"
	"sofos/internal/rdf"
)

// TestApplyUpdateLeavesViewGraphUntouched: an update is applied once, to G;
// the view graph V changes only when a view is (re)materialized or dropped.
func TestApplyUpdateLeavesViewGraphUntouched(t *testing.T) {
	g := popGraph(t, 21, 2, 2, 1)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	if _, err := c.Materialize(f.View(facet.Mask(0b1))); err != nil {
		t.Fatal(err)
	}
	want := c.viewGraph().g.SortedTriples()
	unchanged := func(step string) {
		t.Helper()
		if got := c.viewGraph().g.SortedTriples(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s moved V: %d triples -> %d", step, len(want), len(got))
		}
	}
	tr := rdf.Triple{
		S: rdf.NewIRI("http://ex.org/obsNew"),
		P: rdf.NewIRI("http://ex.org/country"),
		O: rdf.NewLiteral("CX"),
	}
	d, err := c.ApplyUpdate([]rdf.Triple{tr}, nil)
	if err != nil || len(d.Inserted) != 1 {
		t.Fatalf("insert = %+v, %v", d, err)
	}
	if !c.Base().Contains(tr) || c.viewGraph().g.Contains(tr) {
		t.Error("insert must land in G and only in G")
	}
	unchanged("insert")
	// Duplicate insert is a no-op.
	d, err = c.ApplyUpdate([]rdf.Triple{tr}, nil)
	if err != nil || len(d.Inserted) != 0 {
		t.Errorf("duplicate insert = %+v, %v", d, err)
	}
	if d, err = c.ApplyUpdate(nil, []rdf.Triple{tr}); err != nil || len(d.Deleted) != 1 {
		t.Fatalf("delete = %+v, %v", d, err)
	}
	if c.Base().Contains(tr) {
		t.Error("delete not applied to G")
	}
	unchanged("delete")
	if d, err = c.ApplyUpdate(nil, []rdf.Triple{tr}); err != nil || len(d.Deleted) != 0 {
		t.Errorf("second delete = %+v, %v", d, err)
	}
	// Invalid triples are rejected.
	if _, err := c.ApplyUpdate([]rdf.Triple{{S: rdf.NewLiteral("x"), P: tr.P, O: tr.O}}, nil); err == nil {
		t.Error("invalid triple accepted")
	}
}

// addObservation inserts a full observation (4 triples) through the catalog.
func addObservation(t *testing.T, c *Catalog, id, country, lang string, year int, pop int64) {
	t.Helper()
	if _, err := c.ApplyUpdate(observation(id, country, lang, year, pop), nil); err != nil {
		t.Fatal(err)
	}
}

// refreshView refreshes every stale view through the one refresh path,
// RefreshAllParallel, and returns v's record.
func refreshView(t *testing.T, c *Catalog, v facet.View) *Materialized {
	t.Helper()
	if _, err := c.RefreshAllParallel(1); err != nil {
		t.Fatalf("refreshing %s: %v", v, err)
	}
	m, ok := c.mats[v.Mask]
	if !ok {
		t.Fatalf("%s is not materialized", v)
	}
	return m
}

func TestStalenessLifecycle(t *testing.T) {
	g := popGraph(t, 22, 3, 2, 2)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	v := f.View(facet.Mask(0b1))
	if _, err := c.Materialize(v); err != nil {
		t.Fatal(err)
	}
	if c.Stale(v.Mask) {
		t.Error("freshly materialized view is stale")
	}
	if c.Stale(facet.Mask(0b10)) {
		t.Error("unmaterialized view reported stale")
	}
	addObservation(t, c, "obsX", "C99", "L0", 2015, 500)
	if !c.Stale(v.Mask) {
		t.Error("view not stale after base mutation")
	}
	stale := c.StaleViews()
	if len(stale) != 1 || stale[0].Mask != v.Mask {
		t.Errorf("StaleViews = %v", stale)
	}
	refreshView(t, c, v)
	if c.Stale(v.Mask) {
		t.Error("view stale after refresh")
	}
}

func TestRefreshAll(t *testing.T) {
	g := popGraph(t, 25, 3, 2, 2)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	for _, mask := range []facet.Mask{0, facet.Mask(0b1), facet.Mask(0b110)} {
		if _, err := c.Materialize(f.View(mask)); err != nil {
			t.Fatal(err)
		}
	}
	addObservation(t, c, "obsZ", "C1", "L1", 2015, 42)
	if got := len(c.StaleViews()); got != 3 {
		t.Fatalf("stale views = %d", got)
	}
	n, err := c.RefreshAllParallel(1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(c.StaleViews()) != 0 {
		t.Errorf("RefreshAllParallel refreshed %d, stale after = %d", n, len(c.StaleViews()))
	}
	// Second call is a no-op.
	n, err = c.RefreshAllParallel(1)
	if err != nil || n != 0 {
		t.Errorf("second RefreshAllParallel = %d, %v", n, err)
	}
}

// TestCommitRefreshSkipsDroppedView: a view dropped between PlanRefresh and
// CommitRefresh is skipped on both the incremental and the full path, never
// refreshed back into the catalog or V.
func TestCommitRefreshSkipsDroppedView(t *testing.T) {
	for _, incremental := range []bool{true, false} {
		g := popGraph(t, 26, 2, 2, 1)
		f := popFacet(t, "SUM")
		c := NewCatalog(g, f)
		c.SetIncrementalMaintenance(incremental)
		v := f.View(0)
		if _, err := c.Materialize(v); err != nil {
			t.Fatal(err)
		}
		addObservation(t, c, "obsD", "C0", "L0", 2015, 5)
		wantInc := 0
		if incremental {
			wantInc = 1
		}
		plan, err := c.PlanRefresh(1)
		if err != nil || plan == nil || plan.Incremental() != wantInc {
			t.Fatalf("incremental=%v: plan = %+v, %v", incremental, plan, err)
		}
		c.Drop(v)
		if n, err := c.CommitRefresh(plan); err != nil || n != 0 {
			t.Fatalf("incremental=%v: commit refreshed %d, %v; want 0", incremental, n, err)
		}
		if c.Has(v.Mask) || c.viewGraph().g.Len() != 0 {
			t.Errorf("incremental=%v: dropped view came back", incremental)
		}
	}
}

func TestRefreshFreshViewNoOp(t *testing.T) {
	g := popGraph(t, 27, 2, 2, 1)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	v := f.View(0)
	m1, err := c.Materialize(v)
	if err != nil {
		t.Fatal(err)
	}
	m2 := refreshView(t, c, v)
	if m1 != m2 {
		t.Error("refresh of fresh view rebuilt it")
	}
}

// TestRefreshEquivalenceProperty: after random batches of inserts and
// deletes, refresh always converges G+'s view encoding to the from-scratch
// computation, for every aggregate.
func TestRefreshEquivalenceProperty(t *testing.T) {
	for _, agg := range []string{"SUM", "COUNT", "MIN", "MAX", "AVG"} {
		t.Run(agg, func(t *testing.T) {
			rng := rand.New(rand.NewSource(28))
			g := popGraph(t, 29, 3, 3, 2)
			f := popFacet(t, agg)
			c := NewCatalog(g, f)
			v := f.View(facet.Mask(0b11))
			if _, err := c.Materialize(v); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 5; round++ {
				// Random inserts.
				for i := 0; i < 3; i++ {
					addObservation(t, c,
						fmt.Sprintf("robs%d_%d", round, i),
						fmt.Sprintf("C%d", rng.Intn(5)),
						fmt.Sprintf("L%d", rng.Intn(4)),
						2015+rng.Intn(3),
						int64(rng.Intn(500)+1))
				}
				// Random delete of one existing triple group.
				all := c.Base().Triples()
				if len(all) > 0 {
					if _, err := c.ApplyUpdate(nil, []rdf.Triple{all[rng.Intn(len(all))]}); err != nil {
						t.Fatal(err)
					}
				}
				refreshed := refreshView(t, c, v)
				direct, err := Compute(c.BaseEngine(), v)
				if err != nil {
					t.Fatal(err)
				}
				assertSameGroups(t, v, direct, refreshed.Data)
				if !reflect.DeepEqual(groupKeys(direct), groupKeys(refreshed.Data)) {
					t.Fatal("group keys diverged")
				}
			}
		})
	}
}

// groupKeys canonicalizes group keys for set comparison.
func groupKeys(d *Data) map[string]bool {
	out := make(map[string]bool, d.NumGroups())
	for _, g := range groupsOf(d) {
		k := ""
		for _, kv := range g.Key {
			k += kv.String() + "|"
		}
		out[k] = true
	}
	return out
}
