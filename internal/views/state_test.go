package views

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sofos/internal/engine"
	"sofos/internal/rdf"
	"sofos/internal/store"
)

// saveRestore round-trips a catalog through SaveState/RestoreCatalog over a
// snapshot-loaded copy of its base graph — exactly what checkpoint recovery
// does.
func saveRestore(t *testing.T, c *Catalog) *Catalog {
	t.Helper()
	var graphBuf, stateBuf bytes.Buffer
	if err := c.base.Save(&graphBuf); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveState(&stateBuf); err != nil {
		t.Fatal(err)
	}
	g, err := store.Load(&graphBuf)
	if err != nil {
		t.Fatal(err)
	}
	g.SetVersion(c.base.Version())
	restored, err := RestoreCatalog(g, c.facet, engine.Options{}, &stateBuf)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

func TestCatalogStateRoundTrip(t *testing.T) {
	for _, agg := range []string{"SUM", "AVG", "MIN", "COUNT"} {
		t.Run(agg, func(t *testing.T) {
			g := popGraph(t, 3, 4, 3, 2)
			f := popFacet(t, agg)
			c := NewCatalog(g, f)
			full := f.View(f.FullMask())
			country, err := f.ViewByDims("country")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Materialize(full); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Materialize(country); err != nil {
				t.Fatal(err)
			}
			// One refresh so maintenance bookkeeping is non-trivial, then one
			// more update so a stale view crosses the checkpoint.
			ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
			obs := func(n string, pop int64) []rdf.Triple {
				return []rdf.Triple{
					{S: ex(n), P: ex("country"), O: rdf.NewLiteral("C0")},
					{S: ex(n), P: ex("lang"), O: rdf.NewLiteral("L1")},
					{S: ex(n), P: ex("year"), O: rdf.NewYear(2015)},
					{S: ex(n), P: ex("pop"), O: rdf.NewInteger(pop)},
				}
			}
			if _, err := c.ApplyUpdate(obs("st_a", 41), nil); err != nil {
				t.Fatal(err)
			}
			if _, err := c.RefreshAllParallel(1); err != nil {
				t.Fatal(err)
			}
			if _, err := c.ApplyUpdate(obs("st_b", 7), nil); err != nil {
				t.Fatal(err)
			}

			restored := saveRestore(t, c)

			if got, want := restored.Generation(), c.Generation(); got != want {
				t.Fatalf("generation = %d, want %d", got, want)
			}
			if got, want := restored.ViewSetHash(), c.ViewSetHash(); got != want {
				t.Fatalf("view-set hash = %x, want %x", got, want)
			}
			wantMats := c.Materialized()
			gotMats := restored.Materialized()
			if len(gotMats) != len(wantMats) {
				t.Fatalf("restored %d views, want %d", len(gotMats), len(wantMats))
			}
			for i, want := range wantMats {
				got := gotMats[i]
				if got.Data.View.Mask != want.Data.View.Mask {
					t.Fatalf("view %d mask %v, want %v", i, got.Data.View.Mask, want.Data.View.Mask)
				}
				if !reflect.DeepEqual(groupsOf(got.Data), groupsOf(want.Data)) {
					t.Fatalf("view %s groups differ after restore", want.Data.View)
				}
				if got.Triples != want.Triples || got.Nodes() != want.Nodes() || got.Bytes != want.Bytes {
					t.Fatalf("view %s stats: got (%d,%d,%d), want (%d,%d,%d)", want.Data.View,
						got.Triples, got.Nodes(), got.Bytes, want.Triples, want.Nodes(), want.Bytes)
				}
				if got.baseVersion != want.baseVersion {
					t.Fatalf("view %s baseVersion %d, want %d", want.Data.View, got.baseVersion, want.baseVersion)
				}
				if got.Maint.LastPath != want.Maint.LastPath || got.Maint.Mode != want.Maint.Mode {
					t.Fatalf("view %s maint: got %+v, want %+v", want.Data.View, got.Maint, want.Maint)
				}
				if restored.Stale(want.Data.View.Mask) != c.Stale(want.Data.View.Mask) {
					t.Fatalf("view %s staleness flipped across restore", want.Data.View)
				}
			}
			// The on-demand view graph V must be bit-identical:
			// content-keyed blank labels make the encoding deterministic.
			if !reflect.DeepEqual(restored.ViewGraph().SortedTriples(), c.ViewGraph().SortedTriples()) {
				t.Fatal("V differs after restore")
			}
		})
	}
}

// TestRestoredCatalogMaintains proves a restored catalog keeps working:
// updates apply, the delta log repopulates, and the incremental refresh path
// runs — the property recovery relies on when it replays WAL batches.
func TestRestoredCatalogMaintains(t *testing.T) {
	g := popGraph(t, 5, 4, 3, 2)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	full := f.View(f.FullMask())
	if _, err := c.Materialize(full); err != nil {
		t.Fatal(err)
	}
	restored := saveRestore(t, c)
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	ins := []rdf.Triple{
		{S: ex("rm_a"), P: ex("country"), O: rdf.NewLiteral("C1")},
		{S: ex("rm_a"), P: ex("lang"), O: rdf.NewLiteral("L0")},
		{S: ex("rm_a"), P: ex("year"), O: rdf.NewYear(2016)},
		{S: ex("rm_a"), P: ex("pop"), O: rdf.NewInteger(13)},
	}
	if _, err := restored.ApplyUpdate(ins, nil); err != nil {
		t.Fatal(err)
	}
	mat := refreshView(t, restored, full)
	if mat.Maint.LastPath != "incremental" {
		t.Fatalf("refresh path after restore = %q, want incremental", mat.Maint.LastPath)
	}
	// Cross-check against a full recompute.
	fresh, err := Compute(engine.New(restored.Base()), full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(groupsOf(mat.Data), groupsOf(fresh)) {
		t.Fatal("incrementally refreshed restored view diverges from recompute")
	}
}

// TestCatalogStateCorruption truncates and bit-flips a serialized state and
// asserts RestoreCatalog errors instead of panicking.
func TestCatalogStateCorruption(t *testing.T) {
	g := popGraph(t, 7, 3, 2, 2)
	f := popFacet(t, "AVG")
	c := NewCatalog(g, f)
	if _, err := c.Materialize(f.View(f.FullMask())); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut += 7 {
		if _, err := RestoreCatalog(g.Clone(), f, engine.Options{}, bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d restored successfully", cut)
		}
	}
	for off := 0; off < len(raw); off += 11 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x20
		// Flips may still decode to a structurally valid state; the contract
		// is no panic and no silent crash, which the call itself verifies.
		_, _ = RestoreCatalog(g.Clone(), f, engine.Options{}, bytes.NewReader(mut))
	}
}

// TestCatalogStateGroupOrder: state written with groups in engine order (as
// before views kept them sorted) restores to the sorted table, and state
// holding two groups with one key — which would encode onto one blank node —
// is rejected with the position of the repeat.
func TestCatalogStateGroupOrder(t *testing.T) {
	g := popGraph(t, 9, 4, 3, 2)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	full := f.View(f.FullMask())
	m, err := c.Materialize(full)
	if err != nil {
		t.Fatal(err)
	}
	groups := groupsOf(m.Data)
	// saveAs writes the catalog's state with the view's groups stored in the
	// given order, bypassing the table's sort.
	saveAs := func(order []Group) *bytes.Buffer {
		t.Helper()
		c.mats[full.Mask] = &Materialized{
			Data:        &Data{View: full, groups: newGroupTable(order), Source: m.Data.Source},
			Triples:     m.Triples,
			Maint:       m.Maint,
			baseVersion: m.baseVersion,
		}
		var buf bytes.Buffer
		if err := c.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}

	reversed := slices.Clone(groups)
	slices.Reverse(reversed)
	restored, err := RestoreCatalog(g.Clone(), f, engine.Options{}, saveAs(reversed))
	if err != nil {
		t.Fatalf("engine-order state: %v", err)
	}
	rm, _ := restored.Get(full.Mask)
	if !reflect.DeepEqual(groupsOf(rm.Data), groups) {
		t.Fatal("engine-order state did not restore to the sorted groups")
	}

	for _, tc := range []struct {
		name  string
		order []Group
		want  string
	}{
		{"adjacent", append(slices.Clone(groups[:2]), append([]Group{groups[1]}, groups[3:]...)...), "group 2 repeats the key of group 1"},
		{"unsorted", append(append([]Group{groups[1], groups[0]}, groups[2:]...), groups[1]),
			fmt.Sprintf("group %d repeats the key of group 0", len(groups))},
	} {
		_, err := RestoreCatalog(g.Clone(), f, engine.Options{}, saveAs(tc.order))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s duplicate: restore error = %v, want %q", tc.name, err, tc.want)
		}
	}
}
