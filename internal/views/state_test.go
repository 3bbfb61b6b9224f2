package views

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sofos/internal/engine"
	"sofos/internal/facet"
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
			if !reflect.DeepEqual(restored.viewGraph().g.SortedTriples(), c.viewGraph().g.SortedTriples()) {
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

// savedState materializes the full view of a population catalog and
// returns the graph, the facet and the catalog's saved state.
func savedState(t testing.TB, seed int64, agg string, countries, langs, years int) (*store.Graph, *facet.Facet, []byte) {
	t.Helper()
	g := popGraph(t, seed, countries, langs, years)
	f := popFacet(t, agg)
	c := NewCatalog(g, f)
	if _, err := c.Materialize(f.View(f.FullMask())); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return g, f, buf.Bytes()
}

// TestCatalogStateCorruption truncates the serialized state at every byte
// and bit-flips it, and asserts RestoreCatalog errors instead of panicking.
func TestCatalogStateCorruption(t *testing.T) {
	g, f, raw := savedState(t, 7, "AVG", 3, 2, 2)
	for cut := 0; cut < len(raw); cut++ {
		if _, err := RestoreCatalog(g.Fork(), f, engine.Options{}, bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d restored successfully", cut)
		}
	}
	for off := 0; off < len(raw); off += 11 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x20
		// Flips may still decode to a structurally valid state; the contract
		// is no panic and no silent crash, which the call itself verifies.
		_, _ = RestoreCatalog(g.Fork(), f, engine.Options{}, bytes.NewReader(mut))
	}
}

// TestCatalogStateLengthOverrun: a string length prefix that claims more
// bytes than the state holds, though within stateStringLimit, is refused
// before anything of that length is allocated.
func TestCatalogStateLengthOverrun(t *testing.T) {
	f := popFacet(t, "SUM")
	const claimed = stateStringLimit - 1
	var state []byte
	state = append(state, catalogStateMagic...)
	state = binary.AppendVarint(state, 3)        // generation
	state = binary.AppendUvarint(state, 1)       // one view
	state = binary.AppendUvarint(state, 0)       // apex mask
	state = binary.AppendVarint(state, 1)        // base version
	state = binary.AppendUvarint(state, 1)       // triples
	state = binary.AppendVarint(state, 0)        // elapsed
	state = binary.AppendUvarint(state, claimed) // maint path length
	state = append(state, "incremental"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadState(f, state)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "overruns") {
		t.Fatalf("ReadState error = %v, want a length overrun", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= claimed/2 {
		t.Fatalf("ReadState allocated %d bytes for a %d-byte length it refused", got, claimed)
	}
}

// FuzzCatalogStateRestore: any input either fails to restore or restores a
// catalog whose saved state restores again. Seeded from a saved AVG and a
// saved SUM state.
func FuzzCatalogStateRestore(f *testing.F) {
	g, avg, avgState := savedState(f, 7, "AVG", 2, 2, 1)
	_, sum, sumState := savedState(f, 11, "SUM", 2, 2, 1)
	f.Add(avgState, true)
	f.Add(sumState, false)
	f.Fuzz(func(t *testing.T, state []byte, isAvg bool) {
		fc := sum
		if isAvg {
			fc = avg
		}
		c, err := RestoreCatalog(g.Fork(), fc, engine.Options{}, bytes.NewReader(state))
		if err != nil {
			return
		}
		if c == nil {
			t.Fatal("RestoreCatalog returned neither a catalog nor an error")
		}
		var again bytes.Buffer
		if err := c.SaveState(&again); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadState(fc, again.Bytes()); err != nil {
			t.Fatalf("a restored catalog's saved state does not restore: %v", err)
		}
	})
}

// TestRestoreCatalogAllocBudget: decoding state allocates per group and per
// distinct key term, not per term occurrence. The fixture's full view holds
// 40·10·5 groups (minus the holes popGraph leaves) over 55 distinct key
// terms, each key three terms long. A decoder that builds every key term
// and its strings anew, as one reading a stream must, takes a dozen
// allocations per group and fails the bound.
func TestRestoreCatalogAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g := popGraph(t, 3, 40, 10, 5)
	f := popFacet(t, "AVG")
	c := NewCatalog(g, f)
	for _, dims := range [][]string{{"country", "lang", "year"}, {"country", "lang"}, {"year"}} {
		v, err := f.ViewByDims(dims...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Materialize(v); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	groups := 0
	for _, m := range c.Materialized() {
		groups += m.Data.NumGroups()
	}
	const distinct = 40 + 10 + 5
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadState(f, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	})
	// Per group, the aggregate's value string (the triple-count check
	// measures the AVG sum and count literals without building them); per
	// distinct key term, its value string, its map key and the map's growth;
	// a few per view.
	if budget := float64(groups + 4*distinct + 64); allocs > budget {
		t.Fatalf("ReadState of %d groups over %d distinct key terms took %.0f allocations, budget %.0f",
			groups, distinct, allocs, budget)
	}
	t.Logf("%d groups, %d distinct key terms: %.0f allocations", groups, distinct, allocs)
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
	restored, err := RestoreCatalog(g.Fork(), f, engine.Options{}, saveAs(reversed))
	if err != nil {
		t.Fatalf("engine-order state: %v", err)
	}
	rm := restored.mats[full.Mask]
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
		_, err := RestoreCatalog(g.Fork(), f, engine.Options{}, saveAs(tc.order))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s duplicate: restore error = %v, want %q", tc.name, err, tc.want)
		}
	}
}
