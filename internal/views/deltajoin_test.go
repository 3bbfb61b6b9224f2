package views

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"sofos/internal/algebra"
	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/rdf"
)

// TestUnifyMissAllocatesNothing: a delta triple whose predicate differs from
// the pattern's constant — most (delta triple, pattern) pairs — must not
// allocate a binding map.
func TestUnifyMissAllocatesNothing(t *testing.T) {
	f := popFacet(t, "SUM")
	tp := f.Pattern.Triples[0] // ?o ex:country ?country
	miss := observation("obsU", "C0", "L0", 2015, 7)[3]
	hit := observation("obsU", "C0", "L0", 2015, 7)[0]
	if _, ok := unify(tp, miss); ok {
		t.Fatal("pop triple unified with the country pattern")
	}
	if theta, ok := unify(tp, hit); !ok || len(theta) != 2 {
		t.Fatalf("country triple: unify = %v, %v", theta, ok)
	}
	if allocs := testing.AllocsPerRun(100, func() { unify(tp, miss) }); allocs != 0 {
		t.Errorf("non-unifying pair allocates %.0f times, want 0", allocs)
	}
}

// TestSharedWindowRefreshMatchesFull is the differential test of the shared
// delta join: one catalog holds the finest view, a mid-lattice view and the
// apex, and refreshes them together through RefreshAllParallel, against a
// twin forced down the full recompute path. Some rounds rebuild the finest
// view alone, so the next plan holds two staleness windows; for MIN/MAX a
// first round deletes a value that is a finest-view group's extremum but
// not the apex's, so one view falls back while its window-mates stay
// incremental.
// After every round the groups and V must be bit-identical.
func TestSharedWindowRefreshMatchesFull(t *testing.T) {
	for _, agg := range []string{"SUM", "COUNT", "MIN", "MAX", "AVG"} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", agg, workers), func(t *testing.T) {
				testSharedWindowRefresh(t, agg, workers)
			})
		}
	}
}

func testSharedWindowRefresh(t *testing.T, agg string, workers int) {
	rng := rand.New(rand.NewSource(int64(len(agg)*17 + workers)))
	f := popFacet(t, agg)
	gInc := popGraph(t, 93, 4, 3, 2)
	ci := NewCatalog(gInc, f)
	cf := NewCatalog(gInc.Fork(), f)
	cf.SetIncrementalMaintenance(false)
	finest, mid, apex := f.View(f.FullMask()), f.View(facet.Mask(0b11)), f.View(0)
	vs := []facet.View{finest, mid, apex}
	for _, c := range []*Catalog{ci, cf} {
		materializeBatch(t, c, vs, workers)
	}
	apply := func(round int, ins, del []rdf.Triple) {
		t.Helper()
		di, err := ci.ApplyUpdate(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		df, err := cf.ApplyUpdate(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		if di.Len() != df.Len() {
			t.Fatalf("round %d: catalogs saw different deltas (%d vs %d)", round, di.Len(), df.Len())
		}
	}
	refreshAll := func(round int) {
		t.Helper()
		if _, err := ci.RefreshAllParallel(workers); err != nil {
			t.Fatalf("round %d: incremental refresh: %v", round, err)
		}
		if _, err := cf.RefreshAllParallel(workers); err != nil {
			t.Fatalf("round %d: full refresh: %v", round, err)
		}
	}
	check := func(round int) {
		t.Helper()
		for _, v := range vs {
			mi := ci.mats[v.Mask]
			mf := cf.mats[v.Mask]
			if mf.Maint.LastPath == "incremental" {
				t.Fatalf("round %d: disabled catalog took the incremental path for %s", round, v)
			}
			assertBitIdentical(t, fmt.Sprintf("round %d view %s", round, v), mi.Data, mf.Data)
		}
		ti, tf := ci.viewGraph().g.SortedTriples(), cf.viewGraph().g.SortedTriples()
		if !reflect.DeepEqual(ti, tf) {
			t.Fatalf("round %d: V diverged (%d vs %d triples)", round, len(ti), len(tf))
		}
	}

	if agg == "MIN" || agg == "MAX" {
		// Every finest group holds one observation, so deleting any pop
		// triple deletes its group's extremum; one that is strictly inside
		// the apex's extremum leaves the apex incremental.
		ma := ci.mats[apex.Mask]
		var victim rdf.Triple
		found := false
		for _, tr := range gInc.Triples() {
			if tr.P.Value != "http://ex.org/pop" {
				continue
			}
			cmp := algebra.AggCompare(tr.O, groupsOf(ma.Data)[0].Agg.Term)
			if (agg == "MIN" && cmp > 0) || (agg == "MAX" && cmp < 0) {
				victim, found = tr, true
				break
			}
		}
		if !found {
			t.Fatal("no non-extremum pop triple")
		}
		apply(-1, nil, []rdf.Triple{victim})
		refreshAll(-1)
		check(-1)
		mFinest := ci.mats[finest.Mask]
		mApex := ci.mats[apex.Mask]
		if mFinest.Maint.LastPath != "full" || mApex.Maint.LastPath != "incremental" {
			t.Fatalf("extremum delete: finest took %q, apex %q; want full and incremental",
				mFinest.Maint.LastPath, mApex.Maint.LastPath)
		}
	}

	twoWindows, incRuns := 0, 0
	for round := 0; round < 12; round++ {
		var ins, del []rdf.Triple
		for i := 0; i < 1+rng.Intn(3); i++ {
			ins = append(ins, observation(fmt.Sprintf("w%d_%d", round, i),
				fmt.Sprintf("C%d", rng.Intn(6)), fmt.Sprintf("L%d", rng.Intn(4)),
				2015+rng.Intn(3), int64(rng.Intn(900)+1))...)
		}
		all := gInc.Triples()
		for i := 0; i < rng.Intn(3); i++ {
			victim := all[rng.Intn(len(all))]
			if rng.Intn(2) == 0 {
				del = append(del, victim)
				continue
			}
			for _, tr := range all {
				if tr.S == victim.S {
					del = append(del, tr)
				}
			}
		}
		apply(round, ins, del)
		if round%3 == 1 {
			// Rebuild the finest view alone: it has no materialized ancestor,
			// so it computes fresh from G while mid and apex stay stale, and
			// the next plan spans two windows.
			for _, c := range []*Catalog{ci, cf} {
				c.Drop(finest)
				if _, err := c.Materialize(finest); err != nil {
					t.Fatalf("round %d: rebuilding %s: %v", round, finest, err)
				}
			}
			check(round)
			continue
		}
		windows := map[int64]bool{}
		for _, v := range ci.StaleViews() {
			m := ci.mats[v.Mask]
			windows[m.BaseVersion()] = true
		}
		if len(windows) > 1 {
			twoWindows++
		}
		plan, err := ci.PlanRefresh(workers)
		if err != nil {
			t.Fatal(err)
		}
		incRuns += plan.Incremental()
		if _, err := ci.CommitRefresh(plan); err != nil {
			t.Fatal(err)
		}
		if _, err := cf.RefreshAllParallel(workers); err != nil {
			t.Fatal(err)
		}
		check(round)
	}
	if twoWindows == 0 {
		t.Error("no plan held two staleness windows")
	}
	if incRuns == 0 {
		t.Error("incremental path never ran")
	}
}

// TestDeltaSolutionsSplitDeterministic: splitting the delta's seeds across
// workers must return exactly the serial row sequence. The delta is laid out
// so an observation's four triples straddle a chunk boundary at every
// worker count, which makes one solution appear in two chunks.
func TestDeltaSolutionsSplitDeterministic(t *testing.T) {
	g := popGraph(t, 61, 3, 3, 2)
	f := popFacet(t, "SUM")
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	// One unrelated triple shifts the chunk boundaries off the observation
	// boundaries; an extra pop on an existing observation joins base data.
	delta := []rdf.Triple{{S: ex("other"), P: ex("note"), O: rdf.NewLiteral("x")}}
	for i := 0; i < 3; i++ {
		delta = append(delta, observation(fmt.Sprintf("d%d", i), "C1", fmt.Sprintf("L%d", i), 2016, int64(10*i+1))...)
	}
	delta = append(delta, rdf.Triple{S: ex("obs_1_0_0"), P: ex("pop"), O: rdf.NewInteger(4242)})
	if _, err := g.Apply(delta, nil); err != nil {
		t.Fatal(err)
	}
	eng := engine.NewWithOptions(g, engine.Options{Workers: 1})
	want, err := deltaSolutions(eng, f, delta, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 4 {
		t.Fatalf("serial enumeration found %d solutions, want 4", len(want))
	}
	for _, w := range []int{2, 3, 8} {
		for rep := 0; rep < 20; rep++ {
			got, err := deltaSolutions(eng, f, delta, w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d (rep %d): row sequence differs from serial\ngot:  %v\nwant: %v", w, rep, rowKeys(got), rowKeys(want))
			}
		}
	}
}

func rowKeys(rows []deltaRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r.dims, r.measure)
	}
	return out
}

// TestSharedDeltaJoinAllocBudget: the delta join runs once per staleness
// window, so planning the refresh of four stale views that share a window
// must allocate about what planning one does — not four joins' worth.
func TestSharedDeltaJoinAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	f := popFacet(t, "SUM")
	perPlan := func(vs []facet.View) uint64 {
		c := NewCatalog(popGraph(t, 71, 6, 4, 3), f)
		materializeBatch(t, c, vs, 1)
		const rounds = 10
		var total uint64
		var before, after runtime.MemStats
		for r := 0; r < rounds; r++ {
			var ins []rdf.Triple
			for i := 0; i < 8; i++ {
				ins = append(ins, observation(fmt.Sprintf("b%d_%d", r, i), fmt.Sprintf("C%d", i%6), fmt.Sprintf("L%d", r%4), 2015+i%3, int64(r*8+i+1))...)
			}
			if _, err := c.ApplyUpdate(ins, nil); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			plan, err := c.PlanRefresh(2)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Incremental() != len(vs) {
				t.Fatalf("%d of %d views planned incrementally", plan.Incremental(), len(vs))
			}
			total += after.TotalAlloc - before.TotalAlloc
			if _, err := c.CommitRefresh(plan); err != nil {
				t.Fatal(err)
			}
		}
		return total / rounds
	}
	one := perPlan([]facet.View{f.View(f.FullMask())})
	four := perPlan([]facet.View{f.View(f.FullMask()), f.View(facet.Mask(0b11)), f.View(facet.Mask(0b1)), f.View(0)})
	t.Logf("bytes allocated per PlanRefresh: %d with 1 stale view, %d with 4", one, four)
	if float64(four) > 1.3*float64(one) {
		t.Errorf("planning 4 stale views allocates %d B, over 1.3x the %d B for 1", four, one)
	}
}
