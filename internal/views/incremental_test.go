package views

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

// observation builds the four triples of one (country, lang, year, pop)
// observation in the popGraph vocabulary.
func observation(id, country, lang string, year int, pop int64) []rdf.Triple {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	obs := ex(id)
	return []rdf.Triple{
		{S: obs, P: ex("country"), O: rdf.NewLiteral(country)},
		{S: obs, P: ex("lang"), O: rdf.NewLiteral(lang)},
		{S: obs, P: ex("year"), O: rdf.NewYear(year)},
		{S: obs, P: ex("pop"), O: rdf.NewInteger(pop)},
	}
}

// assertBitIdentical requires two view contents to agree exactly and in
// order: every field of every group — key terms, the aggregate term including
// datatype, the AVG (Sum, Count) companions, and the contribution count.
func assertBitIdentical(t *testing.T, label string, inc, full *Data) {
	t.Helper()
	gi, gf := groupsOf(inc), groupsOf(full)
	if !reflect.DeepEqual(gi, gf) {
		t.Fatalf("%s: incremental groups != full groups\nincremental: %v\nfull:        %v", label, gi, gf)
	}
}

// TestIncrementalRefreshMatchesFull is the differential property test of the
// maintenance subsystem: two catalogs over identical graphs receive the same
// random insert/delete batches (group births and deaths included); one
// refreshes through the incremental delta path, the other is forced down the
// full recompute path. After every round the view contents must be
// bit-identical — same keys, same aggregate terms, same (Sum, Count)
// companions, same contribution counts — and the two view graphs V must
// hold exactly the same triples.
func TestIncrementalRefreshMatchesFull(t *testing.T) {
	for _, agg := range []string{"SUM", "COUNT", "MIN", "MAX", "AVG"} {
		t.Run(agg, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(agg)*31 + 7)))
			f := popFacet(t, agg)
			gInc := popGraph(t, 91, 3, 3, 2)
			gFull := gInc.Clone()
			ci := NewCatalog(gInc, f)
			cf := NewCatalog(gFull, f)
			cf.SetIncrementalMaintenance(false)
			v := f.View(facet.MaskFromBits(0, 1)) // per (country, lang)
			for _, c := range []*Catalog{ci, cf} {
				if _, err := c.Materialize(v); err != nil {
					t.Fatal(err)
				}
			}
			incRuns := 0
			for round := 0; round < 14; round++ {
				var ins, del []rdf.Triple
				for i := 0; i < rng.Intn(4); i++ {
					// Mix of existing groups and brand-new ones (births).
					ins = append(ins, observation(
						fmt.Sprintf("p%d_%d", round, i),
						fmt.Sprintf("C%d", rng.Intn(5)),
						fmt.Sprintf("L%d", rng.Intn(5)),
						2015+rng.Intn(3),
						int64(rng.Intn(900)+1))...)
				}
				all := gInc.Triples()
				for i := 0; i < rng.Intn(3) && len(all) > 0; i++ {
					victim := all[rng.Intn(len(all))]
					if rng.Intn(2) == 0 {
						// Delete one triple: the observation loses a required
						// pattern, so its whole solution row disappears.
						del = append(del, victim)
					} else {
						// Delete the whole observation — the path to group
						// deaths once a group's last observation goes.
						for _, tr := range all {
							if tr.S == victim.S {
								del = append(del, tr)
							}
						}
					}
				}
				if len(ins) == 0 && len(del) == 0 {
					continue
				}
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
				mi := refreshView(t, ci, v)
				mf := refreshView(t, cf, v)
				if mf.Maint.LastPath == "incremental" {
					t.Fatalf("round %d: disabled catalog took the incremental path", round)
				}
				if mi.Maint.LastPath == "incremental" {
					incRuns++
				} else if di.Len() > 0 && (agg == "SUM" || agg == "COUNT" || agg == "AVG") {
					// Self-maintainable-both facets must never fall back on
					// this workload (numeric measures, covered delta log).
					t.Fatalf("round %d: %s refresh fell back to %q", round, agg, mi.Maint.LastPath)
				}
				label := fmt.Sprintf("%s round %d", agg, round)
				assertBitIdentical(t, label, mi.Data, mf.Data)
				// The encodings in V must coincide triple for triple.
				ti, tf := ci.ViewGraph().SortedTriples(), cf.ViewGraph().SortedTriples()
				if !reflect.DeepEqual(ti, tf) {
					t.Fatalf("%s: V diverged (%d vs %d triples)", label, len(ti), len(tf))
				}
				// And both must equal a from-scratch computation.
				direct, err := Compute(cf.BaseEngine(), v)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, label+" (vs direct)", mi.Data, direct)
			}
			if incRuns == 0 {
				t.Fatal("incremental path never ran")
			}
		})
	}
}

func TestIncrementalRefreshRecordsPath(t *testing.T) {
	g := popGraph(t, 41, 3, 2, 2)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	v := f.View(facet.MaskFromBits(0))
	m, err := c.Materialize(v)
	if err != nil {
		t.Fatal(err)
	}
	if m.Maint.LastPath != "initial" || m.Maint.Mode != "self-maintainable-both" {
		t.Fatalf("initial Maint = %+v", m.Maint)
	}
	if _, err := c.ApplyUpdate(observation("obsN", "C9", "L0", 2015, 5), nil); err != nil {
		t.Fatal(err)
	}
	m = refreshView(t, c, v)
	if m.Maint.LastPath != "incremental" {
		t.Fatalf("LastPath = %q, want incremental", m.Maint.LastPath)
	}
	if m.Maint.DeltaSize != 4 {
		t.Fatalf("DeltaSize = %d, want 4", m.Maint.DeltaSize)
	}
	direct, err := Compute(c.BaseEngine(), v)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "after insert", m.Data, direct)
}

// TestMinMaxExtremumDeleteFallsBack pins the one case the issue carves out:
// deleting a MIN group's stored extremum cannot be maintained incrementally
// and must recompute in full — and still produce correct contents.
func TestMinMaxExtremumDeleteFallsBack(t *testing.T) {
	g := popGraph(t, 42, 3, 2, 2)
	f := popFacet(t, "MIN")
	c := NewCatalog(g, f)
	v := f.View(facet.MaskFromBits(0))
	m, err := c.Materialize(v)
	if err != nil {
		t.Fatal(err)
	}
	// Find the pop triple carrying the apex group's minimum value.
	var victim rdf.Triple
	found := false
	for _, tr := range g.Triples() {
		if tr.P.Value != "http://ex.org/pop" {
			continue
		}
		for _, grp := range groupsOf(m.Data) {
			if grp.Agg.Bound && grp.Agg.Term == tr.O {
				victim, found = tr, true
			}
		}
	}
	if !found {
		t.Fatal("no extremum-carrying triple found")
	}
	if _, err := c.ApplyUpdate(nil, []rdf.Triple{victim}); err != nil {
		t.Fatal(err)
	}
	m = refreshView(t, c, v)
	if m.Maint.LastPath != "full" {
		t.Fatalf("extremum delete took path %q, want full", m.Maint.LastPath)
	}
	direct, err := Compute(c.BaseEngine(), v)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "after extremum delete", m.Data, direct)
}

// TestMinMaxNonExtremumDeleteStaysIncremental: deleting a value strictly
// worse than the stored extremum applies incrementally.
func TestMinMaxNonExtremumDeleteStaysIncremental(t *testing.T) {
	g := popGraph(t, 47, 1, 1, 1)
	f := popFacet(t, "MIN")
	c := NewCatalog(g, f)
	v := f.View(0) // apex
	// Two extra observations in the lone group: min 1 and a larger 999.
	big := observation("obsBig", "C0", "L0", 2015, 999)
	if _, err := c.ApplyUpdate(append(observation("obsSmall", "C0", "L0", 2015, 1), big...), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Materialize(v); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyUpdate(nil, big); err != nil {
		t.Fatal(err)
	}
	m := refreshView(t, c, v)
	if m.Maint.LastPath != "incremental" {
		t.Fatalf("non-extremum delete took path %q, want incremental", m.Maint.LastPath)
	}
	direct, err := Compute(c.BaseEngine(), v)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "after non-extremum delete", m.Data, direct)
}

func TestMaintenanceModeClassification(t *testing.T) {
	for _, tc := range []struct {
		agg  string
		want MaintenanceMode
	}{
		{"SUM", MaintainBoth}, {"COUNT", MaintainBoth}, {"AVG", MaintainBoth},
		{"MIN", MaintainInserts}, {"MAX", MaintainInserts},
	} {
		f := popFacet(t, tc.agg)
		if got := maintenanceMode(f); got != tc.want {
			t.Errorf("%s: mode = %v, want %v", tc.agg, got, tc.want)
		}
	}
	// A pattern with a FILTER cannot be delta-evaluated by substitution.
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT ?country (SUM(?pop) AS ?a) WHERE {
  ?o ex:country ?country .
  ?o ex:pop ?pop .
  FILTER (?pop > 10)
} GROUP BY ?country`)
	f, err := facet.FromQuery("filtered", q)
	if err != nil {
		t.Fatal(err)
	}
	if got := maintenanceMode(f); got != MaintainRecompute {
		t.Errorf("filtered facet: mode = %v, want recompute-only", got)
	}
}

// TestDeltaLogGapForcesFullRefresh: a base-graph mutation that bypasses the
// catalog leaves a hole in the delta log, so the next refresh must detect
// the gap and recompute rather than replay an incomplete delta.
func TestDeltaLogGapForcesFullRefresh(t *testing.T) {
	g := popGraph(t, 43, 3, 2, 2)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	v := f.View(facet.MaskFromBits(0))
	if _, err := c.Materialize(v); err != nil {
		t.Fatal(err)
	}
	// Mutate the base graph directly: version moves, no delta is captured.
	for _, tr := range observation("obsGap", "C0", "L0", 2015, 77) {
		g.MustAdd(tr)
	}
	if !c.Stale(v.Mask) {
		t.Fatal("view not stale after direct base mutation")
	}
	m := refreshView(t, c, v)
	if m.Maint.LastPath != "full" {
		t.Fatalf("refresh over a log gap took path %q, want full", m.Maint.LastPath)
	}
	direct, err := Compute(c.BaseEngine(), v)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "after gap refresh", m.Data, direct)
}

func TestApplyUpdateSameBatchCancels(t *testing.T) {
	g := popGraph(t, 44, 2, 2, 1)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	v := f.View(0)
	if _, err := c.Materialize(v); err != nil {
		t.Fatal(err)
	}
	obs := observation("obsTmp", "C0", "L0", 2015, 3)
	d, err := c.ApplyUpdate(obs, obs)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("insert+delete of the same batch left delta %d", d.Len())
	}
	// The version interval moved, so the view is formally stale — but the
	// recorded empty segment lets refresh replay it for free.
	if !c.Stale(v.Mask) {
		t.Fatal("view should be version-stale after the cancelling batch")
	}
	m := refreshView(t, c, v)
	if m.Maint.LastPath != "incremental" || m.Maint.DeltaSize != 0 {
		t.Fatalf("cancelling batch refresh = %+v, want zero-delta incremental", m.Maint)
	}
	direct, err := Compute(c.BaseEngine(), v)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "after cancelling batch", m.Data, direct)
}

func TestDeltaLogSinceCoalesces(t *testing.T) {
	tr := func(i int) rdf.Triple {
		return rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex.org/s%d", i)),
			P: rdf.NewIRI("http://ex.org/p"),
			O: rdf.NewInteger(int64(i)),
		}
	}
	var l deltaLog
	l.record(store.Delta{Inserted: []rdf.Triple{tr(1)}, FromVersion: 0, ToVersion: 1})
	l.record(store.Delta{Deleted: []rdf.Triple{tr(1)}, FromVersion: 1, ToVersion: 2})
	l.record(store.Delta{Inserted: []rdf.Triple{tr(2)}, Deleted: []rdf.Triple{tr(3)}, FromVersion: 2, ToVersion: 4})
	ins, del, ok := l.since(0, 4)
	if !ok {
		t.Fatal("log should cover 0..4")
	}
	if len(ins) != 1 || ins[0] != tr(2) {
		t.Errorf("net inserts = %v (insert-then-delete must cancel)", ins)
	}
	if len(del) != 1 || del[0] != tr(3) {
		t.Errorf("net deletes = %v", del)
	}
	if _, _, ok := l.since(1, 4); !ok {
		t.Error("mid-log window should be coverable")
	}
	if _, _, ok := l.since(3, 4); ok {
		t.Error("a version inside a segment must not be coverable")
	}
	// A gap restarts the log.
	l.record(store.Delta{Inserted: []rdf.Triple{tr(9)}, FromVersion: 9, ToVersion: 10})
	if _, _, ok := l.since(0, 10); ok {
		t.Error("window across a gap must not be coverable")
	}
	if _, _, ok := l.since(9, 10); !ok {
		t.Error("post-gap window should be coverable")
	}
}

func TestDeltaLogPrune(t *testing.T) {
	tr := func(i int) rdf.Triple {
		return rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex.org/s%d", i)),
			P: rdf.NewIRI("http://ex.org/p"),
			O: rdf.NewInteger(int64(i)),
		}
	}
	var l deltaLog
	for i := 0; i < 10; i++ {
		l.record(store.Delta{Inserted: []rdf.Triple{tr(i)}, FromVersion: int64(i), ToVersion: int64(i + 1)})
	}
	l.prune(5)
	if _, _, ok := l.since(5, 10); !ok {
		t.Error("window after the pruned prefix should survive")
	}
	if _, _, ok := l.since(4, 10); ok {
		t.Error("pruned window must not be coverable")
	}
	if l.triples != 5 {
		t.Errorf("accounted triples = %d, want 5", l.triples)
	}
}

// TestStaleMemo exercises the memoized stale set across every invalidation
// source: catalog mutations (generation) and direct base writes (version).
func TestStaleMemo(t *testing.T) {
	g := popGraph(t, 45, 3, 2, 1)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	v := f.View(facet.MaskFromBits(0))
	if _, err := c.Materialize(v); err != nil {
		t.Fatal(err)
	}
	if len(c.StaleViews()) != 0 || c.Stale(v.Mask) {
		t.Fatal("fresh view reported stale")
	}
	if _, err := c.ApplyUpdate(observation("obsM", "C0", "L0", 2015, 9)[:1], nil); err != nil {
		t.Fatal(err)
	}
	if !c.Stale(v.Mask) || len(c.StaleViews()) != 1 {
		t.Fatal("catalog insert did not invalidate the memo")
	}
	refreshView(t, c, v)
	if c.Stale(v.Mask) || len(c.StaleViews()) != 0 {
		t.Fatal("refresh did not invalidate the memo")
	}
	// Direct base write: generation unchanged, version moves.
	g.MustAdd(observation("obsM2", "C1", "L1", 2015, 9)[0])
	if !c.Stale(v.Mask) {
		t.Fatal("direct base write did not invalidate the memo")
	}
}

// TestIncrementalGroupLabelStability: an incremental refresh must leave
// untouched groups' blank nodes in place — the diff applied to G+ is
// proportional to the changed groups, not to |V|.
func TestIncrementalGroupLabelStability(t *testing.T) {
	g := popGraph(t, 46, 4, 3, 2)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	v := f.View(facet.MaskFromBits(0, 1))
	m, err := c.Materialize(v)
	if err != nil {
		t.Fatal(err)
	}
	before, err := Encode(m.Data)
	if err != nil {
		t.Fatal(err)
	}
	// Touch exactly one group.
	if _, err := c.ApplyUpdate(observation("obsOne", "C0", "L1", 2015, 13), nil); err != nil {
		t.Fatal(err)
	}
	m = refreshView(t, c, v)
	after, err := Encode(m.Data)
	if err != nil {
		t.Fatal(err)
	}
	beforeSet := make(map[rdf.Triple]bool, len(before))
	for _, tr := range before {
		beforeSet[tr] = true
	}
	changed := 0
	for _, tr := range after {
		if !beforeSet[tr] {
			changed++
		}
	}
	// Only the touched group's aggregate triple should differ.
	if changed > 2 {
		t.Errorf("%d encoding triples changed for a one-group delta", changed)
	}
}

// TestIncrementalRefreshAllocBudget: a refresh that changes one group copies
// the group-table chunk holding it, not the view, so what it allocates must
// stay flat as the view grows tenfold.
func TestIncrementalRefreshAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	perRefresh := func(groups int) uint64 {
		const langs = 50
		var triples []rdf.Triple
		for i := 0; i < groups; i++ {
			triples = append(triples, observation(fmt.Sprintf("o%d", i),
				fmt.Sprintf("C%d", i/langs), fmt.Sprintf("L%d", i%langs), 2015, int64(i%97+1))...)
		}
		g := store.NewGraph()
		if _, err := g.LoadTriples(triples); err != nil {
			t.Fatal(err)
		}
		f := popFacet(t, "SUM")
		c := NewCatalog(g, f)
		v := f.View(facet.MaskFromBits(0, 1)) // per (country, lang)
		m, err := c.Materialize(v)
		if err != nil {
			t.Fatal(err)
		}
		if m.Data.NumGroups() != groups {
			t.Fatalf("materialized %d groups, want %d", m.Data.NumGroups(), groups)
		}
		const rounds = 20
		var total uint64
		var before, after runtime.MemStats
		for r := 0; r < rounds; r++ {
			i := r * groups / rounds // spread the touched groups over the table
			obs := observation(fmt.Sprintf("x%d", r), fmt.Sprintf("C%d", i/langs), fmt.Sprintf("L%d", i%langs), 2015, 5)
			if _, err := c.ApplyUpdate(obs, nil); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			_, err := c.RefreshAllParallel(1)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			m, _ := c.Get(v.Mask)
			if m.Maint.LastPath != "incremental" {
				t.Fatalf("refresh took path %q", m.Maint.LastPath)
			}
			total += after.TotalAlloc - before.TotalAlloc
		}
		return total / rounds
	}
	small, large := perRefresh(2000), perRefresh(20000)
	t.Logf("bytes allocated per one-group refresh: %d at 2000 groups, %d at 20000", small, large)
	if float64(large) > 1.5*float64(small) {
		t.Errorf("one-group refresh allocates %d B at 20000 groups, over 1.5x the %d B at 2000", large, small)
	}
}
