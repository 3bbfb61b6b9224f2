package views

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

// popGraph builds a population graph with countries × languages × years.
func popGraph(t testing.TB, seed int64, countries, langs, years int) *store.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var ts []rdf.Triple
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	for ci := 0; ci < countries; ci++ {
		for li := 0; li < langs; li++ {
			if ci%langs == li && ci%2 == 0 {
				continue // leave some holes so group counts differ per view
			}
			for yi := 0; yi < years; yi++ {
				obs := ex(fmt.Sprintf("obs_%d_%d_%d", ci, li, yi))
				ts = append(ts, rdf.Triple{S: obs, P: ex("country"), O: rdf.NewLiteral(fmt.Sprintf("C%d", ci))})
				ts = append(ts, rdf.Triple{S: obs, P: ex("lang"), O: rdf.NewLiteral(fmt.Sprintf("L%d", li))})
				ts = append(ts, rdf.Triple{S: obs, P: ex("year"), O: rdf.NewYear(2015 + yi)})
				ts = append(ts, rdf.Triple{S: obs, P: ex("pop"), O: rdf.NewInteger(int64(rng.Intn(1000) + 1))})
			}
		}
	}
	// One Apply leaves the graph as triple-by-triple inserts would: below the
	// compaction threshold the triples stay in the delta overlay.
	g := store.NewGraph()
	if _, err := g.Apply(ts, nil); err != nil {
		t.Fatal(err)
	}
	return g
}

// groupsOf lists a view's groups in table order.
func groupsOf(d *Data) []Group { return tableGroups(&d.groups) }

// popFacet builds the matching facet with the given aggregate.
func popFacet(t testing.TB, agg string) *facet.Facet {
	t.Helper()
	q := sparql.MustParse(fmt.Sprintf(`PREFIX ex: <http://ex.org/>
SELECT ?country ?lang ?year (%s(?pop) AS ?a) WHERE {
  ?o ex:country ?country .
  ?o ex:lang ?lang .
  ?o ex:year ?year .
  ?o ex:pop ?pop .
} GROUP BY ?country ?lang ?year`, agg))
	f, err := facet.FromQuery("pop", q)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestComputeTopView(t *testing.T) {
	g := popGraph(t, 1, 4, 3, 2)
	f := popFacet(t, "SUM")
	eng := engine.New(g)
	d, err := Compute(eng, f.View(f.FullMask()))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumGroups() == 0 {
		t.Fatal("no groups computed")
	}
	if d.Source != "base" {
		t.Errorf("source = %q", d.Source)
	}
	for _, grp := range groupsOf(d) {
		if len(grp.Key) != 3 || !grp.Agg.Bound {
			t.Fatalf("malformed group %+v", grp)
		}
	}
}

func TestComputeApexEqualsTotalSum(t *testing.T) {
	g := popGraph(t, 2, 3, 2, 2)
	f := popFacet(t, "SUM")
	eng := engine.New(g)
	apex, err := Compute(eng, f.View(0))
	if err != nil {
		t.Fatal(err)
	}
	if apex.NumGroups() != 1 {
		t.Fatalf("apex groups = %d", apex.NumGroups())
	}
	// Cross-check against a direct query.
	res, err := eng.Execute(sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT (SUM(?pop) AS ?t) WHERE { ?o ex:country ?c . ?o ex:lang ?l . ?o ex:year ?y . ?o ex:pop ?pop . }`))
	if err != nil {
		t.Fatal(err)
	}
	if got := groupsOf(apex)[0].Agg.Term.Value; got != res.Rows[0][0].Term.Value {
		t.Errorf("apex = %s, direct = %s", got, res.Rows[0][0].Term.Value)
	}
}

// TestRollUpEquivalence is the core roll-up correctness property: for every
// aggregate and every pair (parent, child), rolling up the parent's data
// produces exactly the child view computed from the base graph.
func TestRollUpEquivalence(t *testing.T) {
	g := popGraph(t, 3, 4, 3, 3)
	for _, agg := range []string{"SUM", "COUNT", "MIN", "MAX", "AVG"} {
		t.Run(agg, func(t *testing.T) {
			f := popFacet(t, agg)
			eng := engine.New(g)
			l, err := facet.NewLattice(f)
			if err != nil {
				t.Fatal(err)
			}
			top, err := Compute(eng, l.Top())
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range l.Views() {
				direct, err := Compute(eng, v)
				if err != nil {
					t.Fatalf("compute %s: %v", v, err)
				}
				rolled, err := RollUp(top, v)
				if err != nil {
					t.Fatalf("rollup %s: %v", v, err)
				}
				if !strings.HasPrefix(rolled.Source, "rollup:") {
					t.Errorf("rolled source = %q", rolled.Source)
				}
				assertSameGroups(t, v, direct, rolled)
			}
		})
	}
}

// assertSameGroups compares group multisets by canonical key.
func assertSameGroups(t *testing.T, v facet.View, a, b *Data) {
	t.Helper()
	canon := func(d *Data) map[string]string {
		out := make(map[string]string, d.NumGroups())
		for _, g := range groupsOf(d) {
			var kb strings.Builder
			for _, kv := range g.Key {
				kb.WriteString(kv.String())
				kb.WriteByte('|')
			}
			val := g.Agg.String()
			if v.Facet.Agg == sparql.AggAvg && g.Agg.Bound {
				// Compare AVG numerically to tolerate formatting variance.
				val = fmt.Sprintf("%.9g", g.Sum/g.Count)
			}
			out[kb.String()] = val
		}
		return out
	}
	ca, cb := canon(a), canon(b)
	if !reflect.DeepEqual(ca, cb) {
		t.Errorf("view %s: direct %v != rolled %v", v, ca, cb)
	}
}

func TestRollUpRejectsNonCover(t *testing.T) {
	g := popGraph(t, 4, 2, 2, 2)
	f := popFacet(t, "SUM")
	eng := engine.New(g)
	child, err := Compute(eng, f.View(facet.Mask(0b1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RollUp(child, f.View(facet.Mask(0b11))); err == nil {
		t.Error("roll-up from non-covering view accepted")
	}
}

func TestComputeStats(t *testing.T) {
	g := popGraph(t, 5, 3, 2, 2)
	f := popFacet(t, "SUM")
	eng := engine.New(g)
	v := f.View(facet.Mask(0b11))
	d, err := Compute(eng, v)
	if err != nil {
		t.Fatal(err)
	}
	st := ComputeStats(d)
	if st.Groups != d.NumGroups() {
		t.Errorf("Groups = %d, want %d", st.Groups, d.NumGroups())
	}
	// Encoding: per group 1 inView + 2 dims + 1 agg.
	want := d.NumGroups() * 4
	if st.Triples != want {
		t.Errorf("Triples = %d, want %d", st.Triples, want)
	}
	if st.Nodes <= d.NumGroups() {
		t.Errorf("Nodes = %d suspiciously small", st.Nodes)
	}
}

func TestEncodeShape(t *testing.T) {
	g := popGraph(t, 6, 2, 2, 1)
	f := popFacet(t, "SUM")
	eng := engine.New(g)
	v := f.View(facet.Mask(0b10)) // lang only
	d, err := Compute(eng, v)
	if err != nil {
		t.Fatal(err)
	}
	triples, err := Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	perGroup := 3 // inView + d_lang + agg
	if len(triples) != d.NumGroups()*perGroup {
		t.Fatalf("encoded %d triples for %d groups", len(triples), d.NumGroups())
	}
	inView, dims, aggs := 0, 0, 0
	for _, tr := range triples {
		if tr.S.Kind != rdf.KindBlank {
			t.Errorf("non-blank group subject %s", tr.S)
		}
		switch tr.P.Value {
		case PredInView:
			inView++
			if tr.O.Value != v.IRI() {
				t.Errorf("inView object = %s", tr.O)
			}
		case DimPredicate("lang"):
			dims++
		case PredAgg:
			aggs++
			if !tr.O.IsNumeric() {
				t.Errorf("agg object not numeric: %s", tr.O)
			}
		default:
			t.Errorf("unexpected predicate %s", tr.P)
		}
	}
	if inView != d.NumGroups() || dims != d.NumGroups() || aggs != d.NumGroups() {
		t.Errorf("counts inView=%d dims=%d aggs=%d", inView, dims, aggs)
	}
}

func TestEncodeAvgCarriesSumCount(t *testing.T) {
	g := popGraph(t, 7, 2, 2, 1)
	f := popFacet(t, "AVG")
	eng := engine.New(g)
	d, err := Compute(eng, f.View(facet.Mask(0b1)))
	if err != nil {
		t.Fatal(err)
	}
	triples, err := Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	sums, counts := 0, 0
	for _, tr := range triples {
		switch tr.P.Value {
		case PredSum:
			sums++
		case PredCount:
			counts++
		}
	}
	if sums != d.NumGroups() || counts != d.NumGroups() {
		t.Errorf("AVG encoding sums=%d counts=%d groups=%d", sums, counts, d.NumGroups())
	}
}

func TestCatalogMaterializeAndDrop(t *testing.T) {
	g := popGraph(t, 8, 3, 2, 2)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	baseLen := g.Len()
	if n := c.viewGraph().g.Len(); n != 0 || c.AddedTriples() != 0 {
		t.Fatalf("view graph V has %d triples before any materialization", n)
	}
	v := f.View(facet.Mask(0b11))
	m, err := c.Materialize(v)
	if err != nil {
		t.Fatal(err)
	}
	if m.Triples == 0 || m.Nodes() == 0 || m.Bytes == 0 {
		t.Errorf("materialized stats = %+v", m)
	}
	if n := c.viewGraph().g.Len(); n != m.Triples || c.AddedTriples() != m.Triples {
		t.Errorf("|V| = %d, AddedTriples = %d, want %d", n, c.AddedTriples(), m.Triples)
	}
	if want := float64(baseLen+m.Triples) / float64(baseLen); c.StorageAmplification() != want {
		t.Errorf("amplification = %f, want (|G|+|V|)/|G| = %f", c.StorageAmplification(), want)
	}
	if g.Len() != baseLen {
		t.Error("materialization mutated the base graph")
	}
	if !c.Has(v.Mask) || len(c.Materialized()) != 1 {
		t.Error("catalog bookkeeping wrong")
	}
	if got, ok := c.mats[v.Mask]; !ok || got != m {
		t.Error("Get returned wrong record")
	}
	// Re-materializing is a no-op.
	m2, err := c.Materialize(v)
	if err != nil || m2 != m {
		t.Errorf("re-materialize = %v, %v", m2, err)
	}
	if c.viewGraph().g.Len() != m.Triples {
		t.Error("re-materialize duplicated triples")
	}
	// A second view adds its own encoding: AddedTriples = |V| = Σ m.Triples.
	m3, err := c.Materialize(f.View(facet.Mask(0b1)))
	if err != nil {
		t.Fatal(err)
	}
	if sum, n := m.Triples+m3.Triples, c.viewGraph().g.Len(); n != sum || c.AddedTriples() != sum {
		t.Errorf("|V| = %d, AddedTriples = %d, want Σ Triples = %d", n, c.AddedTriples(), sum)
	}
	// Drop empties V again.
	if !c.Drop(v) {
		t.Fatal("Drop = false")
	}
	if c.Drop(v) {
		t.Error("second Drop = true")
	}
	if !c.Drop(m3.View()) {
		t.Fatal("Drop of the second view = false")
	}
	if n := c.viewGraph().g.Len(); n != 0 || g.Len() != baseLen {
		t.Errorf("after drop |V| = %d, |G| = %d; want 0, %d", n, g.Len(), baseLen)
	}
	if c.StorageAmplification() != 1.0 {
		t.Errorf("amplification after drop = %f", c.StorageAmplification())
	}
	// Reset empties V too.
	if _, err := c.Materialize(v); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if n := c.viewGraph().g.Len(); n != 0 || c.AddedTriples() != 0 {
		t.Errorf("after Reset |V| = %d, want 0", n)
	}
}

// TestEncodingCountsFollowEncode pins the catalog's size accounting, which
// never builds V, to Encode's own counting rule after every operation that
// changes a record: each record's Triples is the length of its encoding and
// its Bytes the encoding's Σ tripleBytes, AddedTriples is Σ Triples and the
// size of the on-demand V, and the amplification is (|G| + |V|) / |G|. A
// non-numeric measure gives the SUM and AVG views a group without a
// sofos:agg triple, and fractional and out-of-int64 measures give AVG sums
// on both of FormatFloat's branches.
func TestEncodingCountsFollowEncode(t *testing.T) {
	for _, agg := range []string{"SUM", "AVG", "MIN"} {
		t.Run(agg, func(t *testing.T) {
			g := popGraph(t, 31, 5, 3, 2)
			nan := observation("obsNaN", "CNaN", "L0", 2015, 0)
			nan[3].O = rdf.NewLiteral("n/a")
			// A fractional measure, and one whose int64 conversion
			// overflows, put the AVG sum literal on FormatFloat's decimal
			// branch; the other groups keep it on the integer branch.
			frac := observation("obsFrac", "CFrac", "L0", 2015, 0)
			frac[3].O = rdf.NewDecimal(2.5)
			huge := observation("obsHuge", "CHuge", "L0", 2015, 0)
			huge[3].O = rdf.NewDecimal(1e21)
			if _, err := g.Apply(slices.Concat(nan, frac, huge), nil); err != nil {
				t.Fatal(err)
			}
			f := popFacet(t, agg)
			c := NewCatalog(g, f)
			check := func(step string, c *Catalog) {
				t.Helper()
				total := 0
				for _, m := range c.Materialized() {
					ts, err := Encode(m.Data)
					if err != nil {
						t.Fatal(err)
					}
					var bytes int64
					for _, tr := range ts {
						bytes += tripleBytes(tr)
					}
					if m.Triples != len(ts) || m.Bytes != bytes {
						t.Errorf("%s: %s records %d triples / %d bytes, Encode gives %d / %d",
							step, m.View(), m.Triples, m.Bytes, len(ts), bytes)
					}
					total += m.Triples
				}
				if c.AddedTriples() != total || c.viewGraph().g.Len() != total {
					t.Errorf("%s: AddedTriples %d, |V| %d, want Σ Triples %d", step, c.AddedTriples(), c.viewGraph().g.Len(), total)
				}
				if want := float64(c.Base().Len()+total) / float64(c.Base().Len()); c.StorageAmplification() != want {
					t.Errorf("%s: amplification %f, want %f", step, c.StorageAmplification(), want)
				}
			}
			full, mid := f.View(f.FullMask()), f.View(facet.Mask(0b11))
			for _, v := range []facet.View{full, mid, f.View(0)} {
				if _, err := c.Materialize(v); err != nil {
					t.Fatal(err)
				}
			}
			check("materialize", c)

			// A birth (new country), a value change (a second observation in
			// an existing group) and a death (the only observation of its
			// finest group).
			addObservation(t, c, "obsBorn", "CNEW", "L1", 2016, 41)
			addObservation(t, c, "obsMore", "C1", "L0", 2015, 7)
			if _, err := c.ApplyUpdate(nil, observation("obs_1_1_1", "C1", "L1", 2016, 0)[:3]); err != nil {
				t.Fatal(err)
			}
			if m := refreshView(t, c, full); agg != "MIN" && m.Maint.LastPath != "incremental" {
				t.Fatalf("refresh took the %s path, want incremental", m.Maint.LastPath)
			}
			check("incremental refresh", c)

			c.SetIncrementalMaintenance(false)
			addObservation(t, c, "obsFull", "C2", "L2", 2016, 99)
			if m := refreshView(t, c, full); m.Maint.LastPath != "full" {
				t.Fatalf("refresh took the %s path, want full", m.Maint.LastPath)
			}
			check("full refresh", c)

			restored := saveRestore(t, c)
			check("restore", restored)
			for _, m := range c.Materialized() {
				r := restored.mats[m.View().Mask]
				if r.Triples != m.Triples || r.Bytes != m.Bytes {
					t.Errorf("restored %s: %d triples / %d bytes, want %d / %d", m.View(), r.Triples, r.Bytes, m.Triples, m.Bytes)
				}
			}

			c.Drop(mid)
			check("drop", c)
			c.Reset()
			check("reset", c)
		})
	}
}

func TestCatalogRollUpPath(t *testing.T) {
	g := popGraph(t, 9, 4, 3, 2)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	top, err := c.Materialize(f.View(f.FullMask()))
	if err != nil {
		t.Fatal(err)
	}
	if top.Data.Source != "base" {
		t.Errorf("top source = %q", top.Data.Source)
	}
	child, err := c.Materialize(f.View(facet.Mask(0b1)))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(child.Data.Source, "rollup:") {
		t.Errorf("child source = %q, want rollup", child.Data.Source)
	}
	// The rolled-up contents must match a direct base computation.
	direct, err := Compute(c.BaseEngine(), f.View(facet.Mask(0b1)))
	if err != nil {
		t.Fatal(err)
	}
	assertSameGroups(t, child.Data.View, direct, child.Data)
}

func TestCatalogBestSourcePrefersFewestGroups(t *testing.T) {
	g := popGraph(t, 10, 4, 3, 2)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	// Materialize two ancestors of {0}: the full view and {0,1}.
	if _, err := c.Materialize(f.View(f.FullMask())); err != nil {
		t.Fatal(err)
	}
	mid, err := c.Materialize(f.View(facet.Mask(0b11)))
	if err != nil {
		t.Fatal(err)
	}
	child, err := c.Materialize(f.View(facet.Mask(0b1)))
	if err != nil {
		t.Fatal(err)
	}
	if child.Data.Source != "rollup:"+mid.View().ID() && child.Data.Source != "rollup:country+lang" {
		t.Errorf("child source = %q, want roll-up from the smaller ancestor", child.Data.Source)
	}
}

func TestCatalogStorageAmplification(t *testing.T) {
	g := popGraph(t, 11, 3, 2, 2)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	if c.StorageAmplification() != 1.0 {
		t.Errorf("initial amplification = %f", c.StorageAmplification())
	}
	if _, err := c.Materialize(f.View(f.FullMask())); err != nil {
		t.Fatal(err)
	}
	if c.StorageAmplification() <= 1.0 {
		t.Errorf("amplification after materialize = %f", c.StorageAmplification())
	}
	if c.AddedTriples() <= 0 {
		t.Errorf("AddedTriples = %d", c.AddedTriples())
	}
	c.Reset()
	if c.StorageAmplification() != 1.0 || len(c.Materialized()) != 0 {
		t.Error("Reset incomplete")
	}
}

func TestCatalogRejectsForeignView(t *testing.T) {
	g := popGraph(t, 12, 2, 2, 1)
	f := popFacet(t, "SUM")
	other := popFacet(t, "COUNT")
	c := NewCatalog(g, f)
	if _, err := c.Materialize(other.View(0)); err == nil {
		t.Error("foreign facet view accepted")
	}
}

func TestEncodeMismatchedKey(t *testing.T) {
	f := popFacet(t, "SUM")
	d := &Data{View: f.View(facet.Mask(0b11)), groups: newGroupTable([]Group{{}})}
	if _, err := Encode(d); err == nil {
		t.Error("mismatched key length accepted")
	}
}

func TestViewDataQueriedThroughExpandedGraph(t *testing.T) {
	// After materialization, the encoding is reachable via SPARQL on G+ —
	// the property the online module's rewriting relies on.
	g := popGraph(t, 14, 3, 2, 1)
	f := popFacet(t, "SUM")
	c := NewCatalog(g, f)
	v := f.View(facet.Mask(0b10))
	m, err := c.Materialize(v)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.ExpandedEngine().Execute(sparql.MustParse(fmt.Sprintf(`
SELECT ?lang ?val WHERE {
  ?g <%s> <%s> .
  ?g <%s> ?lang .
  ?g <%s> ?val .
}`, PredInView, v.IRI(), DimPredicate("lang"), PredAgg)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != m.Data.NumGroups() {
		t.Errorf("queried %d groups, materialized %d", len(res.Rows), m.Data.NumGroups())
	}
}
