package datasets

import (
	"math/rand"
	"testing"

	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/views"
	"sofos/internal/workload"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 3 {
		t.Fatalf("datasets = %d, want 3", len(all))
	}
	names := Names()
	want := []string{"dbpedia", "lubm", "swdf"}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("Names[%d] = %q, want %q", i, names[i], n)
		}
	}
	for _, n := range want {
		if _, ok := ByName(n); !ok {
			t.Errorf("ByName(%q) missing", n)
		}
	}
	if _, ok := ByName("yago"); ok {
		t.Error("unknown dataset found")
	}
	if _, _, err := BuildWithFacet("yago", 1, 1); err == nil {
		t.Error("BuildWithFacet accepted unknown dataset")
	}
}

func TestEachDatasetBuildsAndValidates(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g, f, err := BuildWithFacet(spec.Name, 0, 42) // 0 = default scale
			if err != nil {
				t.Fatal(err)
			}
			if g.Len() == 0 {
				t.Fatal("empty graph")
			}
			if err := f.Validate(); err != nil {
				t.Fatalf("facet invalid: %v", err)
			}
			// The facet's template query must produce groups on the data.
			d, err := views.Compute(engine.New(g), f.View(f.FullMask()))
			if err != nil {
				t.Fatal(err)
			}
			if d.NumGroups() == 0 {
				t.Error("facet produces no groups on its own dataset")
			}
			// Every dimension must have a non-trivial domain.
			domains, err := workload.DimensionDomains(g, f)
			if err != nil {
				t.Fatal(err)
			}
			for dim, vals := range domains {
				if len(vals) < 2 {
					t.Errorf("dimension ?%s has %d values", dim, len(vals))
				}
			}
		})
	}
}

func TestDeterministicGeneration(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			a, err := spec.Build(spec.DefaultScale, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := spec.Build(spec.DefaultScale, 7)
			if err != nil {
				t.Fatal(err)
			}
			if a.Len() != b.Len() {
				t.Fatalf("same seed different sizes: %d vs %d", a.Len(), b.Len())
			}
			for _, tr := range a.Triples() {
				if !b.Contains(tr) {
					t.Fatalf("triple %s missing in rebuild", tr)
				}
			}
			c, err := spec.Build(spec.DefaultScale, 8)
			if err != nil {
				t.Fatal(err)
			}
			if c.Len() == a.Len() {
				same := true
				for _, tr := range a.Triples() {
					if !c.Contains(tr) {
						same = false
						break
					}
				}
				if same {
					t.Error("different seeds produced identical graphs")
				}
			}
		})
	}
}

func TestScaleGrowsGraphs(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			small, err := spec.Build(1, 3)
			if err != nil {
				t.Fatal(err)
			}
			big, err := spec.Build(spec.DefaultScale+1, 3)
			if err != nil {
				t.Fatal(err)
			}
			if big.Len() <= small.Len() {
				t.Errorf("scale did not grow graph: %d vs %d", small.Len(), big.Len())
			}
		})
	}
}

func TestInvalidScaleRejected(t *testing.T) {
	for _, spec := range All() {
		if _, err := spec.Build(-1, 1); err == nil {
			t.Errorf("%s accepted negative scale", spec.Name)
		}
	}
}

func TestLUBMShape(t *testing.T) {
	g, f, err := BuildWithFacet("lubm", 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	st := g.Snapshot()
	// Publications dominate, as in UBA.
	if st.PredicateCount(lubmNS+"publicationAuthor") < st.PredicateCount(lubmNS+"worksFor") {
		t.Error("publications should outnumber faculty")
	}
	// The rank dimension has the four UBA ranks.
	domains, err := workload.DimensionDomains(g, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(domains["rank"]) != 4 {
		t.Errorf("ranks = %v", domains["rank"])
	}
	if len(f.Dims) != 3 {
		t.Errorf("lubm dims = %v", f.Dims)
	}
}

func TestDBpediaShape(t *testing.T) {
	g, f, err := BuildWithFacet("dbpedia", 30, 13)
	if err != nil {
		t.Fatal(err)
	}
	domains, err := workload.DimensionDomains(g, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(domains["country"]) != 30 {
		t.Errorf("countries = %d", len(domains["country"]))
	}
	if len(domains["year"]) != 5 {
		t.Errorf("years = %d", len(domains["year"]))
	}
	if len(domains["continent"]) < 2 {
		t.Errorf("continents = %d", len(domains["continent"]))
	}
	// Zipf skew: English should be far more common than the tail.
	if len(domains["lang"]) < 3 {
		t.Errorf("languages = %d", len(domains["lang"]))
	}
	if len(f.Dims) != 4 {
		t.Errorf("dbpedia dims = %v", f.Dims)
	}
	// 4 dims -> 16-view lattice.
	l, err := facet.NewLattice(f)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != 16 {
		t.Errorf("lattice size = %d", l.Size())
	}
}

func TestSWDFShape(t *testing.T) {
	g, f, err := BuildWithFacet("swdf", 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	domains, err := workload.DimensionDomains(g, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(domains["series"]) != 4 {
		t.Errorf("series = %v", domains["series"])
	}
	if len(domains["year"]) != 4 {
		t.Errorf("years = %v", domains["year"])
	}
	if len(domains["country"]) < 3 {
		t.Errorf("countries = %d", len(domains["country"]))
	}
	// AVG facet: the roll-up companions must work end to end.
	d, err := views.Compute(engine.New(g), f.View(f.FullMask()))
	if err != nil {
		t.Fatal(err)
	}
	rolled, err := views.RollUp(d, f.View(0))
	if err != nil {
		t.Fatal(err)
	}
	var apex views.Group
	rolled.Each(func(g views.Group) bool { apex = g; return false })
	if rolled.NumGroups() != 1 || !apex.Agg.Bound {
		t.Errorf("SWDF apex roll-up: %d groups, first %+v", rolled.NumGroups(), apex)
	}
}

func TestZipfIndexBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 10)
	for i := 0; i < 5000; i++ {
		idx := zipfIndex(rng, 10, 1.3)
		if idx < 0 || idx >= 10 {
			t.Fatalf("index %d out of bounds", idx)
		}
		counts[idx]++
	}
	if counts[0] <= counts[9] {
		t.Errorf("no skew: head %d, tail %d", counts[0], counts[9])
	}
	if zipfIndex(rng, 1, 1.3) != 0 || zipfIndex(rng, 0, 1.3) != 0 {
		t.Error("degenerate n not handled")
	}
}
