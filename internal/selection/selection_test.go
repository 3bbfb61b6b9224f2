package selection

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sofos/internal/cost"
	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

// fixture builds a graph, lattice, and provider.
func fixture(t testing.TB) (*store.Graph, *facet.Lattice, *cost.Provider) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	var ts []rdf.Triple
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	for ci := 0; ci < 8; ci++ {
		for li := 0; li < 5; li++ {
			for yi := 0; yi < 3; yi++ {
				if (ci*li+yi)%6 == 0 {
					continue
				}
				obs := ex(fmt.Sprintf("o%d_%d_%d", ci, li, yi))
				ts = append(ts, rdf.Triple{S: obs, P: ex("country"), O: rdf.NewLiteral(fmt.Sprintf("C%d", ci))})
				ts = append(ts, rdf.Triple{S: obs, P: ex("lang"), O: rdf.NewLiteral(fmt.Sprintf("L%d", li))})
				ts = append(ts, rdf.Triple{S: obs, P: ex("year"), O: rdf.NewYear(2017 + yi)})
				ts = append(ts, rdf.Triple{S: obs, P: ex("pop"), O: rdf.NewInteger(int64(rng.Intn(900) + 100))})
			}
		}
	}
	g, err := store.BuildFrom(ts)
	if err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT ?country ?lang ?year (SUM(?pop) AS ?a) WHERE {
  ?o ex:country ?country . ?o ex:lang ?lang . ?o ex:year ?year . ?o ex:pop ?pop .
} GROUP BY ?country ?lang ?year`)
	f, err := facet.FromQuery("pop", q)
	if err != nil {
		t.Fatal(err)
	}
	l, err := facet.NewLattice(f)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cost.NewProvider(g, l)
	if err != nil {
		t.Fatal(err)
	}
	return g, l, p
}

func TestGreedyBasics(t *testing.T) {
	_, l, p := fixture(t)
	m := &cost.AggValuesModel{Provider: p}
	sel, err := Greedy(l, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Views) != 3 {
		t.Fatalf("selected %d views, want 3", len(sel.Views))
	}
	if sel.Model != m.Name() {
		t.Errorf("model = %q", sel.Model)
	}
	// No duplicates.
	seen := map[facet.Mask]bool{}
	for _, v := range sel.Views {
		if seen[v.Mask] {
			t.Errorf("duplicate selection %v", v)
		}
		seen[v.Mask] = true
	}
	// Benefits are recorded and non-increasing (greedy marginal gains).
	if len(sel.Benefits) != 3 {
		t.Fatalf("benefits = %v", sel.Benefits)
	}
	for i := 1; i < len(sel.Benefits); i++ {
		if sel.Benefits[i] > sel.Benefits[i-1]+1e-9 {
			t.Errorf("benefit increased: %v", sel.Benefits)
		}
	}
	// Selection helpers.
	if len(sel.Masks()) != 3 || sel.Masks()[0] != sel.Views[0].Mask {
		t.Error("Masks wrong")
	}
}

func TestGreedyImprovesTotalCost(t *testing.T) {
	_, l, p := fixture(t)
	for _, m := range []cost.Model{
		&cost.TriplesModel{Provider: p},
		&cost.AggValuesModel{Provider: p},
		&cost.NodesModel{Provider: p},
	} {
		empty := TotalCost(l, m, nil)
		prev := empty
		for k := 1; k <= 4; k++ {
			sel, err := Greedy(l, m, k)
			if err != nil {
				t.Fatal(err)
			}
			if sel.TotalCost > prev+1e-9 {
				t.Errorf("%s k=%d: total cost rose from %f to %f", m.Name(), k, prev, sel.TotalCost)
			}
			prev = sel.TotalCost
		}
		if prev >= empty {
			t.Errorf("%s: greedy selection never improved on no-views (%f vs %f)", m.Name(), prev, empty)
		}
	}
}

func TestGreedyZeroBudget(t *testing.T) {
	_, l, p := fixture(t)
	sel, err := Greedy(l, &cost.AggValuesModel{Provider: p}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Views) != 0 {
		t.Errorf("views = %v", sel.Views)
	}
	if _, err := Greedy(l, &cost.AggValuesModel{Provider: p}, -1); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestGreedyBudgetAboveLatticeSize(t *testing.T) {
	_, l, p := fixture(t)
	sel, err := Greedy(l, &cost.AggValuesModel{Provider: p}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Views) > l.Size() {
		t.Errorf("selected %d views from a lattice of %d", len(sel.Views), l.Size())
	}
}

// userModel is the user acting as the cost function: the chosen views cost
// nothing and every other view is unreachable.
func userModel(chosen ...facet.View) *cost.UserModel {
	m := &cost.UserModel{Costs: map[facet.Mask]float64{}, BaseC: 1}
	for _, v := range chosen {
		m.Costs[v.Mask] = 0
	}
	return m
}

func TestGreedyStopsWhenNoBenefit(t *testing.T) {
	_, l, _ := fixture(t)
	// A user model with only one finite-cost view: after picking it no
	// candidate has positive benefit.
	um := userModel(l.Top())
	sel, err := Greedy(l, um, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Views) != 1 || sel.Views[0].Mask != l.Top().Mask {
		t.Errorf("views = %v", sel.Views)
	}
}

func TestGreedyDeterministic(t *testing.T) {
	_, l, p := fixture(t)
	m := &cost.NodesModel{Provider: p}
	a, _ := Greedy(l, m, 3)
	b, _ := Greedy(l, m, 3)
	if fmt.Sprint(a.Masks()) != fmt.Sprint(b.Masks()) {
		t.Errorf("greedy not deterministic: %v vs %v", a.Masks(), b.Masks())
	}
}

func TestGreedyUserSelectionPicksExactlyChosen(t *testing.T) {
	_, l, _ := fixture(t)
	chosen := []facet.View{
		l.Facet.View(facet.Mask(0b1)),
		l.Facet.View(facet.Mask(0b110)),
	}
	sel, err := Greedy(l, userModel(chosen...), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Views) != 2 {
		t.Fatalf("views = %v", sel.Views)
	}
	for _, v := range chosen {
		if !slices.Contains(sel.Masks(), v.Mask) {
			t.Errorf("chosen view %v not selected", v)
		}
	}
}

func TestRandomModelSelectionsVaryWithSeed(t *testing.T) {
	_, l, _ := fixture(t)
	sels := map[string]bool{}
	for seed := int64(0); seed < 8; seed++ {
		sel, err := Greedy(l, &cost.RandomModel{Seed: seed}, 2)
		if err != nil {
			t.Fatal(err)
		}
		sels[fmt.Sprint(sel.Masks())] = true
	}
	if len(sels) < 3 {
		t.Errorf("random selections collapsed: %v", sels)
	}
}

func TestTotalCostMonotoneInSelection(t *testing.T) {
	_, l, p := fixture(t)
	m := &cost.AggValuesModel{Provider: p}
	s1 := []facet.View{l.Top()}
	s2 := []facet.View{l.Top(), l.Facet.View(facet.Mask(0b1))}
	if TotalCost(l, m, s2) > TotalCost(l, m, s1)+1e-9 {
		t.Error("adding a view increased total cost")
	}
	if TotalCost(l, m, nil) != m.BaseCost()*float64(l.Size()) {
		t.Error("empty selection cost wrong")
	}
}

func TestGreedyMemory(t *testing.T) {
	_, l, p := fixture(t)
	m := &cost.AggValuesModel{Provider: p}
	sizeOf := func(v facet.View) int64 { return p.MustStats(v.Mask).Bytes }
	// Generous budget: selects multiple views.
	big, err := GreedyMemory(l, m, 1<<30, sizeOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Views) == 0 {
		t.Fatal("no views under generous budget")
	}
	// Tiny budget: nothing fits.
	small, err := GreedyMemory(l, m, 1, sizeOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Views) != 0 {
		t.Errorf("views under 1-byte budget: %v", small.Views)
	}
	// Budget respected.
	var mid int64
	for _, v := range big.Views[:1] {
		mid += sizeOf(v)
	}
	midSel, err := GreedyMemory(l, m, mid, sizeOf)
	if err != nil {
		t.Fatal(err)
	}
	var used int64
	for _, v := range midSel.Views {
		used += sizeOf(v)
	}
	if used > mid {
		t.Errorf("budget %d exceeded: %d", mid, used)
	}
	if _, err := GreedyMemory(l, m, -5, sizeOf); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestExhaustiveOptimalBeatsGreedy(t *testing.T) {
	_, l, p := fixture(t)
	for _, m := range []cost.Model{
		&cost.TriplesModel{Provider: p},
		&cost.AggValuesModel{Provider: p},
		&cost.NodesModel{Provider: p},
		&cost.RandomModel{Seed: 3},
	} {
		for k := 1; k <= 2; k++ {
			opt, err := Exhaustive(l, m, k)
			if err != nil {
				t.Fatal(err)
			}
			greedy, err := Greedy(l, m, k)
			if err != nil {
				t.Fatal(err)
			}
			if opt.TotalCost > greedy.TotalCost+1e-9 {
				t.Errorf("%s k=%d: optimal %f worse than greedy %f", m.Name(), k, opt.TotalCost, greedy.TotalCost)
			}
			if len(opt.Views) != k {
				t.Errorf("optimal picked %d views", len(opt.Views))
			}
		}
	}
}

func TestExhaustiveLimits(t *testing.T) {
	_, l, p := fixture(t)
	m := &cost.AggValuesModel{Provider: p}
	if _, err := Exhaustive(l, m, -1); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := Exhaustive(l, m, l.Size()+1); err == nil {
		t.Error("oversized k accepted")
	}
	// k = 0 is the empty selection.
	sel, err := Exhaustive(l, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Views) != 0 || sel.TotalCost != TotalCost(l, m, nil) {
		t.Error("k=0 wrong")
	}
}

func TestExhaustiveComboLimit(t *testing.T) {
	// A 16-dimension lattice with k=8 would explode; the guard must refuse.
	dims := make([]string, 10)
	pattern := "?o <http://ex.org/val> ?v .\n"
	sel := ""
	groupBy := ""
	for i := range dims {
		dims[i] = fmt.Sprintf("d%d", i)
		pattern += fmt.Sprintf("?o <http://ex.org/p%d> ?d%d .\n", i, i)
		sel += fmt.Sprintf("?d%d ", i)
		groupBy += fmt.Sprintf(" ?d%d", i)
	}
	q := sparql.MustParse("SELECT " + sel + "(SUM(?v) AS ?a) WHERE {\n" + pattern + "} GROUP BY" + groupBy)
	f, err := facet.FromQuery("wide", q)
	if err != nil {
		t.Fatal(err)
	}
	l, err := facet.NewLattice(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exhaustive(l, &cost.RandomModel{Seed: 1}, 5); err == nil {
		t.Error("combinatorial explosion not guarded")
	}
}

func TestManual(t *testing.T) {
	_, l, p := fixture(t)
	m := &cost.AggValuesModel{Provider: p}
	chosen := []facet.View{l.Top()}
	sel := Manual(l, m, chosen)
	if sel.Model != "manual" || len(sel.Views) != 1 {
		t.Errorf("manual selection = %+v", sel)
	}
	if sel.TotalCost != TotalCost(l, m, chosen) {
		t.Error("manual total cost wrong")
	}
}

func TestGreedyMatchesBruteForceOnTinyLattice(t *testing.T) {
	// For k=1 greedy IS optimal (the first greedy pick maximizes benefit,
	// equivalently minimizes total cost for single-view selections).
	_, l, p := fixture(t)
	m := &cost.NodesModel{Provider: p}
	greedy, err := Greedy(l, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Exhaustive(l, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(greedy.TotalCost-opt.TotalCost) > 1e-9 {
		t.Errorf("k=1 greedy %f != optimal %f", greedy.TotalCost, opt.TotalCost)
	}
}
