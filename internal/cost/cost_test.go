package cost

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

// fixture builds a graph and 3-dimension facet.
func fixture(t testing.TB) (*store.Graph, *facet.Lattice) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	var ts []rdf.Triple
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	for ci := 0; ci < 6; ci++ {
		for li := 0; li < 4; li++ {
			for yi := 0; yi < 2; yi++ {
				if (ci+li+yi)%5 == 0 {
					continue
				}
				obs := ex(fmt.Sprintf("o%d_%d_%d", ci, li, yi))
				ts = append(ts, rdf.Triple{S: obs, P: ex("country"), O: rdf.NewLiteral(fmt.Sprintf("C%d", ci))})
				ts = append(ts, rdf.Triple{S: obs, P: ex("lang"), O: rdf.NewLiteral(fmt.Sprintf("L%d", li))})
				ts = append(ts, rdf.Triple{S: obs, P: ex("year"), O: rdf.NewYear(2018 + yi)})
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
	return g, l
}

// validCosts checks that a model gives every view of l a finite,
// non-negative cost and has a non-negative base cost.
func validCosts(m Model, l *facet.Lattice) error {
	if m.BaseCost() < 0 {
		return fmt.Errorf("model %s has negative base cost", m.Name())
	}
	for _, v := range l.Views() {
		if c := m.Cost(v); c < 0 || math.IsNaN(c) {
			return fmt.Errorf("model %s produced invalid cost %f for %s", m.Name(), c, v)
		}
	}
	return nil
}

func TestProviderComputesWholeLattice(t *testing.T) {
	g, l := fixture(t)
	p, err := NewProvider(g, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.AllStats()) != l.Size() {
		t.Fatalf("stats for %d views, want %d", len(p.AllStats()), l.Size())
	}
	for _, v := range l.Views() {
		st, err := p.Stats(v.Mask)
		if err != nil {
			t.Fatalf("Stats(%s): %v", v, err)
		}
		if st.Groups <= 0 || st.Triples <= 0 || st.Nodes <= 0 {
			t.Errorf("view %s has empty stats %+v", v, st)
		}
	}
	if _, err := p.Stats(facet.Mask(999)); err == nil {
		t.Error("unknown mask accepted")
	}
	if p.TotalTriples() <= 0 {
		t.Error("TotalTriples not positive")
	}
	base := p.Base()
	if base.Triples != g.Len() || base.Nodes != g.DistinctNodes() || base.PatternRows <= 0 {
		t.Errorf("base stats = %+v", base)
	}
}

func TestProviderMonotonicity(t *testing.T) {
	// Coarser views have at most as many groups as finer ones.
	g, l := fixture(t)
	p, err := NewProvider(g, l)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range l.Views() {
		for _, c := range l.Descendants(v) {
			if p.MustStats(c.Mask).Groups > p.MustStats(v.Mask).Groups {
				t.Errorf("descendant %s has more groups than %s", c, v)
			}
		}
	}
}

func TestRandomModel(t *testing.T) {
	_, l := fixture(t)
	m := &RandomModel{Seed: 5}
	if m.Name() != "random" {
		t.Error("name")
	}
	if err := validCosts(m, l); err != nil {
		t.Fatal(err)
	}
	// Deterministic under a seed, different across seeds (for some view).
	m2 := &RandomModel{Seed: 5}
	m3 := &RandomModel{Seed: 6}
	diff := false
	for _, v := range l.Views() {
		if m.Cost(v) != m2.Cost(v) {
			t.Fatal("same seed differs")
		}
		if m.Cost(v) != m3.Cost(v) {
			diff = true
		}
		if c := m.Cost(v); c <= 0 || c >= m.BaseCost() {
			t.Errorf("cost %f outside (0, base)", c)
		}
	}
	if !diff {
		t.Error("different seeds never differ")
	}
}

func TestAnalyticModels(t *testing.T) {
	g, l := fixture(t)
	p, err := NewProvider(g, l)
	if err != nil {
		t.Fatal(err)
	}
	models := []Model{
		&TriplesModel{Provider: p},
		&AggValuesModel{Provider: p},
		&NodesModel{Provider: p},
	}
	names := map[string]bool{}
	for _, m := range models {
		if err := validCosts(m, l); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
		names[m.Name()] = true
		if m.BaseCost() <= 0 {
			t.Errorf("%s base cost = %f", m.Name(), m.BaseCost())
		}
	}
	if len(names) != 3 {
		t.Errorf("names = %v", names)
	}
	// Cross-check the defining quantities on the top view.
	top := l.Top()
	st := p.MustStats(top.Mask)
	if got := (&TriplesModel{Provider: p}).Cost(top); got != float64(st.Triples) {
		t.Errorf("triples cost = %f, want %d", got, st.Triples)
	}
	if got := (&AggValuesModel{Provider: p}).Cost(top); got != float64(st.Groups) {
		t.Errorf("aggvalues cost = %f, want %d", got, st.Groups)
	}
	if got := (&NodesModel{Provider: p}).Cost(top); got != float64(st.Nodes) {
		t.Errorf("nodes cost = %f, want %d", got, st.Nodes)
	}
}

func TestModelsDisagreeOnRanking(t *testing.T) {
	// The paper's core observation: the relational proxy (#triples) and the
	// RDF-aware models need not produce the same ranking. At minimum the
	// numeric scales differ; check the ratio triples/nodes is not constant
	// across views (so rankings can diverge).
	g, l := fixture(t)
	p, err := NewProvider(g, l)
	if err != nil {
		t.Fatal(err)
	}
	tm := &TriplesModel{Provider: p}
	nm := &NodesModel{Provider: p}
	ratios := map[string]bool{}
	for _, v := range l.Views() {
		if v.Mask == 0 {
			continue
		}
		r := tm.Cost(v) / nm.Cost(v)
		ratios[fmt.Sprintf("%.3f", r)] = true
	}
	if len(ratios) < 2 {
		t.Errorf("triples/nodes ratio constant across views: %v", ratios)
	}
}

func TestUserModel(t *testing.T) {
	_, l := fixture(t)
	chosen := []facet.View{l.Top(), l.Facet.View(facet.Mask(0b1))}
	m := &UserModel{Label: "picked", Costs: map[facet.Mask]float64{}, BaseC: 1}
	for _, v := range chosen {
		m.Costs[v.Mask] = 0
	}
	if m.Name() != "picked" {
		t.Error("label not used")
	}
	if (&UserModel{}).Name() != "user" {
		t.Error("default name wrong")
	}
	for _, v := range chosen {
		if m.Cost(v) != 0 {
			t.Errorf("chosen view cost = %f", m.Cost(v))
		}
	}
	if !math.IsInf(m.Cost(l.Facet.View(facet.Mask(0b10))), 1) {
		t.Error("unchosen view not infinite")
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	_, l := fixture(t)
	bad := &UserModel{BaseC: -1}
	if err := validCosts(bad, l); err == nil {
		t.Error("negative base cost accepted")
	}
	nan := &UserModel{BaseC: 1, Costs: map[facet.Mask]float64{0: math.NaN()}}
	if err := validCosts(nan, l); err == nil {
		t.Error("NaN cost accepted")
	}
}

func TestMeasureViewTimes(t *testing.T) {
	g, l := fixture(t)
	sample := []facet.View{l.Top(), l.Facet.View(facet.Mask(0b10))}
	times, err := MeasureViewTimes(g, l, sample, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("times = %v", times)
	}
	for m, d := range times {
		if d <= 0 {
			t.Errorf("mask %b time = %v", m, d)
		}
	}
	base, err := MeasureBaseTime(g, l, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base <= 0 {
		t.Errorf("base time = %v", base)
	}
}

func TestTrainLearnedModel(t *testing.T) {
	g, l := fixture(t)
	res, err := TrainLearnedModel(g, l, TrainConfig{ProbesPerView: 2, Seed: 3, Epochs: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != l.Size() {
		t.Errorf("samples = %d, want %d", res.Samples, l.Size())
	}
	if len(res.LossCurve) != 150 {
		t.Errorf("loss curve length = %d", len(res.LossCurve))
	}
	first, last := res.LossCurve[0], res.LossCurve[len(res.LossCurve)-1]
	if !(last < first) {
		t.Errorf("loss did not decrease: %v -> %v", first, last)
	}
	if err := validCosts(res.Model, l); err != nil {
		t.Errorf("trained model invalid: %v", err)
	}
	if res.Model.BaseCost() <= 0 {
		t.Errorf("learned base cost = %f", res.Model.BaseCost())
	}
	if res.Model.Name() != "learned" {
		t.Error("name")
	}
}

func TestTrainLearnedModelWithHoldout(t *testing.T) {
	g, l := fixture(t)
	res, err := TrainLearnedModel(g, l, TrainConfig{ProbesPerView: 2, Seed: 3, Epochs: 100, SampleLimit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 5 {
		t.Errorf("samples = %d", res.Samples)
	}
	if res.HoldoutErr <= 0 {
		t.Errorf("holdout error = %f, expected positive", res.HoldoutErr)
	}
}

func TestRandomSubmask(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := facet.Mask(0b10101)
	for i := 0; i < 100; i++ {
		sub := randomSubmask(rng, m)
		if !sub.Subset(m) {
			t.Fatalf("submask %b not a subset of %b", sub, m)
		}
	}
}
