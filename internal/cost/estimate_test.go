package cost

import (
	"testing"

	"sofos/internal/benchkit"
	"sofos/internal/facet"
)

func TestEstimatedModelBasics(t *testing.T) {
	g, l := fixture(t)
	m := NewEstimatedModel(l.Facet, g.Snapshot())
	if m.Name() != "estimated" {
		t.Error("name")
	}
	if err := validCosts(m, l); err != nil {
		t.Fatal(err)
	}
	if m.BaseCost() <= 0 {
		t.Errorf("base cost = %f", m.BaseCost())
	}
	// Apex estimates one group.
	if got := m.Cost(l.Facet.View(0)); got != 1 {
		t.Errorf("apex estimate = %f", got)
	}
	// Estimates never exceed the pattern-rows upper bound.
	for _, v := range l.Views() {
		if c := m.Cost(v); c > m.BaseCost()+1e-9 {
			t.Errorf("view %s estimate %f exceeds rows bound %f", v, c, m.BaseCost())
		}
	}
}

func TestEstimatedModelMonotone(t *testing.T) {
	g, l := fixture(t)
	m := NewEstimatedModel(l.Facet, g.Snapshot())
	for _, v := range l.Views() {
		for _, d := range l.Descendants(v) {
			if m.Cost(v) < m.Cost(d)-1e-9 {
				t.Errorf("estimate not monotone: %s=%f > ancestor %s=%f",
					d, m.Cost(d), v, m.Cost(v))
			}
		}
	}
}

// TestEstimatedModelTracksExactModel: the estimate must rank views
// similarly to the exact aggregated-values model (it approximates the same
// quantity), with high rank correlation on the test lattice.
func TestEstimatedModelTracksExactModel(t *testing.T) {
	g, l := fixture(t)
	p, err := NewProvider(g, l)
	if err != nil {
		t.Fatal(err)
	}
	exact := &AggValuesModel{Provider: p}
	est := NewEstimatedModel(l.Facet, g.Snapshot())
	var xs, ys []float64
	for _, v := range l.Views() {
		xs = append(xs, est.Cost(v))
		ys = append(ys, exact.Cost(v))
	}
	rho := benchkit.Spearman(xs, ys)
	if rho < 0.8 {
		t.Errorf("estimate/exact Spearman = %f, want >= 0.8", rho)
	}
}

func TestEstimatedModelSelectsReasonably(t *testing.T) {
	// Selection with the estimated model must be valid and non-empty.
	g, l := fixture(t)
	m := NewEstimatedModel(l.Facet, g.Snapshot())
	sel := greedyPick(t, l, m, 3)
	if len(sel) == 0 {
		t.Fatal("estimated model selected nothing")
	}
	seen := map[facet.Mask]bool{}
	for _, v := range sel {
		if seen[v.Mask] {
			t.Error("duplicate pick")
		}
		seen[v.Mask] = true
	}
}

// greedyPick inlines the HRU loop to avoid importing selection (which would
// create an import cycle in tests only — kept local for clarity).
func greedyPick(t *testing.T, l *facet.Lattice, m Model, k int) []facet.View {
	t.Helper()
	costTo := make(map[facet.Mask]float64, l.Size())
	for _, v := range l.Views() {
		costTo[v.Mask] = m.BaseCost()
	}
	var out []facet.View
	chosen := map[facet.Mask]bool{}
	for pick := 0; pick < k; pick++ {
		best, bestBenefit := facet.View{}, 0.0
		found := false
		for _, v := range l.Views() {
			if chosen[v.Mask] {
				continue
			}
			benefit := 0.0
			for _, w := range l.Descendants(v) {
				if gain := costTo[w.Mask] - m.Cost(v); gain > 0 {
					benefit += gain
				}
			}
			if !found || benefit > bestBenefit {
				found, best, bestBenefit = true, v, benefit
			}
		}
		if !found || bestBenefit <= 0 {
			break
		}
		chosen[best.Mask] = true
		out = append(out, best)
		for _, w := range l.Descendants(best) {
			if c := m.Cost(best); c < costTo[w.Mask] {
				costTo[w.Mask] = c
			}
		}
	}
	return out
}
