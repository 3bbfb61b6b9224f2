// Package selection implements the view-selection algorithms of SOFOS: the
// HRU-style greedy algorithm [Harinarayan, Rajaraman, Ullman 1996] adapted
// to the view lattice of a facet, parameterized by any cost model; a
// memory-budget variant (§3: "this budget can be adapted to regulate the
// space consumption"); and an exhaustive optimum for small budgets, used to
// measure each greedy selection's regret in the hands-on-challenge
// experiment.
package selection

import (
	"fmt"
	"math"
	"sort"

	"sofos/internal/cost"
	"sofos/internal/facet"
)

// Selection is the outcome of a selection run.
type Selection struct {
	Model    string
	Views    []facet.View // in pick order
	Benefits []float64    // greedy benefit at each pick (empty for manual)
	// TotalCost is the objective after selection: the summed cost of
	// answering each lattice view from its cheapest available source.
	TotalCost float64
}

// Masks returns the selected masks in pick order.
func (s *Selection) Masks() []facet.Mask {
	out := make([]facet.Mask, len(s.Views))
	for i, v := range s.Views {
		out[i] = v.Mask
	}
	return out
}

// TotalCost computes the selection objective for an arbitrary view set:
// Σ over every view W in the lattice of the cost of W's cheapest source —
// the raw graph (BaseCost) or any selected view covering W.
func TotalCost(l *facet.Lattice, m cost.Model, selected []facet.View) float64 {
	total := 0.0
	for _, w := range l.Views() {
		best := m.BaseCost()
		for _, v := range selected {
			if v.Covers(w) {
				if c := m.Cost(v); c < best {
					best = c
				}
			}
		}
		total += best
	}
	return total
}

// Greedy selects up to k views by the HRU greedy rule: at each step pick the
// view whose addition maximizes the total benefit
//
//	B(V, S) = Σ_{W ⊑ V} max(0, costToAnswer_S(W) − C(V))
//
// where costToAnswer starts at BaseCost for every lattice view. Selection
// stops early when no candidate has positive benefit.
func Greedy(l *facet.Lattice, m cost.Model, k int) (*Selection, error) {
	if k < 0 {
		return nil, fmt.Errorf("selection: negative budget %d", k)
	}
	if k > l.Size() {
		k = l.Size()
	}
	costTo := make([]float64, l.Size())
	for i := range costTo {
		costTo[i] = m.BaseCost()
	}
	chosen := make(map[facet.Mask]bool, k)
	sel := &Selection{Model: m.Name()}
	for pick := 0; pick < k; pick++ {
		bestIdx := -1
		bestBenefit := 0.0
		var bestView facet.View
		for _, v := range l.Views() {
			if chosen[v.Mask] {
				continue
			}
			c := m.Cost(v)
			if math.IsInf(c, 1) {
				continue
			}
			benefit := 0.0
			for _, w := range l.Descendants(v) {
				if gain := costTo[w.Mask] - c; gain > 0 {
					benefit += gain
				}
			}
			if bestIdx == -1 || benefit > bestBenefit ||
				(benefit == bestBenefit && v.Mask < bestView.Mask) {
				bestIdx = int(v.Mask)
				bestBenefit = benefit
				bestView = v
			}
		}
		if bestIdx < 0 || bestBenefit <= 0 {
			break // nothing (more) worth materializing under this model
		}
		chosen[bestView.Mask] = true
		sel.Views = append(sel.Views, bestView)
		sel.Benefits = append(sel.Benefits, bestBenefit)
		c := m.Cost(bestView)
		for _, w := range l.Descendants(bestView) {
			if c < costTo[w.Mask] {
				costTo[w.Mask] = c
			}
		}
	}
	sel.TotalCost = TotalCost(l, m, sel.Views)
	return sel, nil
}

// GreedyMemory selects views under a byte budget, maximizing benefit per
// byte (the standard knapsack-style HRU extension). sizeOf reports each
// view's materialized size.
func GreedyMemory(l *facet.Lattice, m cost.Model, budgetBytes int64, sizeOf func(facet.View) int64) (*Selection, error) {
	if budgetBytes < 0 {
		return nil, fmt.Errorf("selection: negative byte budget %d", budgetBytes)
	}
	costTo := make([]float64, l.Size())
	for i := range costTo {
		costTo[i] = m.BaseCost()
	}
	chosen := make(map[facet.Mask]bool)
	remaining := budgetBytes
	sel := &Selection{Model: m.Name() + "+mem"}
	for {
		bestBenefitPerByte := 0.0
		bestBenefit := 0.0
		found := false
		var bestView facet.View
		for _, v := range l.Views() {
			if chosen[v.Mask] {
				continue
			}
			size := sizeOf(v)
			if size <= 0 || size > remaining {
				continue
			}
			c := m.Cost(v)
			if math.IsInf(c, 1) {
				continue
			}
			benefit := 0.0
			for _, w := range l.Descendants(v) {
				if gain := costTo[w.Mask] - c; gain > 0 {
					benefit += gain
				}
			}
			perByte := benefit / float64(size)
			if !found || perByte > bestBenefitPerByte ||
				(perByte == bestBenefitPerByte && v.Mask < bestView.Mask) {
				found = true
				bestBenefitPerByte = perByte
				bestBenefit = benefit
				bestView = v
			}
		}
		if !found || bestBenefit <= 0 {
			break
		}
		chosen[bestView.Mask] = true
		sel.Views = append(sel.Views, bestView)
		sel.Benefits = append(sel.Benefits, bestBenefit)
		remaining -= sizeOf(bestView)
		c := m.Cost(bestView)
		for _, w := range l.Descendants(bestView) {
			if c < costTo[w.Mask] {
				costTo[w.Mask] = c
			}
		}
	}
	sel.TotalCost = TotalCost(l, m, sel.Views)
	return sel, nil
}

// Exhaustive finds the k-subset of the lattice minimizing TotalCost by
// enumerating all C(2^d, k) subsets. Only feasible for small lattices and
// budgets; used as the optimum baseline in the hands-on-challenge
// experiment (E8).
func Exhaustive(l *facet.Lattice, m cost.Model, k int) (*Selection, error) {
	n := l.Size()
	if k < 0 || k > n {
		return nil, fmt.Errorf("selection: budget %d out of range 0..%d", k, n)
	}
	const maxCombos = 2_000_000
	if combos := binomial(n, k); combos > maxCombos {
		return nil, fmt.Errorf("selection: %d subsets exceed the exhaustive limit %d", combos, maxCombos)
	}
	views := l.Views()
	best := math.Inf(1)
	var bestSet []facet.View
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		cur := make([]facet.View, k)
		for i, j := range idx {
			cur[i] = views[j]
		}
		if c := TotalCost(l, m, cur); c < best {
			best = c
			bestSet = cur
		}
		// Next combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	sort.Slice(bestSet, func(i, j int) bool { return bestSet[i].Mask < bestSet[j].Mask })
	return &Selection{Model: m.Name() + "+optimal", Views: bestSet, TotalCost: best}, nil
}

// binomial computes C(n, k) saturating at math.MaxInt64 / 2.
func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var c int64 = 1
	for i := 0; i < k; i++ {
		c = c * int64(n-i) / int64(i+1)
		if c > math.MaxInt64/4 {
			return math.MaxInt64 / 2
		}
	}
	return c
}

// Manual wraps an explicit user choice of views as a Selection (demo step
// "User Selected Views").
func Manual(l *facet.Lattice, m cost.Model, chosen []facet.View) *Selection {
	views := append([]facet.View(nil), chosen...)
	return &Selection{
		Model:     "manual",
		Views:     views,
		TotalCost: TotalCost(l, m, views),
	}
}
