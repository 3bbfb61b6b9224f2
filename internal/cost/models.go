package cost

import (
	"math"

	"sofos/internal/facet"
	"sofos/internal/learned"
)

// Model estimates, for a view Vi of the lattice, the cost C(Vi) a query pays
// when answered from Vi (§3: "a cost function C : V(F) → R+ predicting the
// running time of any query Q if the view Vi is materialized"). BaseCost is
// the cost of answering from the raw graph G, used by the greedy selector as
// the starting point every view's benefit is measured against.
type Model interface {
	Name() string
	Cost(v facet.View) float64
	BaseCost() float64
}

// --- 1. Random ---

// RandomModel assigns each view a deterministic pseudo-random cost in (0,1).
// The paper defines the random baseline as the constant function C(Vi)=1,
// whose greedy selection degenerates to an arbitrary k-subset; jittering the
// constant realizes exactly that arbitrary choice while keeping runs
// reproducible under a seed.
type RandomModel struct {
	Seed int64
}

// Name implements Model.
func (m *RandomModel) Name() string { return "random" }

// Cost implements Model with a splitmix64-style hash of (seed, mask).
func (m *RandomModel) Cost(v facet.View) float64 {
	x := uint64(m.Seed)*0x9E3779B97F4A7C15 + uint64(v.Mask)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x%1_000_000)/1_000_000 + 1e-9
}

// BaseCost implements Model: answering from G always costs more than any
// view under the random proxy.
func (m *RandomModel) BaseCost() float64 { return 2 }

// --- 2. Number of triples ---

// TriplesModel is the direct adaptation of relational tuple counting:
// C(Vi) = |G_Vi|, the triple count of the view's RDF encoding.
type TriplesModel struct {
	Provider *Provider
}

// Name implements Model.
func (m *TriplesModel) Name() string { return "triples" }

// Cost implements Model.
func (m *TriplesModel) Cost(v facet.View) float64 {
	return float64(m.Provider.MustStats(v.Mask).Triples)
}

// BaseCost implements Model: the triple count of G.
func (m *TriplesModel) BaseCost() float64 { return float64(m.Provider.Base().Triples) }

// --- 3. Number of aggregated values ---

// AggValuesModel is the first RDF-aware model: C(Vi) = |Vi(G)|, the number
// of aggregated results the view stores.
type AggValuesModel struct {
	Provider *Provider
}

// Name implements Model.
func (m *AggValuesModel) Name() string { return "aggvalues" }

// Cost implements Model.
func (m *AggValuesModel) Cost(v facet.View) float64 {
	return float64(m.Provider.MustStats(v.Mask).Groups)
}

// BaseCost implements Model: the pre-aggregation binding count on G.
func (m *AggValuesModel) BaseCost() float64 { return float64(m.Provider.Base().PatternRows) }

// --- 4. Number of nodes ---

// NodesModel is the second RDF-aware model: C(Vi) = |Ii ∪ Bi ∪ Li|, the
// count of distinct nodes in the view's subgraph. Unlike triple counts, node
// counts de-duplicate shared dimension values, which is precisely where this
// model's ranking diverges from the relational proxy.
type NodesModel struct {
	Provider *Provider
}

// Name implements Model.
func (m *NodesModel) Name() string { return "nodes" }

// Cost implements Model.
func (m *NodesModel) Cost(v facet.View) float64 {
	return float64(m.Provider.MustStats(v.Mask).Nodes)
}

// BaseCost implements Model: the node count of G.
func (m *NodesModel) BaseCost() float64 { return float64(m.Provider.Base().Nodes) }

// --- 5. Learned ---

// LearnedModel wraps a trained regression network f : V(F) → R predicting
// per-view query time (§3.1's learned cost).
type LearnedModel struct {
	Encoder    *learned.Encoder
	Net        *learned.MLP
	Normalizer *learned.Normalizer
	Base       float64 // measured/predicted cost of answering from G
}

// Name implements Model.
func (m *LearnedModel) Name() string { return "learned" }

// Cost implements Model: the predicted running time (µs, unlogged).
func (m *LearnedModel) Cost(v facet.View) float64 {
	x := m.Encoder.Encode(v)
	if m.Normalizer != nil {
		x = m.Normalizer.Apply(x)
	}
	y, err := m.Net.Predict(x)
	if err != nil {
		// The encoder and network are constructed together; a width mismatch
		// is a programming error, surfaced as an infinite cost.
		return math.Inf(1)
	}
	c := learned.UnlogMicros(y)
	if c < 0 {
		c = 0
	}
	return c
}

// BaseCost implements Model.
func (m *LearnedModel) BaseCost() float64 { return m.Base }

// --- 6. User defined ---

// UserModel lets the user act as the cost function by assigning explicit
// costs (or simply marking chosen views with cost 0 and everything else
// +Inf, which makes greedy selection pick exactly the marked views).
type UserModel struct {
	Label string
	Costs map[facet.Mask]float64
	BaseC float64
}

// Name implements Model.
func (m *UserModel) Name() string {
	if m.Label == "" {
		return "user"
	}
	return m.Label
}

// Cost implements Model: assigned cost, or +Inf for unassigned views.
func (m *UserModel) Cost(v facet.View) float64 {
	if c, ok := m.Costs[v.Mask]; ok {
		return c
	}
	return math.Inf(1)
}

// BaseCost implements Model.
func (m *UserModel) BaseCost() float64 { return m.BaseC }
