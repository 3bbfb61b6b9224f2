// Package cost implements the six view-selection cost models of §3.1 of the
// SOFOS paper — Random, Number of triples, Number of aggregated values,
// Number of nodes, Learned, and User defined — behind one Model interface,
// together with the full-lattice statistics provider they read from and the
// measurement probes used to train/evaluate the learned model.
package cost

import (
	"fmt"
	"time"

	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/store"
	"sofos/internal/views"
)

// ViewStats bundles the per-view quantities the analytic models use.
type ViewStats struct {
	Mask        facet.Mask
	Groups      int // |Vi(G)|: number of aggregated values
	Triples     int // |G_Vi|: triples of the view's RDF encoding
	Nodes       int // |Ii ∪ Bi ∪ Li|
	Bytes       int64
	ComputeTime time.Duration // time to compute the view's contents from G
}

// BaseStats are the same quantities for the raw graph G, used as the cost of
// answering without any view.
type BaseStats struct {
	Triples int
	Nodes   int
	// PatternRows is the number of bindings the facet pattern produces on G
	// (the pre-aggregation result size) — the "aggregated values" analogue
	// for the raw graph.
	PatternRows int
}

// Provider precomputes the full lattice of a facet over a graph and serves
// exact per-view statistics. This mirrors the demo's "Exploration of the
// Full Lattice" step, which precomputes every level.
type Provider struct {
	Lattice *facet.Lattice
	data    map[facet.Mask]*views.Data
	stats   map[facet.Mask]ViewStats
	base    BaseStats
}

// NewProvider computes data for every view in the lattice: the top view is
// computed from the graph, every other view by exact roll-up from the top.
func NewProvider(g *store.Graph, l *facet.Lattice) (*Provider, error) {
	p := &Provider{
		Lattice: l,
		data:    make(map[facet.Mask]*views.Data, l.Size()),
		stats:   make(map[facet.Mask]ViewStats, l.Size()),
	}
	eng := engine.New(g)
	top, err := views.Compute(eng, l.Top())
	if err != nil {
		return nil, fmt.Errorf("cost: computing top view: %w", err)
	}
	p.data[l.Top().Mask] = top
	for _, v := range l.Views() {
		if v.Mask == l.Top().Mask {
			continue
		}
		d, err := views.RollUp(top, v)
		if err != nil {
			return nil, fmt.Errorf("cost: rolling up %s: %w", v, err)
		}
		// Re-time as a direct computation measure: the roll-up time is not
		// comparable to a from-base compute, so re-compute small views from
		// base lazily only when asked (see MeasureComputeTimes).
		p.data[v.Mask] = d
	}
	for mask, d := range p.data {
		st := views.ComputeStats(d)
		var bytes int64
		d.Each(func(grp views.Group) bool {
			for _, kv := range grp.Key {
				bytes += int64(len(kv.Term.Value) + 8)
			}
			bytes += int64(len(grp.Agg.Term.Value) + 24)
			return true
		})
		p.stats[mask] = ViewStats{
			Mask:        mask,
			Groups:      st.Groups,
			Triples:     st.Triples,
			Nodes:       st.Nodes,
			Bytes:       bytes,
			ComputeTime: d.ComputeTime,
		}
	}
	p.base = BaseStats{
		Triples:     g.Len(),
		Nodes:       g.DistinctNodes(),
		PatternRows: patternRows(top),
	}
	return p, nil
}

// patternRows lower-bounds the pre-aggregation binding count by the top
// view's group count (each group has at least one binding).
func patternRows(top *views.Data) int {
	n := top.NumGroups()
	if n == 0 {
		return 1
	}
	return n
}

// Stats returns the statistics of a view.
func (p *Provider) Stats(m facet.Mask) (ViewStats, error) {
	s, ok := p.stats[m]
	if !ok {
		return ViewStats{}, fmt.Errorf("cost: no stats for mask %b", m)
	}
	return s, nil
}

// MustStats is Stats for masks known to exist (every mask in the lattice).
func (p *Provider) MustStats(m facet.Mask) ViewStats {
	s, err := p.Stats(m)
	if err != nil {
		panic(err)
	}
	return s
}

// Base returns the raw-graph statistics.
func (p *Provider) Base() BaseStats { return p.base }

// AllStats returns stats for every view ordered by mask.
func (p *Provider) AllStats() []ViewStats {
	out := make([]ViewStats, 0, len(p.stats))
	for _, v := range p.Lattice.Views() {
		out = append(out, p.stats[v.Mask])
	}
	return out
}

// TotalTriples sums the encoding sizes over the whole lattice — the cost of
// materializing everything, which the demo shows to be impractical.
func (p *Provider) TotalTriples() int {
	total := 0
	for _, s := range p.stats {
		total += s.Triples
	}
	return total
}
