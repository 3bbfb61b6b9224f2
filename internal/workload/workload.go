// Package workload generates analytical query workloads from a facet,
// reproducing the demo's "query workload composed of different parametrized
// queries for a given query template" (§4). Each generated query targets the
// facet at a random granularity (a dimension subset) and may specialize it
// with FILTER conditions over dimension values sampled from the graph.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"sofos/internal/algebra"
	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

// Config controls workload generation.
type Config struct {
	Size       int     // number of queries (default 20)
	Seed       int64   // RNG seed: same seed, same workload
	FilterProb float64 // per-dimension probability of a FILTER (default 0.25)
	RangeProb  float64 // probability a numeric filter is a range instead of equality (default 0.5)
	ValuesProb float64 // per-dimension probability of a VALUES clause instead of a FILTER (default 0)
}

// withDefaults normalizes the configuration.
func (c Config) withDefaults() Config {
	if c.Size <= 0 {
		c.Size = 20
	}
	if c.FilterProb <= 0 {
		c.FilterProb = 0.25
	}
	if c.RangeProb <= 0 {
		c.RangeProb = 0.5
	}
	return c
}

// Query is one generated workload query.
type Query struct {
	Parsed     *sparql.Query
	Text       string
	GroupMask  facet.Mask // dimensions grouped by
	FilterMask facet.Mask // dimensions constrained by FILTERs
}

// Workload is a reproducible set of queries over one facet.
type Workload struct {
	Facet   *facet.Facet
	Queries []Query
	Domains map[string][]rdf.Term // sampled value domain per dimension
}

// Generate builds a workload of cfg.Size queries over f, sampling dimension
// domains from the base graph.
func Generate(base *store.Graph, f *facet.Facet, cfg Config) (*Workload, error) {
	cfg = cfg.withDefaults()
	domains, err := DimensionDomains(base, f)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &Workload{Facet: f, Domains: domains}
	for i := 0; i < cfg.Size; i++ {
		q := generateOne(rng, f, domains, cfg)
		w.Queries = append(w.Queries, q)
	}
	return w, nil
}

// DimensionDomains computes the distinct values of each dimension variable
// on the base graph by executing SELECT DISTINCT ?d WHERE P.
func DimensionDomains(base *store.Graph, f *facet.Facet) (map[string][]rdf.Term, error) {
	eng := engine.New(base)
	out := make(map[string][]rdf.Term, len(f.Dims))
	for _, d := range f.Dims {
		q := &sparql.Query{
			Prefixes: f.Prefixes,
			Select:   []sparql.SelectItem{{Var: d}},
			Distinct: true,
			Where:    f.Pattern.Clone(),
			Limit:    -1,
		}
		res, err := eng.Execute(q)
		if err != nil {
			return nil, fmt.Errorf("workload: computing domain of ?%s: %w", d, err)
		}
		var vals []rdf.Term
		for _, row := range res.Rows {
			if row[0].Bound {
				vals = append(vals, row[0].Term)
			}
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i].Less(vals[j]) })
		if len(vals) == 0 {
			return nil, fmt.Errorf("workload: dimension ?%s has an empty domain", d)
		}
		out[d] = vals
	}
	return out, nil
}

// generateOne builds a single random query.
func generateOne(rng *rand.Rand, f *facet.Facet, domains map[string][]rdf.Term, cfg Config) Query {
	nd := len(f.Dims)
	// Random grouping subset, biased toward coarser queries (the analyst
	// asks for summaries more often than for the full cube).
	var groupMask facet.Mask
	target := rng.Intn(nd + 1) // number of grouping dims
	perm := rng.Perm(nd)
	for _, i := range perm[:target] {
		groupMask |= 1 << i
	}
	view := f.View(groupMask)
	q := view.AnalyticalQuery()

	// FILTER / VALUES specialization over any dimension.
	var filterMask facet.Mask
	for i, d := range f.Dims {
		if rng.Float64() >= cfg.FilterProb {
			continue
		}
		dom := domains[d]
		if rng.Float64() < cfg.ValuesProb {
			// A VALUES clause restricting the dimension to 1-3 values.
			data := sparql.InlineData{Var: d}
			n := 1 + rng.Intn(3)
			for j := 0; j < n; j++ {
				data.Terms = append(data.Terms, dom[rng.Intn(len(dom))])
			}
			q.Where.Values = append(q.Where.Values, data)
			filterMask |= 1 << i
			continue
		}
		val := dom[rng.Intn(len(dom))]
		var cond sparql.Expr
		if _, numeric := algebra.NumericValue(val); numeric && rng.Float64() < cfg.RangeProb {
			cond = &sparql.BinaryExpr{
				Op:    sparql.OpGe,
				Left:  &sparql.VarExpr{Name: d},
				Right: &sparql.TermExpr{Term: val},
			}
		} else {
			cond = sparql.Eq(d, val)
		}
		q.Where.Filters = append(q.Where.Filters, cond)
		filterMask |= 1 << i
	}
	return Query{
		Parsed:     q,
		Text:       q.String(),
		GroupMask:  groupMask,
		FilterMask: filterMask,
	}
}

// Stats summarizes a workload for reports.
type Stats struct {
	Queries     int
	WithFilters int
	// GroupLevelHistogram[k] counts queries grouping by k dimensions.
	GroupLevelHistogram []int
}

// Summarize computes workload statistics.
func (w *Workload) Summarize() Stats {
	st := Stats{
		Queries:             len(w.Queries),
		GroupLevelHistogram: make([]int, len(w.Facet.Dims)+1),
	}
	for _, q := range w.Queries {
		if q.FilterMask != 0 {
			st.WithFilters++
		}
		st.GroupLevelHistogram[facet.PopCount(q.GroupMask)]++
	}
	return st
}
