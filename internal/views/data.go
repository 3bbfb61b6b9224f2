package views

import (
	"fmt"
	"time"

	"sofos/internal/algebra"
	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
)

// Group is one aggregated result of a view: the dimension-value key and the
// aggregate value. For AVG facets Sum and Count carry the exact roll-up
// state; for other aggregates they are zero.
type Group struct {
	Key        []algebra.Value // values of the view's kept dims, in view order
	Agg        algebra.Value   // the facet aggregate for this group
	Sum, Count float64         // AVG only: exact partial sums

	// N is the group's contribution count: the number of solutions of the
	// view's defining pattern that fall into this group (a hidden COUNT(*)
	// companion Compute evaluates alongside the facet aggregate). The
	// incremental maintenance path tracks it through insert and delete
	// deltas — a group dies exactly when N reaches zero, which no stored
	// aggregate alone can reveal under deletion.
	N int64
}

// RowsAlias is the hidden COUNT(*) companion column Compute appends to every
// view-defining query to populate Group.N.
const RowsAlias = "__rows"

// Data is the computed content of one view, independent of its RDF encoding.
// Its groups are kept in key order in a persistent table (see groupTable)
// that an incremental refresh shares, chunk by chunk, with the record it
// replaces, so Data must not change once its record is published.
type Data struct {
	View        facet.View
	groups      groupTable
	ComputeTime time.Duration
	Source      string // "base", "rollup:<parent view id>" or "incremental"
}

// NumGroups is |Vi(G)|, the paper's "number of aggregated values" quantity.
func (d *Data) NumGroups() int { return d.groups.n }

// Each calls fn on every group in key order until fn returns false.
func (d *Data) Each(fn func(Group) bool) { d.groups.each(fn) }

// Compute evaluates the view's defining query on the engine's graph, with a
// hidden COUNT(*) companion column so every group carries its contribution
// count (see Group.N).
func Compute(eng *engine.Engine, v facet.View) (*Data, error) {
	start := time.Now()
	q := v.Query()
	q.Select = append(q.Select, sparql.SelectItem{Var: RowsAlias, Agg: sparql.AggCount})
	rowsCol := len(q.Select) - 1
	res, err := eng.Execute(q)
	if err != nil {
		return nil, fmt.Errorf("views: computing %s: %w", v, err)
	}
	nd := len(v.Dims())
	isAvg := v.Facet.Agg == sparql.AggAvg
	groups := make([]Group, 0, len(res.Rows))
	for _, row := range res.Rows {
		g := Group{Key: append([]algebra.Value(nil), row[:nd]...), Agg: row[nd]}
		if isAvg {
			// Columns nd+1, nd+2 are the SUM and COUNT companions added by
			// facet.View.Query for AVG facets.
			if row[nd+1].Bound {
				g.Sum, _ = algebra.NumericValue(row[nd+1].Term)
			}
			if row[nd+2].Bound {
				g.Count, _ = algebra.NumericValue(row[nd+2].Term)
			}
		}
		if row[rowsCol].Bound {
			if n, ok := algebra.NumericValue(row[rowsCol].Term); ok {
				g.N = int64(n)
			}
		}
		groups = append(groups, g)
	}
	return &Data{View: v, groups: newGroupTable(sortGroups(groups)), ComputeTime: time.Since(start), Source: "base"}, nil
}

// RollUp computes a coarser view from an already-computed finer one. The
// target must be covered by parent.View. This is exact for SUM, COUNT, MIN,
// MAX directly and for AVG via the carried (Sum, Count) pairs.
func RollUp(parent *Data, target facet.View) (*Data, error) {
	if !parent.View.Covers(target) {
		return nil, fmt.Errorf("views: %s does not cover %s", parent.View, target)
	}
	start := time.Now()
	parentDims := parent.View.Dims()
	targetDims := target.Dims()
	// Positions of target dims within the parent's key.
	proj := make([]int, len(targetDims))
	for i, d := range targetDims {
		proj[i] = -1
		for j, pd := range parentDims {
			if pd == d {
				proj[i] = j
				break
			}
		}
		if proj[i] < 0 {
			return nil, fmt.Errorf("views: dimension ?%s missing from parent %s", d, parent.View)
		}
	}
	agg := target.Facet.Agg
	type acc struct {
		key        []algebra.Value
		aggTerm    rdf.Term
		aggBound   bool
		sum, count float64
		rows       int64
		poisoned   bool
	}
	byKey := make(map[string]*acc)
	var order []*acc
	var kb []byte
	parent.Each(func(g Group) bool {
		kb = kb[:0]
		for _, j := range proj {
			kb = appendKeyValue(kb, g.Key[j])
		}
		a, ok := byKey[string(kb)]
		if !ok {
			var key []algebra.Value // an apex key stays nil, as Compute leaves it
			if len(proj) > 0 {
				key = make([]algebra.Value, len(proj))
			}
			for i, j := range proj {
				key[i] = g.Key[j]
			}
			a = &acc{key: key}
			byKey[string(kb)] = a
			order = append(order, a)
		}
		a.rows += g.N
		if a.poisoned {
			return true
		}
		switch agg {
		case sparql.AggAvg:
			a.sum += g.Sum
			a.count += g.Count
		default:
			if !g.Agg.Bound {
				a.poisoned = true
				return true
			}
			if !a.aggBound {
				a.aggTerm = g.Agg.Term
				a.aggBound = true
				return true
			}
			merged, err := algebra.MergeAggregates(agg, a.aggTerm, g.Agg.Term)
			if err != nil {
				a.poisoned = true
				return true
			}
			a.aggTerm = merged
		}
		return true
	})
	groups := make([]Group, 0, len(order))
	for _, a := range order {
		g := Group{Key: a.key, N: a.rows}
		switch {
		case a.poisoned:
			g.Agg = algebra.Unbound
		case agg == sparql.AggAvg:
			g.Sum, g.Count = a.sum, a.count
			if a.count > 0 {
				g.Agg = algebra.Bind(algebra.FormatFloat(a.sum / a.count))
			}
		case a.aggBound:
			g.Agg = algebra.Bind(a.aggTerm)
		}
		groups = append(groups, g)
	}
	return &Data{
		View:        target,
		groups:      newGroupTable(sortGroups(groups)),
		ComputeTime: time.Since(start),
		Source:      "rollup:" + parent.View.ID(),
	}, nil
}

// Stats summarizes a view's size in the three quantities the paper's cost
// models use, computed from the encoding the materializer would produce.
type Stats struct {
	Groups  int // |Vi(G)|: number of aggregated values
	Triples int // |G_Vi|: triples of the view's RDF encoding
	Nodes   int // |Ii ∪ Bi ∪ Li|: distinct nodes in the encoding
}

// ComputeStats derives encoding statistics from view data without touching
// a graph.
func ComputeStats(d *Data) Stats {
	isAvg := d.View.Facet.Agg == sparql.AggAvg
	st := Stats{Groups: d.NumGroups()}
	st.Triples, _ = encodingSize(d)
	nodes := make(map[string]struct{})
	nodes["iri:"+d.View.IRI()] = struct{}{}
	d.Each(func(g Group) bool {
		for _, kv := range g.Key {
			if kv.Bound {
				nodes[kv.String()] = struct{}{}
			}
		}
		if g.Agg.Bound {
			nodes[g.Agg.String()] = struct{}{}
		}
		if isAvg {
			nodes[algebra.FormatFloat(g.Sum).String()+"^s"] = struct{}{}
			nodes[algebra.FormatFloat(g.Count).String()+"^c"] = struct{}{}
		}
		return true
	})
	st.Nodes = len(nodes) + st.Groups // plus one blank node per group
	return st
}
