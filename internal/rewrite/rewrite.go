// Package rewrite implements the online module's query translation (§3.2 of
// the SOFOS paper): given an analytical query Q targeting a facet F, it
// identifies the best materialized view that can answer Q, translates Q into
// a query Q' over the view's blank-node encoding in the view graph V (the
// paper's expanded graph G+ is G ∪ V), re-aggregates the precomputed values
// to Q's granularity, and falls back to the base graph G when no view is
// usable. Answers are evaluated on the chosen view's group table, mirroring
// Q' step by step; AnswerStarJoin runs Q' over a V built on demand.
package rewrite

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"sofos/internal/algebra"
	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/obs"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/views"
)

// GroupVar is the variable bound to the group blank node in rewritten
// queries; AggVar is bound to the stored aggregate value.
const (
	GroupVar = "__g"
	AggVar   = "__v"
	SumVar   = "__s"
	CountVar = "__c"
)

// Answer is the outcome of answering one query.
type Answer struct {
	Result    *engine.Result
	Via       *views.Materialized // nil when answered from the base graph
	Rewritten *sparql.Query       // the translated query, nil for base answers
	Reason    string              // why the base graph was used, "" otherwise
	// Outcome classifies how the answer was produced: obs.OutcomeViewHit
	// (the chosen view's granularity equals the query's GROUP BY, stored
	// groups are the answer), obs.OutcomePartialRollup (a finer view was
	// re-aggregated), or obs.OutcomeFullScan (base graph).
	Outcome string
	Elapsed time.Duration // total answering time including rewriting
}

// UsedView reports whether a materialized view served the answer.
func (a *Answer) UsedView() bool { return a.Via != nil }

// ViaLabel names the answering source for reports.
func (a *Answer) ViaLabel() string {
	if a.Via == nil {
		return "base"
	}
	return a.Via.View().ID()
}

// Rewriter answers facet queries using a catalog of materialized views.
type Rewriter struct {
	catalog *views.Catalog
}

// New returns a rewriter over the catalog.
func New(c *views.Catalog) *Rewriter { return &Rewriter{catalog: c} }

// analysis is the decomposition of a query against the facet.
type analysis struct {
	groupMask  facet.Mask // dims in GROUP BY
	filterMask facet.Mask // dims referenced by FILTERs
	agg        sparql.SelectItem
	reason     string // non-empty: not answerable from views
}

// analyze checks that q targets the catalog's facet and extracts the
// dimension sets. A non-empty reason means only the base graph can answer.
func (r *Rewriter) analyze(q *sparql.Query) analysis {
	f := r.catalog.Facet()
	aggs := q.Aggregates()
	if len(aggs) != 1 {
		return analysis{reason: "query must have exactly one aggregate"}
	}
	a := aggs[0]
	if a.Agg != f.Agg {
		return analysis{reason: fmt.Sprintf("aggregate %s differs from facet %s", a.Agg, f.Agg)}
	}
	if a.AggVar != f.Measure {
		return analysis{reason: fmt.Sprintf("measure ?%s differs from facet ?%s", a.AggVar, f.Measure)}
	}
	if a.AggDistinct {
		return analysis{reason: "DISTINCT aggregates cannot be answered from pre-aggregated views"}
	}
	if !samePattern(&q.Where, &f.Pattern) {
		return analysis{reason: "query pattern does not match the facet pattern"}
	}
	out := analysis{agg: a}
	for _, v := range q.GroupBy {
		i := f.DimIndex(v)
		if i < 0 {
			return analysis{reason: fmt.Sprintf("grouping variable ?%s is not a facet dimension", v)}
		}
		out.groupMask |= 1 << i
	}
	for _, fe := range q.Where.Filters {
		for _, v := range sparql.ExprVars(fe) {
			i := f.DimIndex(v)
			if i < 0 {
				return analysis{reason: fmt.Sprintf("filter variable ?%s is not a facet dimension", v)}
			}
			out.filterMask |= 1 << i
		}
	}
	// VALUES clauses constrain dimensions exactly like filters: the view
	// must carry the constrained dimension, and the clause is replayed in
	// the rewritten query.
	for _, d := range q.Where.Values {
		i := f.DimIndex(d.Var)
		if i < 0 {
			return analysis{reason: fmt.Sprintf("VALUES variable ?%s is not a facet dimension", d.Var)}
		}
		out.filterMask |= 1 << i
	}
	return out
}

// samePattern compares two graph patterns' triple sets (filters excluded:
// query filters specialize the facet).
func samePattern(q, f *sparql.GroupPattern) bool {
	if len(q.Triples) != len(f.Triples) || len(q.Optionals) != len(f.Optionals) ||
		len(q.Unions) != len(f.Unions) {
		return false
	}
	qs := make([]string, len(q.Triples))
	fs := make([]string, len(f.Triples))
	for i := range q.Triples {
		qs[i] = q.Triples[i].String()
		fs[i] = f.Triples[i].String()
	}
	sort.Strings(qs)
	sort.Strings(fs)
	for i := range qs {
		if qs[i] != fs[i] {
			return false
		}
	}
	return true
}

// chooseView returns the best materialized view able to answer a query
// needing the given dimensions: the usable view with the fewest groups
// (the "smallest possible view" rule of §3), recording every candidate
// considered — and why the losers lost — as attributes on the given span.
// ok is false when none is usable.
func (r *Rewriter) chooseView(required facet.Mask, sp obs.SpanHandle) (*views.Materialized, bool) {
	var best *views.Materialized
	for _, m := range r.catalog.Materialized() {
		if !required.Subset(m.View().Mask) {
			sp.Attr("rejected:"+m.View().ID(), "does not cover the required dimensions")
			continue
		}
		if best == nil || m.Data.NumGroups() < best.Data.NumGroups() {
			if best != nil {
				sp.Attr("rejected:"+best.View().ID(), "usable, but more groups than a finer candidate")
			}
			best = m
		} else {
			sp.Attr("rejected:"+m.View().ID(), "usable, but more groups than a finer candidate")
		}
	}
	return best, best != nil
}

// Answer answers q, preferring materialized views, with the catalog's
// default engine options.
func (r *Rewriter) Answer(q *sparql.Query) (*Answer, error) {
	return r.answer(q, r.catalog.BaseEngine(), r.evaluate, obs.SpanHandle{})
}

// AnswerStarJoin is Answer the paper's way: a view-answered query runs its
// translation Q' (Answer.Rewritten) as a star join over the view graph V,
// built on first use (views.Catalog.ExpandedEngine). Its answers equal
// Answer's; it is the tests' oracle and what cost.MeasureViewTimes times.
func (r *Rewriter) AnswerStarJoin(q *sparql.Query) (*Answer, error) {
	starJoin := func(_, rq *sparql.Query, _ analysis, _ *views.Materialized, _ obs.SpanHandle) (*engine.Result, error) {
		return r.catalog.ExpandedEngine().Execute(rq)
	}
	return r.answer(q, r.catalog.BaseEngine(), starJoin, obs.SpanHandle{})
}

// AnswerWith is Answer with an explicit worker bound, so a serving layer
// can cap one request's intra-query parallelism independently of the
// catalog-wide default. All other engine options (e.g. join-order
// ablation) are inherited from the catalog. Engines are stateless handles
// over the graphs, so building a pair per call costs nothing.
func (r *Rewriter) AnswerWith(q *sparql.Query, opts engine.Options) (*Answer, error) {
	merged := r.catalog.EngineOptions()
	merged.Workers = opts.Workers
	merged.Span = opts.Span
	return r.answer(q, engine.NewWithOptions(r.catalog.Base(), merged), r.evaluate, opts.Span)
}

// evalFunc computes the rows of rq, the translation of q over mat's groups.
type evalFunc func(q, rq *sparql.Query, an analysis, mat *views.Materialized, sp obs.SpanHandle) (*engine.Result, error)

// answer runs the rewriting pipeline, evaluating view-answered queries with
// eval and the rest on baseEng, and recording the rewrite decision on sp
// (zero handle = tracing off).
func (r *Rewriter) answer(q *sparql.Query, baseEng *engine.Engine, eval evalFunc, sp obs.SpanHandle) (*Answer, error) {
	start := time.Now()
	anSp := sp.Child("rewrite.analyze")
	an := r.analyze(q)
	if an.reason != "" {
		anSp.Attr("reason", an.reason)
		anSp.End()
		return r.answerBase(q, an.reason, start, baseEng, sp)
	}
	anSp.End()
	chSp := sp.Child("rewrite.choose_view")
	mat, ok := r.chooseView(an.groupMask|an.filterMask, chSp)
	if !ok {
		chSp.Attr("chosen", "none")
		chSp.End()
		return r.answerBase(q, "no materialized view covers the query dimensions", start, baseEng, sp)
	}
	outcome := obs.OutcomePartialRollup
	if mat.View().Mask == an.groupMask {
		outcome = obs.OutcomeViewHit
	}
	chSp.Attr("chosen", mat.View().ID())
	chSp.AttrInt("groups", int64(mat.Data.NumGroups()))
	chSp.Attr("outcome", outcome)
	chSp.End()
	trSp := sp.Child("rewrite.translate")
	rq, err := r.translate(q, an, mat)
	trSp.End()
	if err != nil {
		return nil, fmt.Errorf("rewrite: translating %s: %w", mat.View(), err)
	}
	res, err := eval(q, rq, an, mat, sp)
	if err != nil {
		return nil, fmt.Errorf("rewrite: executing rewritten query: %w", err)
	}
	ppSp := sp.Child("rewrite.post_process")
	final, err := postProcess(q, an, res)
	ppSp.End()
	if err != nil {
		return nil, err
	}
	return &Answer{
		Result:    final,
		Via:       mat,
		Rewritten: rq,
		Outcome:   outcome,
		Elapsed:   time.Since(start),
	}, nil
}

// answerBase executes q on the base graph G.
func (r *Rewriter) answerBase(q *sparql.Query, reason string, start time.Time, baseEng *engine.Engine, sp obs.SpanHandle) (*Answer, error) {
	bSp := sp.Child("rewrite.base_scan")
	bSp.Attr("reason", reason)
	res, err := baseEng.Execute(q)
	bSp.End()
	if err != nil {
		return nil, fmt.Errorf("rewrite: base execution: %w", err)
	}
	return &Answer{Result: res, Reason: reason, Outcome: obs.OutcomeFullScan, Elapsed: time.Since(start)}, nil
}

// CacheKey returns a canonical, prefix-independent text of q, suitable as
// the query part of a result-cache key: two queries that parse to the same
// AST produce the same key regardless of whitespace, prefix labels, or
// clause spelling (constants print as full IRIs, clauses in canonical
// order). Pair it with the catalog generation and view-set hash to key a
// cache that invalidates exactly when an answer could change.
func CacheKey(q *sparql.Query) string {
	c := *q // shallow copy: only Prefixes is cleared, the rest is shared
	c.Prefixes = nil
	return c.String()
}

// evaluate answers the translated query rq from mat's group table, each
// step mirroring the star join over the view's encoding: (1) a group with
// an unbound required dimension has no sofos:d_x triple and is dropped, (2)
// so is one with an unbound aggregate, except in AVG facets, which always
// encode Sum and Count; (3) FILTERs run on the key values and each VALUES
// seed row a group matches counts once (valuesCount); (4) kept groups
// re-aggregate with rq's accumulators, fed the values the encoding renders
// (AVG sums Sum and Count for postProcess to divide); (5) with no GROUP BY
// and no kept group, one row of empty accumulators remains (SUM gives 0).
// Stats.IntermediateRows is the number of groups visited.
func (r *Rewriter) evaluate(q, rq *sparql.Query, an analysis, mat *views.Materialized, sp obs.SpanHandle) (*engine.Result, error) {
	evSp := sp.Child("rewrite.evaluate_table")
	defer evSp.End()
	start := time.Now()
	f := r.catalog.Facet()
	pos := make(map[string]int, len(f.Dims)) // facet dim -> index in the view's key
	for i, d := range mat.View().Dims() {
		pos[d] = i
	}
	var required []int
	for i, d := range f.Dims {
		if (an.groupMask|an.filterMask)&(1<<i) != 0 {
			required = append(required, pos[d])
		}
	}
	matches := valuesCount(q.Where.Values, pos, r.catalog.Base().Dict())
	isAvg := f.Agg == sparql.AggAvg
	// The view's groups project onto distinct keys exactly when the query
	// groups by all of the view's dimensions, so no index is needed then.
	unique := mat.View().Mask == an.groupMask

	type outGroup struct {
		row  []algebra.Value       // rq's projection, grouped columns set
		accs []algebra.Accumulator // per column, nil for grouped ones
	}
	newGroup := func(key []algebra.Value) *outGroup {
		og := &outGroup{row: make([]algebra.Value, len(rq.Select)), accs: make([]algebra.Accumulator, len(rq.Select))}
		for i, si := range rq.Select {
			if si.Agg == sparql.AggNone {
				og.row[i] = key[pos[si.Var]]
			} else {
				og.accs[i] = algebra.NewAccumulator(si)
			}
		}
		return og
	}
	var out []*outGroup
	index := make(map[string]*outGroup)
	var g views.Group
	resolve := func(name string) algebra.Value { return g.Key[pos[name]] } // filters name view dims only
	input := func(name string) algebra.Value {
		switch name {
		case SumVar:
			return algebra.Bind(algebra.FormatFloat(g.Sum))
		case CountVar:
			return algebra.Bind(algebra.FormatFloat(g.Count))
		}
		return g.Agg
	}
	visited := 0
	var kb []byte
	mat.Data.Each(func(grp views.Group) bool {
		visited++
		g = grp
		for _, p := range required {
			if !g.Key[p].Bound {
				return true
			}
		}
		if !isAvg && !g.Agg.Bound {
			return true
		}
		for _, fe := range q.Where.Filters {
			if !algebra.EvalBool(fe, resolve) {
				return true
			}
		}
		n := matches(g.Key)
		if n == 0 {
			return true
		}
		var og *outGroup
		if !unique {
			kb = kb[:0]
			for _, v := range rq.GroupBy {
				kb = appendTerm(kb, g.Key[pos[v]].Term)
			}
			og = index[string(kb)]
		}
		if og == nil {
			og = newGroup(g.Key)
			if !unique {
				index[string(kb)] = og
			}
			out = append(out, og)
		}
		for i, acc := range og.accs {
			if acc != nil {
				v := input(rq.Select[i].AggVar)
				for range n {
					acc.Add(v)
				}
			}
		}
		return true
	})
	if len(out) == 0 && len(rq.GroupBy) == 0 {
		out = append(out, newGroup(nil)) // every column is an aggregate
	}

	res := &engine.Result{Vars: make([]string, len(rq.Select))}
	for i, si := range rq.Select {
		res.Vars[i] = si.Var
	}
	for _, og := range out {
		for i, acc := range og.accs {
			if acc != nil {
				og.row[i] = acc.Result()
			}
		}
		res.Rows = append(res.Rows, og.row)
	}
	res.Stats = engine.ExecStats{IntermediateRows: int64(visited), ResultRows: len(res.Rows), Elapsed: time.Since(start)}
	evSp.AttrInt("groups_visited", int64(visited))
	return res, nil
}

// appendTerm appends a term's identity — kind, value, datatype and language
// tag — to b, the grouping key evaluate indexes re-aggregated groups by.
func appendTerm(b []byte, t rdf.Term) []byte {
	b = append(b, byte(t.Kind))
	b = append(append(b, t.Value...), 0)
	b = append(append(b, t.Datatype...), 0)
	return append(append(b, t.Lang...), 0)
}

// valuesCount returns how many VALUES seed rows a group with a given key
// joins with. The engine seeds a join with the cross product of the VALUES
// clauses, dropping terms its graph lacks, and a later clause on a variable
// overwrites an earlier one's binding. So a group matches, per variable, the
// occurrences of its key value in the variable's last clause, times the size
// of every clause that one overwrote.
func valuesCount(clauses []sparql.InlineData, pos map[string]int, dict *rdf.Dict) func([]algebra.Value) int {
	factor := 1
	last := make(map[int]map[rdf.Term]int) // key index -> term occurrences
	for i, d := range clauses {
		count, n := make(map[rdf.Term]int), 0
		for _, t := range d.Terms {
			if _, ok := dict.Lookup(t); ok {
				count[t]++
				n++
			}
		}
		if slices.ContainsFunc(clauses[i+1:], func(o sparql.InlineData) bool { return o.Var == d.Var }) {
			factor *= n
		} else {
			last[pos[d.Var]] = count
		}
	}
	return func(key []algebra.Value) int {
		n := factor
		for p, count := range last {
			n *= count[key[p].Term]
		}
		return n
	}
}

// translate builds the rewritten query over the view encoding:
//
//	SELECT Xq (reagg(?__v) AS ?alias) WHERE {
//	    ?__g sofos:inView <view> .
//	    ?__g sofos:d_x ?x .          for x ∈ Xq ∪ filter dims
//	    ?__g sofos:agg ?__v .        (aggSum/aggCount for AVG)
//	    FILTER ...                   original filters
//	} GROUP BY Xq
//
// HAVING, ORDER BY, DISTINCT and LIMIT/OFFSET are applied by postProcess so
// AVG recombination happens first. Answer evaluates Q' on the view's group
// table (evaluate); AnswerStarJoin runs it over V.
func (r *Rewriter) translate(q *sparql.Query, an analysis, mat *views.Materialized) (*sparql.Query, error) {
	f := r.catalog.Facet()
	v := mat.View()
	g := sparql.Variable(GroupVar)
	rq := &sparql.Query{Prefixes: q.Prefixes, Limit: -1}
	rq.Where.Triples = append(rq.Where.Triples, sparql.TriplePattern{
		S: g,
		P: (iri(views.PredInView)),
		O: (iri(v.IRI())),
	})
	needed := an.groupMask | an.filterMask
	for i, d := range f.Dims {
		if needed&(1<<i) == 0 {
			continue
		}
		rq.Where.Triples = append(rq.Where.Triples, sparql.TriplePattern{
			S: g,
			P: (iri(views.DimPredicate(d))),
			O: sparql.Variable(d),
		})
	}
	isAvg := f.Agg == sparql.AggAvg
	if isAvg {
		rq.Where.Triples = append(rq.Where.Triples,
			sparql.TriplePattern{S: g, P: (iri(views.PredSum)), O: sparql.Variable(SumVar)},
			sparql.TriplePattern{S: g, P: (iri(views.PredCount)), O: sparql.Variable(CountVar)},
		)
	} else {
		rq.Where.Triples = append(rq.Where.Triples, sparql.TriplePattern{
			S: g, P: (iri(views.PredAgg)), O: sparql.Variable(AggVar),
		})
	}
	rq.Where.Filters = append(rq.Where.Filters, q.Where.Filters...)
	rq.Where.Values = append(rq.Where.Values, q.Where.Values...)

	// Projection: original select order, re-aggregating stored values.
	for _, si := range q.Select {
		if si.Agg == sparql.AggNone {
			rq.Select = append(rq.Select, si)
			continue
		}
		if isAvg {
			rq.Select = append(rq.Select,
				sparql.SelectItem{Var: SumVar + "_agg", Agg: sparql.AggSum, AggVar: SumVar},
				sparql.SelectItem{Var: CountVar + "_agg", Agg: sparql.AggSum, AggVar: CountVar},
			)
			continue
		}
		rq.Select = append(rq.Select, sparql.SelectItem{
			Var: si.Var, Agg: reaggKind(f.Agg), AggVar: AggVar,
		})
	}
	rq.GroupBy = append([]string(nil), q.GroupBy...)
	if err := rq.Validate(); err != nil {
		return nil, fmt.Errorf("rewrite: produced invalid query: %w (query: %s)", err, rq)
	}
	return rq, nil
}

// reaggKind maps the facet aggregate to the re-aggregation operator applied
// over per-group stored values: partial SUMs and COUNTs recombine by SUM,
// MIN/MAX by themselves.
func reaggKind(agg sparql.AggKind) sparql.AggKind {
	switch agg {
	case sparql.AggCount:
		return sparql.AggSum
	default:
		return agg
	}
}

func iri(s string) sparql.PatternTerm {
	return sparql.Constant(rdf.NewIRI(s))
}

// postProcess finalizes the rewritten result: recombines AVG from (sum,
// count) columns, then applies the original query's HAVING and its
// DISTINCT, ORDER BY and LIMIT/OFFSET (engine.ApplyModifiers).
func postProcess(q *sparql.Query, an analysis, res *engine.Result) (*engine.Result, error) {
	out := &engine.Result{Vars: make([]string, len(q.Select)), Stats: res.Stats}
	for i, si := range q.Select {
		out.Vars[i] = si.Var
	}
	isAvg := an.agg.Agg == sparql.AggAvg
	colOf := make(map[string]int, len(res.Vars))
	for i, v := range res.Vars {
		colOf[v] = i
	}
	for _, row := range res.Rows {
		orow := make([]algebra.Value, len(q.Select))
		for i, si := range q.Select {
			if si.Agg == sparql.AggNone {
				orow[i] = row[colOf[si.Var]]
				continue
			}
			if isAvg {
				sumV := row[colOf[SumVar+"_agg"]]
				cntV := row[colOf[CountVar+"_agg"]]
				if sumV.Bound && cntV.Bound {
					s, _ := algebra.NumericValue(sumV.Term)
					c, _ := algebra.NumericValue(cntV.Term)
					if c > 0 {
						orow[i] = algebra.Bind(algebra.FormatFloat(s / c))
					}
				}
				continue
			}
			orow[i] = row[colOf[si.Var]]
		}
		orow = orow[:len(q.Select)]
		if q.Having != nil {
			resolve := func(name string) algebra.Value {
				for i, v := range out.Vars {
					if v == name {
						return orow[i]
					}
				}
				return algebra.Unbound
			}
			if !algebra.EvalBool(q.Having, resolve) {
				continue
			}
		}
		out.Rows = append(out.Rows, orow)
	}
	if err := engine.ApplyModifiers(out, q); err != nil {
		return nil, err
	}
	out.Stats.ResultRows = len(out.Rows)
	return out, nil
}
