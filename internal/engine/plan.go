package engine

import (
	"sort"

	"sofos/internal/obs"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

// compiledTerm is one component of a compiled triple pattern: either a
// constant (resolved to a dictionary ID) or a variable slot.
type compiledTerm struct {
	isVar bool
	slot  int    // variable slot index when isVar
	id    rdf.ID // dictionary ID when constant; NoID means the constant does
	// not occur in the graph at all, so the pattern cannot match.
	missing bool // constant absent from the dictionary
}

// compiledPattern is a triple pattern with resolved constants.
type compiledPattern struct {
	s, p, o compiledTerm
	est     int // base cardinality estimate (constants only)
}

// step is one element of the physical plan: a pattern scan plus the filters
// that become fully bound right after it.
type step struct {
	pat     compiledPattern
	filters []sparql.Expr
}

// Plan is a compiled query: the ordered required steps, compiled optionals,
// and leftover filters evaluated at the end (e.g. filters over optional
// variables).
type Plan struct {
	vars   []string // slot -> variable name
	slots  map[string]int
	main   branchPlan   // the conjunctive plan for non-UNION queries
	unions []branchPlan // set for UNION queries; main unused
	query  *sparql.Query
	span   obs.SpanHandle // parent span for partition traces (zero = off)
	empty  bool           // a constant is missing from the graph: zero results
}

// optionalPlan is a compiled OPTIONAL block.
type optionalPlan struct {
	steps      []step
	lateFilter []sparql.Expr
	// ownSlots are slots first bound inside the optional (reset to unbound
	// when the block does not match).
	ownSlots []int
}

// branchPlan is one compiled conjunctive group (the required BGP with its
// filters and optionals). A plain query has exactly one; a UNION query has
// one per alternation branch.
type branchPlan struct {
	steps      []step
	optionals  []optionalPlan
	lateFilter []sparql.Expr
	inline     []inlineBinding // VALUES clauses, applied as initial bindings
	empty      bool
}

// inlineBinding is a compiled VALUES clause: the variable slot and the
// dictionary IDs of its allowed terms. Terms absent from the graph are
// dropped at compile time — they can never join with a triple pattern, and
// the validator guarantees every VALUES variable occurs in one.
type inlineBinding struct {
	slot int
	ids  []rdf.ID
}

// compiler carries shared state while building a plan.
type compiler struct {
	g    *store.Graph
	p    *Plan
	opts Options
}

// slot interns a variable name to a slot index on the plan.
func (c *compiler) slot(name string) int {
	if s, ok := c.p.slots[name]; ok {
		return s
	}
	s := len(c.p.vars)
	c.p.slots[name] = s
	c.p.vars = append(c.p.vars, name)
	return s
}

// compileOne resolves one triple pattern against the graph dictionary. The
// base cardinality estimate is exact: the store reads it off the matching
// permutation range's length, so greedy ordering never guesses.
func (c *compiler) compileOne(tp sparql.TriplePattern) compiledPattern {
	var cp compiledPattern
	comp := func(pt sparql.PatternTerm) compiledTerm {
		if pt.IsVar {
			return compiledTerm{isVar: true, slot: c.slot(pt.Var)}
		}
		id, ok := c.g.Dict().Lookup(pt.Term)
		if !ok {
			return compiledTerm{missing: true}
		}
		return compiledTerm{id: id}
	}
	cp.s, cp.p, cp.o = comp(tp.S), comp(tp.P), comp(tp.O)
	if cp.s.missing || cp.p.missing || cp.o.missing {
		cp.est = 0
	} else {
		cp.est = c.g.Estimate(constID(cp.s), constID(cp.p), constID(cp.o))
	}
	return cp
}

// compileGroup compiles one conjunctive group into a branch plan.
func (c *compiler) compileGroup(gp *sparql.GroupPattern) branchPlan {
	var br branchPlan
	boundSlots := make(map[int]bool)
	// VALUES clauses bind their variables before any scan.
	for _, d := range gp.Values {
		ib := inlineBinding{slot: c.slot(d.Var)}
		for _, t := range d.Terms {
			if id, ok := c.g.Dict().Lookup(t); ok {
				ib.ids = append(ib.ids, id)
			}
		}
		if len(ib.ids) == 0 {
			br.empty = true // no listed term exists in the graph
		}
		br.inline = append(br.inline, ib)
		boundSlots[ib.slot] = true
	}

	required := make([]compiledPattern, 0, len(gp.Triples))
	for _, tp := range gp.Triples {
		cp := c.compileOne(tp)
		if (cp.s.missing || cp.p.missing || cp.o.missing) || cp.est == 0 && allConst(cp) {
			br.empty = true
		}
		required = append(required, cp)
	}

	ordered := required
	if !c.opts.NaiveOrder {
		ordered = orderPatterns(required, boundSlots)
	}
	pendingFilters := append([]sparql.Expr(nil), gp.Filters...)
	for _, cp := range ordered {
		st := step{pat: cp}
		markBound(cp, boundSlots)
		st.filters, pendingFilters = takeApplicable(pendingFilters, c.p.slots, boundSlots)
		br.steps = append(br.steps, st)
	}
	// With an empty BGP (allowed: pure-filter queries are rejected by the
	// validator, so this only happens with optionals), filters wait.

	for i := range gp.Optionals {
		opt := &gp.Optionals[i]
		before := make(map[int]bool, len(boundSlots))
		for k := range boundSlots {
			before[k] = true
		}
		var op optionalPlan
		var optPatterns []compiledPattern
		for _, tp := range opt.Triples {
			optPatterns = append(optPatterns, c.compileOne(tp))
		}
		optBound := boundSlots
		optPending := append([]sparql.Expr(nil), opt.Filters...)
		if !c.opts.NaiveOrder {
			optPatterns = orderPatterns(optPatterns, boundSlots)
		}
		for _, cp := range optPatterns {
			st := step{pat: cp}
			markBound(cp, optBound)
			st.filters, optPending = takeApplicable(optPending, c.p.slots, optBound)
			op.steps = append(op.steps, st)
		}
		op.lateFilter = optPending
		for s := range optBound {
			if !before[s] {
				op.ownSlots = append(op.ownSlots, s)
			}
		}
		sort.Ints(op.ownSlots)
		br.optionals = append(br.optionals, op)
	}
	br.lateFilter = pendingFilters
	return br
}

// compile builds a Plan for q over g.
func compile(g *store.Graph, q *sparql.Query, opts Options) (*Plan, error) {
	p := &Plan{slots: make(map[string]int), query: q}
	c := &compiler{g: g, p: p, opts: opts}
	// Register variables in first-appearance order (required part first).
	for _, v := range q.Where.Vars() {
		c.slot(v)
	}
	if q.Where.IsUnion() {
		for i := range q.Where.Unions {
			p.unions = append(p.unions, c.compileGroup(&q.Where.Unions[i]))
		}
		// A union is empty only if every branch is.
		p.empty = true
		for _, br := range p.unions {
			if !br.empty {
				p.empty = false
			}
		}
		return p, nil
	}
	br := c.compileGroup(&q.Where)
	p.main = br
	p.empty = br.empty
	return p, nil
}

// constID returns the ID of a constant component or NoID for variables
// (wildcard in estimation).
func constID(ct compiledTerm) rdf.ID {
	if ct.isVar {
		return rdf.NoID
	}
	return ct.id
}

// allConst reports whether the pattern has no variables.
func allConst(cp compiledPattern) bool {
	return !cp.s.isVar && !cp.p.isVar && !cp.o.isVar
}

// markBound records the pattern's variable slots as bound.
func markBound(cp compiledPattern, bound map[int]bool) {
	for _, ct := range []compiledTerm{cp.s, cp.p, cp.o} {
		if ct.isVar {
			bound[ct.slot] = true
		}
	}
}

// takeApplicable splits filters into those whose variables are all bound
// (returned first) and the rest.
func takeApplicable(filters []sparql.Expr, slots map[string]int, bound map[int]bool) (ready, pending []sparql.Expr) {
	for _, f := range filters {
		ok := true
		for _, v := range sparql.ExprVars(f) {
			s, known := slots[v]
			if !known || !bound[s] {
				ok = false
				break
			}
		}
		if ok {
			ready = append(ready, f)
		} else {
			pending = append(pending, f)
		}
	}
	return ready, pending
}

// orderPatterns produces a greedy join order: repeatedly pick the remaining
// pattern with the lowest effective cost, strongly preferring patterns that
// share an already-bound variable (index nested-loop joins) over Cartesian
// products. seedBound marks slots bound before the first scan (VALUES).
func orderPatterns(pats []compiledPattern, seedBound map[int]bool) []compiledPattern {
	if len(pats) <= 1 {
		return pats
	}
	remaining := append([]compiledPattern(nil), pats...)
	bound := make(map[int]bool, len(seedBound))
	for k := range seedBound {
		bound[k] = true
	}
	var out []compiledPattern
	for len(remaining) > 0 {
		bestIdx, bestScore := -1, 0.0
		for i, cp := range remaining {
			score := patternScore(cp, bound)
			if bestIdx == -1 || score < bestScore {
				bestIdx, bestScore = i, score
			}
		}
		chosen := remaining[bestIdx]
		out = append(out, chosen)
		markBound(chosen, bound)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return out
}

// patternScore estimates the cost of scanning a pattern given currently
// bound variables. Bound variables act as constants at execution time, so
// each one sharply reduces the expected matches; an unconnected pattern is
// a Cartesian product and is penalized.
func patternScore(cp compiledPattern, bound map[int]bool) float64 {
	est := float64(cp.est)
	nvars, nbound := 0, 0
	for _, ct := range []compiledTerm{cp.s, cp.p, cp.o} {
		if ct.isVar {
			nvars++
			if bound[ct.slot] {
				nbound++
			}
		}
	}
	if nvars == 0 {
		return 0.5 // fully constant: existence check, nearly free
	}
	if nbound > 0 {
		// Each bound variable behaves like an added constant selector.
		return est / (1 + 50*float64(nbound))
	}
	if len(bound) > 0 {
		// Disconnected from current bindings: Cartesian product penalty.
		return est * 1000
	}
	return est
}
