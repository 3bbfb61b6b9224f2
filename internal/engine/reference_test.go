package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sofos/internal/algebra"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

// refEval is a brute-force evaluator: Cartesian expansion of the triple
// patterns with consistency, VALUES, and filter checks, and bag union over
// branches. Each pattern looks its candidate triples up by one bound
// position, so the cost follows the partial answers rather than their count
// times the graph's size; it defines the ground truth the optimized engine
// must match.
func refEval(g *store.Graph, q *sparql.Query) []string {
	var rows []string
	if q.Where.IsUnion() {
		for i := range q.Where.Unions {
			rows = append(rows, refEvalGroup(g, q, &q.Where.Unions[i])...)
		}
	} else {
		rows = refEvalGroup(g, q, &q.Where)
	}
	slices.Sort(rows)
	return rows
}

// refEvalGroup brute-forces one conjunctive group.
func refEvalGroup(g *store.Graph, q *sparql.Query, gp *sparql.GroupPattern) []string {
	all := g.Triples()
	// byTerm[i][t] lists, in scan order, the indexes in all of the triples
	// whose component i is t; every lists them all.
	var byTerm [3]map[rdf.Term][]int
	for i := range byTerm {
		byTerm[i] = make(map[rdf.Term][]int)
	}
	every := make([]int, len(all))
	for n, tr := range all {
		every[n] = n
		for i, t := range [3]rdf.Term{tr.S, tr.P, tr.O} {
			byTerm[i][t] = append(byTerm[i][t], n)
		}
	}
	// An env is a partial solution: each variable bound at most once.
	type binding struct {
		name string
		term rdf.Term
	}
	type env []binding
	lookup := func(e env, name string) (rdf.Term, bool) {
		for _, b := range e {
			if b.name == name {
				return b.term, true
			}
		}
		return rdf.Term{}, false
	}
	envs := []env{nil}
	// VALUES clauses: cross product of inline bindings.
	for _, d := range gp.Values {
		var next []env
		for _, e := range envs {
			for _, t := range d.Terms {
				ne := slices.DeleteFunc(slices.Clone(e), func(b binding) bool { return b.name == d.Var })
				next = append(next, append(ne, binding{d.Var, t}))
			}
		}
		envs = next
	}
	// extend binds tp's variables to tr's terms on top of e, copying e once
	// if it binds any; false means tr does not match tp under e.
	extend := func(tp sparql.TriplePattern, tr rdf.Triple, e env) (env, bool) {
		out := e
		terms := [3]rdf.Term{tr.S, tr.P, tr.O}
		for i, pt := range [3]sparql.PatternTerm{tp.S, tp.P, tp.O} {
			want, bound := pt.Term, !pt.IsVar
			if pt.IsVar {
				want, bound = lookup(out, pt.Var)
			}
			switch {
			case bound && want != terms[i]:
				return nil, false
			case bound:
				continue
			}
			if len(out) == len(e) {
				out = append(make(env, 0, len(e)+3), e...)
			}
			out = append(out, binding{pt.Var, terms[i]})
		}
		return out, true
	}
	// candidates returns the triples that can match tp under e: those
	// holding the term at tp's most selective bound position.
	candidates := func(tp sparql.TriplePattern, e env) []int {
		best := every
		for i, pt := range [3]sparql.PatternTerm{tp.S, tp.P, tp.O} {
			t, ok := pt.Term, !pt.IsVar
			if pt.IsVar {
				t, ok = lookup(e, pt.Var)
			}
			if ok && len(byTerm[i][t]) < len(best) {
				best = byTerm[i][t]
			}
		}
		return best
	}
	for _, tp := range gp.Triples {
		var next []env
		for _, e := range envs {
			for _, n := range candidates(tp, e) {
				if e1, ok := extend(tp, all[n], e); ok {
					next = append(next, e1)
				}
			}
		}
		envs = next
	}
	// Filters.
	var kept []env
	for _, e := range envs {
		ok := true
		for _, f := range gp.Filters {
			resolve := func(name string) algebra.Value {
				if t, found := lookup(e, name); found {
					return algebra.Bind(t)
				}
				return algebra.Unbound
			}
			if !algebra.EvalBool(f, resolve) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, e)
		}
	}
	// Project.
	rows := make([]string, 0, len(kept))
	cols := make([]string, len(q.Select))
	for _, e := range kept {
		for i, si := range q.Select {
			cols[i] = "UNDEF"
			if t, ok := lookup(e, si.Var); ok {
				cols[i] = t.String()
			}
		}
		rows = append(rows, strings.Join(cols, "\t"))
	}
	return rows
}

// TestEngineDifferentialRandomBGPs generates random graphs and random BGP
// queries with random shapes (chains, stars, constants, shared variables,
// filters) and checks the engine against the brute-force evaluator.
func TestEngineDifferentialRandomBGPs(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		var ts []rdf.Triple
		nTriples := 10 + rng.Intn(25)
		for i := 0; i < nTriples; i++ {
			s := fmt.Sprintf("http://n%d", rng.Intn(6))
			p := fmt.Sprintf("http://p%d", rng.Intn(3))
			var o rdf.Term
			if rng.Intn(2) == 0 {
				o = rdf.NewIRI(fmt.Sprintf("http://n%d", rng.Intn(6)))
			} else {
				o = rdf.NewInteger(int64(rng.Intn(8)))
			}
			ts = append(ts, rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: o})
		}
		g, err := store.BuildFrom(ts)
		if err != nil {
			t.Fatal(err)
		}
		q := randomBGPQuery(rng)
		engRes, err := New(g).Execute(q)
		if err != nil {
			t.Fatalf("trial %d: engine error: %v\n%s", trial, err, q)
		}
		want := refEval(g, q)
		got := sortedRows(engRes)
		if want == nil {
			want = []string{}
		}
		if got == nil {
			got = []string{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d mismatch on\n%s\nengine: %v\nreference: %v", trial, q, got, want)
		}
	}
}

// randomBGPQuery builds a random SELECT over 1-4 patterns, sometimes with a
// filter and shared/repeated variables.
func randomBGPQuery(rng *rand.Rand) *sparql.Query {
	vars := []string{"a", "b", "c", "d"}
	term := func() sparql.PatternTerm {
		switch rng.Intn(4) {
		case 0:
			return sparql.Constant(rdf.NewIRI(fmt.Sprintf("http://n%d", rng.Intn(6))))
		default:
			return sparql.Variable(vars[rng.Intn(len(vars))])
		}
	}
	pred := func() sparql.PatternTerm {
		if rng.Intn(4) == 0 {
			return sparql.Variable(vars[rng.Intn(len(vars))])
		}
		return sparql.Constant(rdf.NewIRI(fmt.Sprintf("http://p%d", rng.Intn(3))))
	}
	q := &sparql.Query{Prefixes: map[string]string{}, Limit: -1}
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		q.Where.Triples = append(q.Where.Triples, sparql.TriplePattern{
			S: term(), P: pred(), O: term(),
		})
	}
	seen := map[string]bool{}
	for _, v := range q.Where.Vars() {
		if !seen[v] {
			seen[v] = true
			q.Select = append(q.Select, sparql.SelectItem{Var: v})
		}
	}
	if len(q.Select) == 0 {
		// All-constant pattern: select nothing is invalid; add a variable
		// pattern to keep the query well-formed.
		q.Where.Triples = append(q.Where.Triples, sparql.TriplePattern{
			S: sparql.Variable("a"), P: pred(), O: term(),
		})
		q.Select = append(q.Select, sparql.SelectItem{Var: "a"})
	}
	// Occasionally add a numeric filter over a selected variable.
	if rng.Intn(3) == 0 {
		v := q.Select[rng.Intn(len(q.Select))].Var
		q.Where.Filters = append(q.Where.Filters, &sparql.BinaryExpr{
			Op:    sparql.OpGe,
			Left:  &sparql.VarExpr{Name: v},
			Right: &sparql.TermExpr{Term: rdf.NewInteger(int64(rng.Intn(6)))},
		})
	}
	// Occasionally constrain a variable with VALUES (terms from the graph's
	// vocabulary so some match).
	if rng.Intn(4) == 0 && len(q.Select) > 0 {
		v := q.Select[rng.Intn(len(q.Select))].Var
		d := sparql.InlineData{Var: v}
		for i := 0; i < 1+rng.Intn(3); i++ {
			if rng.Intn(2) == 0 {
				d.Terms = append(d.Terms, rdf.NewIRI(fmt.Sprintf("http://n%d", rng.Intn(6))))
			} else {
				d.Terms = append(d.Terms, rdf.NewInteger(int64(rng.Intn(8))))
			}
		}
		q.Where.Values = append(q.Where.Values, d)
	}
	return q
}

// TestEngineDifferentialRandomUnions mirrors the BGP differential test for
// two-branch unions.
func TestEngineDifferentialRandomUnions(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 40; trial++ {
		var ts []rdf.Triple
		for i := 0; i < 15+rng.Intn(20); i++ {
			s := fmt.Sprintf("http://n%d", rng.Intn(6))
			p := fmt.Sprintf("http://p%d", rng.Intn(3))
			var o rdf.Term
			if rng.Intn(2) == 0 {
				o = rdf.NewIRI(fmt.Sprintf("http://n%d", rng.Intn(6)))
			} else {
				o = rdf.NewInteger(int64(rng.Intn(8)))
			}
			ts = append(ts, rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: o})
		}
		g, err := store.BuildFrom(ts)
		if err != nil {
			t.Fatal(err)
		}
		b1 := randomBGPQuery(rng)
		b2 := randomBGPQuery(rng)
		q := &sparql.Query{Prefixes: map[string]string{}, Limit: -1}
		q.Where.Unions = []sparql.GroupPattern{b1.Where, b2.Where}
		seen := map[string]bool{}
		for _, v := range q.Where.Vars() {
			if !seen[v] {
				seen[v] = true
				q.Select = append(q.Select, sparql.SelectItem{Var: v})
			}
		}
		engRes, err := New(g).Execute(q)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, q)
		}
		want := refEval(g, q)
		got := sortedRows(engRes)
		if want == nil {
			want = []string{}
		}
		if got == nil {
			got = []string{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d mismatch on\n%s\nengine: %v\nreference: %v", trial, q, got, want)
		}
	}
}
