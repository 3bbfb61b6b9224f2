package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sofos/internal/algebra"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

// refEval is a brute-force evaluator: Cartesian expansion of the triple
// patterns with consistency, VALUES, and filter checks, and bag union over
// branches. Exponential, so only for tiny graphs — it defines the ground
// truth the optimized engine must match.
func refEval(g *store.Graph, q *sparql.Query) []string {
	var rows []string
	if q.Where.IsUnion() {
		for i := range q.Where.Unions {
			rows = append(rows, refEvalGroup(g, q, &q.Where.Unions[i])...)
		}
	} else {
		rows = refEvalGroup(g, q, &q.Where)
	}
	sortStrings(rows)
	return rows
}

// refEvalGroup brute-forces one conjunctive group.
func refEvalGroup(g *store.Graph, q *sparql.Query, gp *sparql.GroupPattern) []string {
	all := g.Triples()
	type env map[string]rdf.Term
	var envs []env
	envs = append(envs, env{})
	// VALUES clauses: cross product of inline bindings.
	for _, d := range gp.Values {
		var next []env
		for _, e := range envs {
			for _, t := range d.Terms {
				ne := make(env, len(e)+1)
				for k, v := range e {
					ne[k] = v
				}
				ne[d.Var] = t
				next = append(next, ne)
			}
		}
		envs = next
	}
	match := func(pt sparql.PatternTerm, t rdf.Term, e env) (env, bool) {
		if !pt.IsVar {
			if pt.Term == t {
				return e, true
			}
			return nil, false
		}
		if v, ok := e[pt.Var]; ok {
			if v == t {
				return e, true
			}
			return nil, false
		}
		ne := make(env, len(e)+1)
		for k, v := range e {
			ne[k] = v
		}
		ne[pt.Var] = t
		return ne, true
	}
	for _, tp := range gp.Triples {
		var next []env
		for _, e := range envs {
			for _, tr := range all {
				e1, ok := match(tp.S, tr.S, e)
				if !ok {
					continue
				}
				e2, ok := match(tp.P, tr.P, e1)
				if !ok {
					continue
				}
				e3, ok := match(tp.O, tr.O, e2)
				if !ok {
					continue
				}
				next = append(next, e3)
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
				if t, found := e[name]; found {
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
	var rows []string
	for _, e := range kept {
		row := ""
		for i, si := range q.Select {
			if i > 0 {
				row += "\t"
			}
			if t, ok := e[si.Var]; ok {
				row += t.String()
			} else {
				row += "UNDEF"
			}
		}
		rows = append(rows, row)
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
