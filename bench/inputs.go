package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"sofos/internal/algebra"
	"sofos/internal/api"
	"sofos/internal/core"
	"sofos/internal/datasets"
	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/rewrite"
	"sofos/internal/sparql"
	"sofos/internal/workload"
)

const (
	dbpProp = "http://dbpedia.org/property/"
	dbpRes  = "http://dbpedia.org/resource/"

	obsPerTxn   = 4 // population observations inserted per transaction (16 triples)
	deleteAfter = 8 // a transaction deletes what the one this many earlier inserted
)

// txn is one two-statement update transaction: statement 1 inserts new
// observations, statement 2 deletes the observations an earlier transaction
// inserted, so the graph size stays level.
type txn struct {
	ins, del []rdf.Triple
}

// request renders the transaction as the /v1/update body the workloads send.
func (t txn) request() api.UpdateRequest {
	req := api.UpdateRequest{Maintain: "eager", Ack: "local",
		Statements: []api.UpdateStatement{{Insert: rdf.NTriplesString(t.ins)}}}
	if len(t.del) > 0 {
		req.Statements = append(req.Statements, api.UpdateStatement{Delete: rdf.NTriplesString(t.del)})
	}
	return req
}

// inputs is everything one run feeds the server, generated from the seed
// alone, plus the oracle: an in-process system without views over the same
// dataset, whose base engine is the trivially correct answer.
type inputs struct {
	oracle  *core.System
	queries *queryGen
	txns    *txnGen
}

// buildInputs generates the dataset (dataset seed = workload seed) and the
// seed's query and transaction streams.
func buildInputs(seed int64, scale int) (*inputs, error) {
	g, f, err := datasets.BuildWithFacet("dbpedia", scale, seed)
	if err != nil {
		return nil, err
	}
	oracle, err := core.New(g, f)
	if err != nil {
		return nil, err
	}
	domains, err := workload.DimensionDomains(g, f)
	if err != nil {
		return nil, err
	}
	return &inputs{oracle: oracle,
		queries: &queryGen{rng: rand.New(rand.NewSource(seed)), f: f, domains: domains, seen: map[string]bool{}},
		txns:    &txnGen{rng: rand.New(rand.NewSource(seed ^ 0x5f0f05)), scale: scale, domains: domains}}, nil
}

// queryGen streams distinct queries (distinct on rewrite.CacheKey). Nothing
// about a query's cost is drawn at random. A block of the stream crosses
// every roll-up granularity (the GROUP BY subsets of the facet's dimensions)
// with every combination of filters on the small dimensions, four times
// over; one of the four copies also filters on the first dimension, whose
// domain is large (a country: the answer shrinks to a handful of rows), which
// is the share of queries workload.Generate filters there. The block is
// visited in a fixed scattered order, and each copy and each later block
// moves every filter constant one value along its dimension's sorted domain.
// The seed decides the dataset those constants select from, and the
// countries. A random draw of a few hundred queries (workload.Generate
// itself) moves every latency statistic by 10-20 % from seed to seed,
// because result sizes span three orders of magnitude.
type queryGen struct {
	rng     *rand.Rand
	f       *facet.Facet
	domains map[string][]rdf.Term
	seen    map[string]bool
	slot    int
}

// next returns the stream's next query; ok is false once a whole block has
// run out of distinct instances, which no workload comes near.
func (g *queryGen) next() (query string, ok bool) {
	nd := len(g.f.Dims)
	shapes := 1 << (2 * nd) // group mask x small-dimension filter mask x 2
	block := 4 * shapes / 2
	for dry := 0; dry < block; dry++ {
		at := g.slot * 97 % block // 97 is odd: a permutation of the block
		shape, copy := at%(shapes/2), at/(shapes/2)
		walk := 4*(g.slot/block) + copy
		g.slot++
		group, filter := facet.Mask(shape%(1<<nd)), facet.Mask(shape>>nd)<<1
		if copy == 3 {
			filter |= 1
		}
		q := g.f.View(group).AnalyticalQuery()
		for i, d := range g.f.Dims {
			if filter&(1<<i) == 0 {
				continue
			}
			dom := g.domains[d]
			val := dom[(walk+shape+i)%len(dom)]
			if i == 0 {
				val = dom[g.rng.Intn(len(dom))]
			}
			if _, numeric := algebra.NumericValue(val); numeric && (walk+shape)%2 == 1 {
				q.Where.Filters = append(q.Where.Filters, &sparql.BinaryExpr{Op: sparql.OpGe,
					Left: &sparql.VarExpr{Name: d}, Right: &sparql.TermExpr{Term: val}})
			} else {
				q.Where.Filters = append(q.Where.Filters, sparql.Eq(d, val))
			}
		}
		// A shape has finitely many distinct instances (one, without
		// filters); a repeat means this copy sits the block out.
		if key := rewrite.CacheKey(q); !g.seen[key] {
			g.seen[key] = true
			return q.String(), true
		}
	}
	return "", false
}

// take draws the stream's next n queries.
func (g *queryGen) take(n int) ([]string, error) {
	out := make([]string, 0, n)
	for len(out) < n {
		q, ok := g.next()
		if !ok {
			return nil, fmt.Errorf("only %d more distinct queries exist, need %d", len(out), n)
		}
		out = append(out, q)
	}
	return out, nil
}

// txnGen streams update transactions: each inserts obsPerTxn new
// observations for zipf-chosen existing countries and deletes the ones
// inserted deleteAfter transactions earlier.
type txnGen struct {
	rng     *rand.Rand
	scale   int
	domains map[string][]rdf.Term
	n       int
	recent  [deleteAfter][]rdf.Triple // inserts of the last transactions, by n % deleteAfter
}

func (g *txnGen) next() txn {
	zipf := rand.NewZipf(g.rng, 1.2, 1, uint64(g.scale-1))
	prop := func(local string) rdf.Term { return rdf.NewIRI(dbpProp + local) }
	langs, years := g.domains["lang"], g.domains["year"]
	t := txn{del: g.recent[g.n%deleteAfter]}
	for j := 0; j < obsPerTxn; j++ {
		obs := rdf.NewIRI(fmt.Sprintf("%sbenchobs%d_%d", dbpRes, g.n, j))
		country := rdf.NewIRI(fmt.Sprintf("%sCountry%d", dbpRes, zipf.Uint64()))
		t.ins = append(t.ins,
			rdf.Triple{S: obs, P: prop("country"), O: country},
			rdf.Triple{S: obs, P: prop("language"), O: langs[g.rng.Intn(len(langs))]},
			rdf.Triple{S: obs, P: prop("year"), O: years[g.rng.Intn(len(years))]},
			rdf.Triple{S: obs, P: prop("population"), O: rdf.NewInteger(int64(1+g.rng.Intn(90)) * 100_000)})
	}
	g.recent[g.n%deleteAfter] = t.ins
	g.n++
	return t
}

// take draws the stream's next n transactions.
func (g *txnGen) take(n int) []txn {
	out := make([]txn, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// applyTxns commits transactions to the oracle so it stays the model of
// what the server must hold after acknowledging them.
func (in *inputs) applyTxns(txns []txn) error {
	for _, t := range txns {
		if _, err := in.oracle.ApplyUpdate(t.ins, t.del); err != nil {
			return err
		}
	}
	return nil
}

// matches reports whether rows (rendered as the server renders them) equal
// the oracle's base-graph answer to the query, ignoring row order.
func (in *inputs) matches(query string, rows [][]string) (bool, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return false, err
	}
	res, err := in.oracle.Catalog.BaseEngine().Execute(q)
	if err != nil {
		return false, err
	}
	want := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		want[i] = cells
	}
	return sameRows(rows, want), nil
}

// sameRows compares two rendered result sets as multisets of rows.
func sameRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	canon := func(rows [][]string) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = strings.Join(r, "\x00")
		}
		sort.Strings(out)
		return out
	}
	ca, cb := canon(a), canon(b)
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}
