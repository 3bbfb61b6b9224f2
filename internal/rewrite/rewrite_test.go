package rewrite

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/obs"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
	"sofos/internal/views"
)

// fixture builds a population graph, facet, and catalog.
func fixture(t testing.TB, agg string) (*store.Graph, *facet.Facet, *views.Catalog) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var ts []rdf.Triple
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	for ci := 0; ci < 5; ci++ {
		for li := 0; li < 3; li++ {
			if (ci+li)%4 == 0 {
				continue
			}
			for yi := 0; yi < 3; yi++ {
				obs := ex(fmt.Sprintf("obs%d_%d_%d", ci, li, yi))
				ts = append(ts, rdf.Triple{S: obs, P: ex("country"), O: rdf.NewLiteral(fmt.Sprintf("C%d", ci))})
				ts = append(ts, rdf.Triple{S: obs, P: ex("lang"), O: rdf.NewLiteral(fmt.Sprintf("L%d", li))})
				ts = append(ts, rdf.Triple{S: obs, P: ex("year"), O: rdf.NewYear(2015 + yi)})
				ts = append(ts, rdf.Triple{S: obs, P: ex("pop"), O: rdf.NewInteger(int64(rng.Intn(500) + 1))})
			}
		}
	}
	g := store.NewGraph()
	if _, err := g.Apply(ts, nil); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(fmt.Sprintf(`PREFIX ex: <http://ex.org/>
SELECT ?country ?lang ?year (%s(?pop) AS ?a) WHERE {
  ?o ex:country ?country .
  ?o ex:lang ?lang .
  ?o ex:year ?year .
  ?o ex:pop ?pop .
} GROUP BY ?country ?lang ?year`, agg))
	f, err := facet.FromQuery("pop", q)
	if err != nil {
		t.Fatal(err)
	}
	return g, f, views.NewCatalog(g, f)
}

// facetQuery builds a query targeting the facet with given dims and filter.
func facetQuery(t testing.TB, agg string, dims []string, filter string) *sparql.Query {
	t.Helper()
	sel := ""
	groupBy := ""
	for _, d := range dims {
		sel += "?" + d + " "
	}
	if len(dims) > 0 {
		groupBy = " GROUP BY"
		for _, d := range dims {
			groupBy += " ?" + d
		}
	}
	if filter != "" {
		filter = "FILTER (" + filter + ")"
	}
	src := fmt.Sprintf(`PREFIX ex: <http://ex.org/>
SELECT %s(%s(?pop) AS ?a) WHERE {
  ?o ex:country ?country .
  ?o ex:lang ?lang .
  ?o ex:year ?year .
  ?o ex:pop ?pop .
  %s
}%s`, sel, agg, filter, groupBy)
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("facetQuery parse: %v\n%s", err, src)
	}
	return q
}

func TestAnswerFallsBackWithoutViews(t *testing.T) {
	_, _, c := fixture(t, "SUM")
	r := New(c)
	ans, err := r.Answer(facetQuery(t, "SUM", []string{"lang"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	if ans.UsedView() {
		t.Error("used a view with empty catalog")
	}
	if ans.Reason == "" || ans.ViaLabel() != "base" {
		t.Errorf("reason = %q, via = %q", ans.Reason, ans.ViaLabel())
	}
	if len(ans.Result.Rows) == 0 {
		t.Error("no result rows")
	}
}

// TestViewAnswersEqualBaseAnswers is the central correctness property of
// the whole system: for every aggregate kind, every materialized view, every
// query granularity it covers and every filter set on its dimensions, the
// answer served from the view's group table equals the paper's star join
// over V exactly, and both equal the base answer — also after an update
// whose base triples forge a group of the view in the sofos: vocabulary,
// which must stay base data.
func TestViewAnswersEqualBaseAnswers(t *testing.T) {
	filters := []string{"", `?year >= 2016`, `?lang = "L1"`, `?country = "C2" && ?year = 2015`, `?year > 3000`}
	for _, agg := range []string{"SUM", "COUNT", "AVG", "MIN", "MAX"} {
		t.Run(agg, func(t *testing.T) {
			for _, forged := range []bool{false, true} {
				_, f, c := fixture(t, agg)
				r := New(c)
				for vm := facet.Mask(0); vm <= f.FullMask(); vm++ {
					v := f.View(vm)
					c.Reset()
					if _, err := c.Materialize(v); err != nil {
						t.Fatal(err)
					}
					if forged {
						forgeGroup(t, c, v)
					}
					for sub := facet.Mask(0); sub <= vm; sub++ {
						if !sub.Subset(vm) {
							continue
						}
						for _, filter := range filters {
							q := facetQuery(t, agg, f.View(sub).Dims(), filter)
							if !queryDims(t, f, q).Subset(vm) {
								continue
							}
							label := fmt.Sprintf("forged=%v view %s dims %v filter %q", forged, v, f.View(sub).Dims(), filter)
							table := answerBothWays(t, r, q, label)
							base, err := c.BaseEngine().Execute(q)
							if err != nil {
								t.Fatal(err)
							}
							if !sameRows(sortedRows(table.Result), sortedRows(base), agg == "AVG") {
								t.Errorf("%s:\nview: %v\nbase: %v", label, sortedRows(table.Result), sortedRows(base))
							}
						}
					}
				}
			}
		})
	}
}

// queryDims is the set of facet dimensions q groups or filters by.
func queryDims(t *testing.T, f *facet.Facet, q *sparql.Query) facet.Mask {
	t.Helper()
	var m facet.Mask
	for _, v := range q.GroupBy {
		m |= 1 << f.DimIndex(v)
	}
	for _, fe := range q.Where.Filters {
		for _, v := range sparql.ExprVars(fe) {
			m |= 1 << f.DimIndex(v)
		}
	}
	return m
}

// answerBothWays answers q from the group table and by the star join over
// V, requires both to come from a view and to agree exactly — same view,
// outcome and translated query, and the same rows in the same order — and
// returns the table answer.
func answerBothWays(t *testing.T, r *Rewriter, q *sparql.Query, label string) *Answer {
	t.Helper()
	table, err := r.Answer(q)
	if err != nil {
		t.Fatalf("%s: Answer: %v", label, err)
	}
	star, err := r.AnswerStarJoin(q)
	if err != nil {
		t.Fatalf("%s: AnswerStarJoin: %v", label, err)
	}
	if !table.UsedView() || !star.UsedView() {
		t.Fatalf("%s: not answered from a view: %q / %q", label, table.Reason, star.Reason)
	}
	if table.Via != star.Via || table.Outcome != star.Outcome || table.Rewritten.String() != star.Rewritten.String() {
		t.Errorf("%s: table via %s (%s), star join via %s (%s)", label, table.ViaLabel(), table.Outcome, star.ViaLabel(), star.Outcome)
	}
	if len(q.OrderBy) > 0 {
		if got, want := rowStrings(table.Result), rowStrings(star.Result); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ordered rows differ\ntable:     %v\nstar join: %v", label, got, want)
		}
	} else if got, want := sortedRows(table.Result), sortedRows(star.Result); !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\ntable:     %v\nstar join: %v", label, got, want)
	}
	return table
}

// rowStrings renders a result's rows in order.
func rowStrings(res *engine.Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = fmt.Sprint(row)
	}
	return out
}

// forgeGroup commits, as an ordinary base update, triples that spell a new
// group of view v in the view-encoding vocabulary, then refreshes the views.
// The triples match no facet pattern, so neither the base answers nor the
// views may change.
func forgeGroup(t *testing.T, c *views.Catalog, v facet.View) {
	t.Helper()
	g := rdf.NewBlank("forged")
	p := func(iri string) rdf.Term { return rdf.NewIRI(iri) }
	big := rdf.NewInteger(1000000)
	forged := []rdf.Triple{
		{S: g, P: p(views.PredInView), O: p(v.IRI())},
		{S: g, P: p(views.PredAgg), O: big},
		{S: g, P: p(views.PredSum), O: big},
		{S: g, P: p(views.PredCount), O: rdf.NewInteger(1)},
	}
	for _, d := range v.Dims() {
		forged = append(forged, rdf.Triple{S: g, P: p(views.DimPredicate(d)), O: rdf.NewLiteral("forged-" + d)})
	}
	if _, err := c.ApplyUpdate(forged, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RefreshAllParallel(1); err != nil {
		t.Fatal(err)
	}
}

// sameRows compares canonical rows; for AVG, numeric comparison tolerates
// formatting differences.
func sameRows(a, b []string, numericTail bool) bool {
	if !numericTail {
		return reflect.DeepEqual(a, b)
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		var pa, pb string
		var va, vb float64
		if _, err := fmt.Sscanf(a[i], "%s \"%f\"", &pa, &va); err != nil {
			return false
		}
		if _, err := fmt.Sscanf(b[i], "%s \"%f\"", &pb, &vb); err != nil {
			return false
		}
		if pa != pb || va-vb > 1e-6 || vb-va > 1e-6 {
			return false
		}
	}
	return true
}

func TestAnswerWithFilters(t *testing.T) {
	_, f, c := fixture(t, "SUM")
	if _, err := c.Materialize(f.View(f.FullMask())); err != nil {
		t.Fatal(err)
	}
	r := New(c)
	cases := []struct {
		dims   []string
		filter string
	}{
		{[]string{"lang"}, `?year >= 2016`},
		{[]string{"country"}, `?lang = "L1"`},
		{[]string{"country", "lang"}, `?year = 2015 && ?lang != "L0"`},
		{nil, `?country = "C2"`},
	}
	for _, tc := range cases {
		q := facetQuery(t, "SUM", tc.dims, tc.filter)
		ans, err := r.Answer(q)
		if err != nil {
			t.Fatalf("Answer(%v, %q): %v", tc.dims, tc.filter, err)
		}
		if !ans.UsedView() {
			t.Fatalf("filtered query not view-answered: %s", ans.Reason)
		}
		base, err := c.BaseEngine().Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedRows(ans.Result), sortedRows(base)) {
			t.Errorf("dims %v filter %q:\nview: %v\nbase: %v", tc.dims, tc.filter, sortedRows(ans.Result), sortedRows(base))
		}
	}
}

func TestFilterDimNotInViewFallsBack(t *testing.T) {
	_, f, c := fixture(t, "SUM")
	// Only country+lang materialized; filter on year requires year dim.
	if _, err := c.Materialize(f.View(facet.Mask(0b11))); err != nil {
		t.Fatal(err)
	}
	r := New(c)
	q := facetQuery(t, "SUM", []string{"lang"}, "?year = 2016")
	ans, err := r.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.UsedView() {
		t.Error("view without filter dim was used")
	}
	// Without the filter, the view applies.
	ans, err = r.Answer(facetQuery(t, "SUM", []string{"lang"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	if !ans.UsedView() {
		t.Errorf("coverable query fell back: %s", ans.Reason)
	}
}

func TestChooseViewPrefersSmallest(t *testing.T) {
	_, f, c := fixture(t, "SUM")
	full, err := c.Materialize(f.View(f.FullMask()))
	if err != nil {
		t.Fatal(err)
	}
	small, err := c.Materialize(f.View(facet.Mask(0b10)))
	if err != nil {
		t.Fatal(err)
	}
	if small.Data.NumGroups() >= full.Data.NumGroups() {
		t.Fatalf("fixture broken: small view not smaller (%d vs %d)",
			small.Data.NumGroups(), full.Data.NumGroups())
	}
	r := New(c)
	got, ok := r.chooseView(facet.Mask(0b10), obs.SpanHandle{})
	if !ok || got.View().Mask != facet.Mask(0b10) {
		t.Errorf("ChooseView = %v, want the lang view", got.View())
	}
	// A query needing country can only use the full view.
	got, ok = r.chooseView(facet.Mask(0b1), obs.SpanHandle{})
	if !ok || got.View().Mask != f.FullMask() {
		t.Errorf("ChooseView(country) = %v", got.View())
	}
	// Nothing covers an impossible requirement when catalog lacks it.
	c.Drop(f.View(f.FullMask()))
	if _, ok := r.chooseView(facet.Mask(0b1), obs.SpanHandle{}); ok {
		t.Error("ChooseView found a view it should not")
	}
}

func TestAnswerWithValuesClause(t *testing.T) {
	_, f, c := fixture(t, "SUM")
	if _, err := c.Materialize(f.View(f.FullMask())); err != nil {
		t.Fatal(err)
	}
	r := New(c)
	src := `PREFIX ex: <http://ex.org/>
SELECT ?country (SUM(?pop) AS ?a) WHERE {
  ?o ex:country ?country .
  ?o ex:lang ?lang .
  ?o ex:year ?year .
  ?o ex:pop ?pop .
  VALUES ?lang { "L0" "L2" }
} GROUP BY ?country`
	q := sparql.MustParse(src)
	ans, err := r.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.UsedView() {
		t.Fatalf("VALUES query fell back: %s", ans.Reason)
	}
	base, err := c.BaseEngine().Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedRows(ans.Result), sortedRows(base)) {
		t.Errorf("VALUES rewrite diverges:\nview: %v\nbase: %v", sortedRows(ans.Result), sortedRows(base))
	}
	// The rewritten query must carry the VALUES clause.
	if !contains(ans.Rewritten.String(), "VALUES ?lang") {
		t.Errorf("rewritten query lost VALUES:\n%s", ans.Rewritten)
	}
	// A view lacking the VALUES dimension cannot answer.
	c.Reset()
	if _, err := c.Materialize(f.View(facet.Mask(0b1))); err != nil { // country only
		t.Fatal(err)
	}
	ans, err = r.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.UsedView() {
		t.Error("view without the VALUES dimension was used")
	}
}

func TestAnswerMismatchedQueries(t *testing.T) {
	_, f, c := fixture(t, "SUM")
	if _, err := c.Materialize(f.View(f.FullMask())); err != nil {
		t.Fatal(err)
	}
	r := New(c)
	cases := []struct {
		name string
		src  string
	}{
		{"different aggregate", `PREFIX ex: <http://ex.org/>
SELECT ?lang (MAX(?pop) AS ?a) WHERE { ?o ex:country ?country . ?o ex:lang ?lang . ?o ex:year ?year . ?o ex:pop ?pop . } GROUP BY ?lang`},
		{"different measure", `PREFIX ex: <http://ex.org/>
SELECT ?lang (SUM(?year) AS ?a) WHERE { ?o ex:country ?country . ?o ex:lang ?lang . ?o ex:year ?year . ?o ex:pop ?pop . } GROUP BY ?lang`},
		{"different pattern", `PREFIX ex: <http://ex.org/>
SELECT ?lang (SUM(?pop) AS ?a) WHERE { ?o ex:lang ?lang . ?o ex:pop ?pop . } GROUP BY ?lang`},
		{"two aggregates", `PREFIX ex: <http://ex.org/>
SELECT ?lang (SUM(?pop) AS ?a) (COUNT(?pop) AS ?n) WHERE { ?o ex:country ?country . ?o ex:lang ?lang . ?o ex:year ?year . ?o ex:pop ?pop . } GROUP BY ?lang`},
		{"filter on non-dimension", `PREFIX ex: <http://ex.org/>
SELECT ?lang (SUM(?pop) AS ?a) WHERE { ?o ex:country ?country . ?o ex:lang ?lang . ?o ex:year ?year . ?o ex:pop ?pop . FILTER(?o != ex:obs0_1_0) } GROUP BY ?lang`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := sparql.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			ans, err := r.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			if ans.UsedView() {
				t.Errorf("mismatched query answered from view")
			}
			if ans.Reason == "" {
				t.Error("no fallback reason recorded")
			}
		})
	}
}

func TestAnswerHavingOrderLimit(t *testing.T) {
	_, f, c := fixture(t, "SUM")
	if _, err := c.Materialize(f.View(f.FullMask())); err != nil {
		t.Fatal(err)
	}
	r := New(c)
	src := `PREFIX ex: <http://ex.org/>
SELECT ?lang (SUM(?pop) AS ?a) WHERE {
  ?o ex:country ?country . ?o ex:lang ?lang . ?o ex:year ?year . ?o ex:pop ?pop .
} GROUP BY ?lang HAVING (?a > 100) ORDER BY DESC(?a) LIMIT 2`
	q := sparql.MustParse(src)
	ans, err := r.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.UsedView() {
		t.Fatalf("fell back: %s", ans.Reason)
	}
	base, err := c.BaseEngine().Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	// Ordered comparison (not sorted): ORDER BY semantics must match.
	if len(ans.Result.Rows) != len(base.Rows) {
		t.Fatalf("row counts %d vs %d", len(ans.Result.Rows), len(base.Rows))
	}
	for i := range base.Rows {
		for j := range base.Rows[i] {
			if ans.Result.Rows[i][j].String() != base.Rows[i][j].String() {
				t.Errorf("row %d col %d: %s vs %s", i, j, ans.Result.Rows[i][j], base.Rows[i][j])
			}
		}
	}
}

func TestRewrittenQueryShape(t *testing.T) {
	_, f, c := fixture(t, "SUM")
	if _, err := c.Materialize(f.View(f.FullMask())); err != nil {
		t.Fatal(err)
	}
	r := New(c)
	ans, err := r.Answer(facetQuery(t, "SUM", []string{"lang"}, `?year = 2016`))
	if err != nil {
		t.Fatal(err)
	}
	if ans.Rewritten == nil {
		t.Fatal("no rewritten query recorded")
	}
	text := ans.Rewritten.String()
	for _, want := range []string{views.PredInView, views.DimPredicate("lang"), views.DimPredicate("year"), views.PredAgg, "GROUP BY ?lang"} {
		if !contains(text, want) {
			t.Errorf("rewritten query missing %q:\n%s", want, text)
		}
	}
	// The rewritten query must not scan the original facet pattern.
	if contains(text, "ex:country") || contains(text, "http://ex.org/country>") {
		t.Errorf("rewritten query still touches base predicates:\n%s", text)
	}
	// Must itself be parseable.
	if _, err := sparql.Parse(text); err != nil {
		t.Errorf("rewritten query does not re-parse: %v", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(len(s) > 0 && indexOf(s, sub) >= 0))
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestAnswerUsesFewerScansThanBase(t *testing.T) {
	// The point of materialization: answering from a small view touches far
	// fewer intermediate bindings than the base computation.
	_, f, c := fixture(t, "SUM")
	if _, err := c.Materialize(f.View(facet.Mask(0b10))); err != nil {
		t.Fatal(err)
	}
	r := New(c)
	q := facetQuery(t, "SUM", []string{"lang"}, "")
	ans, err := r.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.BaseEngine().Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.UsedView() {
		t.Fatalf("fell back: %s", ans.Reason)
	}
	if ans.Result.Stats.IntermediateRows >= base.Stats.IntermediateRows {
		t.Errorf("view scan rows %d >= base %d",
			ans.Result.Stats.IntermediateRows, base.Stats.IntermediateRows)
	}
}

// sortedRows renders the rows and sorts them: a canonical form for
// comparing results.
func sortedRows(r *engine.Result) []string {
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "\t"))
	}
	sort.Strings(out)
	return out
}
