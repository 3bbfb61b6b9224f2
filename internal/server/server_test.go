package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"sofos/internal/api"
	"sofos/internal/core"
	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

// prefix is shared by every test query.
const prefix = "PREFIX ex: <http://ex.org/>\n"

// apexQuery sums the measure over the whole facet population.
const apexQuery = prefix + `SELECT (SUM(?pop) AS ?a) WHERE {
  ?o ex:country ?country .
  ?o ex:lang ?lang .
  ?o ex:year ?year .
  ?o ex:pop ?pop .
}`

// countryQuery groups the measure by country.
const countryQuery = prefix + `SELECT ?country (SUM(?pop) AS ?a) WHERE {
  ?o ex:country ?country .
  ?o ex:lang ?lang .
  ?o ex:year ?year .
  ?o ex:pop ?pop .
} GROUP BY ?country`

// newSystem builds the population fixture: observations with country, lang,
// year dimensions and an integer pop measure under a SUM facet.
func newSystem(t testing.TB) *core.System {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	g := store.NewGraph()
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	for ci := 0; ci < 4; ci++ {
		for li := 0; li < 3; li++ {
			for yi := 0; yi < 2; yi++ {
				obs := ex(fmt.Sprintf("obs%d_%d_%d", ci, li, yi))
				g.MustAdd(rdf.Triple{S: obs, P: ex("country"), O: rdf.NewLiteral(fmt.Sprintf("C%d", ci))})
				g.MustAdd(rdf.Triple{S: obs, P: ex("lang"), O: rdf.NewLiteral(fmt.Sprintf("L%d", li))})
				g.MustAdd(rdf.Triple{S: obs, P: ex("year"), O: rdf.NewYear(2015 + yi)})
				g.MustAdd(rdf.Triple{S: obs, P: ex("pop"), O: rdf.NewInteger(int64(rng.Intn(500) + 1))})
			}
		}
	}
	q := sparql.MustParse(prefix + `SELECT ?country ?lang ?year (SUM(?pop) AS ?a) WHERE {
  ?o ex:country ?country .
  ?o ex:lang ?lang .
  ?o ex:year ?year .
  ?o ex:pop ?pop .
} GROUP BY ?country ?lang ?year`)
	f, err := facet.FromQuery("pop", q)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewWithOptions(g, f, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// newTestServer wraps a fixture system in an httptest server.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(newSystem(t), cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// jsonBody marshals v into a request body reader.
func jsonBody(v any) *bytes.Reader {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return bytes.NewReader(b)
}

// postJSON posts v as JSON and decodes the response into out, returning the
// status code.
func postJSON(t testing.TB, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// getJSON GETs url and decodes the response, returning the status code.
func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// query posts a query and requires a 200 answer.
func query(t testing.TB, ts *httptest.Server, q string) api.QueryResponse {
	t.Helper()
	var out api.QueryResponse
	if code := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{Query: q}, &out); code != http.StatusOK {
		t.Fatalf("query returned status %d", code)
	}
	return out
}

// parseNum extracts the numeric lexical value of a rendered literal cell.
// Safe to call off the test goroutine.
func parseNum(cell string) (float64, error) {
	if !strings.HasPrefix(cell, `"`) {
		return 0, fmt.Errorf("cell %q is not a literal", cell)
	}
	end := strings.Index(cell[1:], `"`)
	if end < 0 {
		return 0, fmt.Errorf("cell %q has no closing quote", cell)
	}
	v, err := strconv.ParseFloat(cell[1:1+end], 64)
	if err != nil {
		return 0, fmt.Errorf("cell %q is not numeric: %w", cell, err)
	}
	return v, nil
}

// numCell is parseNum failing the test on malformed cells.
func numCell(t testing.TB, cell string) float64 {
	t.Helper()
	v, err := parseNum(cell)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// obsTriples renders the N-Triples block for one fresh observation.
func obsTriples(id string, pop int) string {
	return fmt.Sprintf(`<http://ex.org/%s> <http://ex.org/country> "C0" .
<http://ex.org/%s> <http://ex.org/lang> "L0" .
<http://ex.org/%s> <http://ex.org/year> "2015"^^<http://www.w3.org/2001/XMLSchema#gYear> .
<http://ex.org/%s> <http://ex.org/pop> "%d"^^<http://www.w3.org/2001/XMLSchema#integer> .
`, id, id, id, id, pop)
}

func TestQueryGetAndPost(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := query(t, ts, countryQuery)
	if post.Via != "base" {
		t.Fatalf("expected base answering with no views, got %q", post.Via)
	}
	if len(post.Rows) != 4 {
		t.Fatalf("expected 4 country rows, got %d", len(post.Rows))
	}
	var get api.QueryResponse
	u := ts.URL + "/v1/query?q=" + strings.ReplaceAll(strings.ReplaceAll(countryQuery, "\n", "%0A"), " ", "+")
	if code := getJSON(t, u, &get); code != http.StatusOK {
		t.Fatalf("GET query returned status %d", code)
	}
	// GET hits the entry POST populated: same normalized query, same state.
	if !get.Cached {
		t.Error("expected the GET to be served from cache")
	}
	if fmt.Sprint(get.Rows) != fmt.Sprint(post.Rows) {
		t.Errorf("GET and POST rows differ:\n%v\n%v", get.Rows, post.Rows)
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var e api.ErrorResponse
	if code := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{Query: "SELECT nonsense"}, &e); code != http.StatusBadRequest {
		t.Errorf("parse error: expected 400, got %d", code)
	}
	if e.Error.Message == "" || e.Error.Code == "" {
		t.Error("parse error: expected an error message")
	}
	if code := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty query: expected 400, got %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/update", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty update: expected 400, got %d", resp.StatusCode)
	}
}

// TestUnversionedPathsAreNotFound pins /v1 as the only route tree: the
// unversioned spellings of every endpoint answer 404, and a write sent to
// one applies nothing.
func TestUnversionedPathsAreNotFound(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	before := srv.System().Generation()
	for _, path := range []string{"/query", "/update", "/views", "/stats", "/healthz", "/admin/checkpoint"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	if code := postJSON(t, ts.URL+"/update", api.UpdateRequest{Insert: obsTriples("unversioned", 1)}, nil); code != http.StatusNotFound {
		t.Errorf("POST /update: status %d, want 404", code)
	}
	if got := srv.System().Generation(); got != before {
		t.Errorf("generation %d after a 404 update, want %d", got, before)
	}
}

// TestCacheFreshnessAfterUpdate is the zero-stale-answers property: a write
// must invalidate every affected cache entry, so a repeated query after an
// update returns the updated answer, not the cached one.
func TestCacheFreshnessAfterUpdate(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	first := query(t, ts, apexQuery)
	if first.Cached {
		t.Fatal("first answer cannot be cached")
	}
	again := query(t, ts, apexQuery)
	if !again.Cached {
		t.Fatal("repeated query should be served from cache")
	}
	sum0 := numCell(t, first.Rows[0][0])

	var up api.UpdateResponse
	if code := postJSON(t, ts.URL+"/v1/update", api.UpdateRequest{Insert: obsTriples("fresh1", 1000)}, &up); code != http.StatusOK {
		t.Fatalf("update returned status %d", code)
	}
	if up.Inserted != 4 {
		t.Fatalf("expected 4 inserted triples, got %d", up.Inserted)
	}

	after := query(t, ts, apexQuery)
	if after.Cached {
		t.Fatal("post-update query must not be served from the stale cache entry")
	}
	if got, want := numCell(t, after.Rows[0][0]), sum0+1000; got != want {
		t.Fatalf("post-update sum = %v, want %v", got, want)
	}
	if after.Generation <= first.Generation {
		t.Fatalf("generation did not advance: %d -> %d", first.Generation, after.Generation)
	}
	cached := query(t, ts, apexQuery)
	if !cached.Cached {
		t.Error("second post-update query should hit the cache")
	}
	if numCell(t, cached.Rows[0][0]) != sum0+1000 {
		t.Error("cached post-update answer is stale")
	}
	st := srv.cache.stats()
	if st.Hits < 2 || st.Misses < 2 {
		t.Errorf("unexpected cache stats: %+v", st)
	}
}

func TestViewsLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var act api.ViewsActionResponse
	if code := postJSON(t, ts.URL+"/v1/views", api.ViewsRequest{Action: "materialize", View: "country"}, &act); code != http.StatusOK {
		t.Fatalf("materialize returned status %d", code)
	}
	if len(act.Views) != 1 || act.Views[0] != "country" {
		t.Fatalf("materialize acted on %v", act.Views)
	}

	ans := query(t, ts, countryQuery)
	if ans.Via != "country" {
		t.Fatalf("expected the country view to answer, got %q (reason %q)", ans.Via, ans.Reason)
	}

	if code := postJSON(t, ts.URL+"/v1/update", api.UpdateRequest{Insert: obsTriples("fresh2", 50)}, nil); code != http.StatusOK {
		t.Fatalf("update returned status %d", code)
	}
	var list api.ViewsResponse
	if code := getJSON(t, ts.URL+"/v1/views", &list); code != http.StatusOK {
		t.Fatalf("list returned status %d", code)
	}
	if len(list.Materialized) != 1 || !list.Materialized[0].Stale {
		t.Fatalf("expected one stale view, got %+v", list.Materialized)
	}

	if code := postJSON(t, ts.URL+"/v1/views", api.ViewsRequest{Action: "refresh"}, &act); code != http.StatusOK {
		t.Fatalf("refresh returned status %d", code)
	}
	if act.Refreshed != 1 {
		t.Fatalf("expected 1 refreshed view, got %d", act.Refreshed)
	}
	// The refreshed view must serve the updated aggregate.
	ans = query(t, ts, countryQuery)
	if ans.Via != "country" {
		t.Fatalf("expected the refreshed view to answer, got %q", ans.Via)
	}

	if code := postJSON(t, ts.URL+"/v1/views", api.ViewsRequest{Action: "drop", View: "country"}, &act); code != http.StatusOK {
		t.Fatalf("drop returned status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/views", api.ViewsRequest{Action: "drop", View: "country"}, nil); code != http.StatusNotFound {
		t.Fatalf("double drop: expected 404, got %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/views", api.ViewsRequest{Action: "reset"}, &act); code != http.StatusOK {
		t.Fatalf("reset returned status %d", code)
	}
}

func TestMaterializeBySelection(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var act api.ViewsActionResponse
	if code := postJSON(t, ts.URL+"/v1/views", api.ViewsRequest{Action: "materialize", Model: "aggvalues", K: 2}, &act); code != http.StatusOK {
		t.Fatalf("materialize by model returned status %d", code)
	}
	if len(act.Views) == 0 {
		t.Fatal("expected the selection to materialize at least one view")
	}
	var list api.ViewsResponse
	getJSON(t, ts.URL+"/v1/views", &list)
	if len(list.Materialized) != len(act.Views) {
		t.Fatalf("listed %d views, acted on %d", len(list.Materialized), len(act.Views))
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	query(t, ts, apexQuery)
	query(t, ts, apexQuery)
	var st api.StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats returned status %d", code)
	}
	if st.Queries != 2 {
		t.Errorf("stats.Queries = %d, want 2", st.Queries)
	}
	if st.BaseTriples == 0 || st.Facet != "pop" || st.Workers != 2 {
		t.Errorf("unexpected stats: %+v", st)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", st.Cache)
	}
	if st.ExpandedTriples != st.BaseTriples || st.Amplification != 1 {
		t.Errorf("no views: expanded_triples = %d, amplification = %v; want %d, 1",
			st.ExpandedTriples, st.Amplification, st.BaseTriples)
	}
	// With views, expanded_triples is |G+| = |G| + Σ view triples, and the
	// amplification is |G+| / |G| — the fixture's country view adds 4 groups
	// of 3 triples to 96 base triples.
	if code := postJSON(t, ts.URL+"/v1/views", api.ViewsRequest{Action: "materialize", View: "country"}, nil); code != http.StatusOK {
		t.Fatalf("materialize returned status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats returned status %d", code)
	}
	viewTriples := 0
	for _, m := range srv.System().Catalog.Materialized() {
		viewTriples += m.Triples
	}
	if st.ExpandedTriples != st.BaseTriples+viewTriples {
		t.Errorf("expanded_triples = %d, want base %d + view %d", st.ExpandedTriples, st.BaseTriples, viewTriples)
	}
	if st.BaseTriples != 96 || viewTriples != 12 || st.Amplification != 1.125 {
		t.Errorf("base = %d, view triples = %d, amplification = %v; want 96, 12, 1.125",
			st.BaseTriples, viewTriples, st.Amplification)
	}
	var h api.HealthResponse
	if code := getJSON(t, ts.URL+"/v1/healthz", &h); code != http.StatusOK || !h.OK {
		t.Errorf("healthz = %+v (status %d)", h, code)
	}
	if h.Role != RolePrimary || h.Generation != st.Generation {
		t.Errorf("healthz role/generation = %+v, want primary at generation %d", h, st.Generation)
	}
}

func TestUpdateDelete(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	before := numCell(t, query(t, ts, apexQuery).Rows[0][0])
	block := obsTriples("fresh3", 77)
	var up api.UpdateResponse
	postJSON(t, ts.URL+"/v1/update", api.UpdateRequest{Insert: block}, &up)
	if got := numCell(t, query(t, ts, apexQuery).Rows[0][0]); got != before+77 {
		t.Fatalf("after insert sum = %v, want %v", got, before+77)
	}
	if code := postJSON(t, ts.URL+"/v1/update", api.UpdateRequest{Delete: block}, &up); code != http.StatusOK {
		t.Fatalf("delete returned status %d", code)
	}
	if up.Deleted != 4 {
		t.Fatalf("expected 4 deleted triples, got %d", up.Deleted)
	}
	if got := numCell(t, query(t, ts, apexQuery).Rows[0][0]); got != before {
		t.Fatalf("after delete sum = %v, want %v", got, before)
	}
}

// TestUpdateAtomicOnError: /update is documented as all-or-nothing, so a
// batch that fails for any reason — here a parse error in the delete block,
// submitted alongside a perfectly valid insert block — must leave the graph
// untouched: no triples applied, generation unchanged, answers unchanged.
func TestUpdateAtomicOnError(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	before := query(t, ts, apexQuery)
	gen0 := srv.System().Generation()
	triples0 := srv.System().Graph.Len()

	var e api.ErrorResponse
	code := postJSON(t, ts.URL+"/v1/update", api.UpdateRequest{
		Insert: obsTriples("freshAtomic", 500),
		Delete: "<http://ex.org/x> <http://ex.org/y> not-a-term",
	}, &e)
	if code != http.StatusBadRequest {
		t.Fatalf("bad batch: expected 400, got %d", code)
	}
	if e.Error.Message == "" || e.Error.Code == "" {
		t.Error("bad batch: expected an error message")
	}
	if got := srv.System().Graph.Len(); got != triples0 {
		t.Errorf("failed batch mutated the graph: %d -> %d triples", triples0, got)
	}
	if got := srv.System().Generation(); got != gen0 {
		t.Errorf("failed batch advanced the generation: %d -> %d", gen0, got)
	}
	after := query(t, ts, apexQuery)
	if numCell(t, after.Rows[0][0]) != numCell(t, before.Rows[0][0]) {
		t.Error("failed batch changed the apex aggregate")
	}
}

// TestCacheDisabled covers the negative-capacity escape hatch.
func TestCacheDisabled(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheEntries: -1})
	if srv.cache != nil {
		t.Fatal("cache should be disabled")
	}
	query(t, ts, apexQuery)
	r := query(t, ts, apexQuery)
	if r.Cached {
		t.Fatal("no response can be cached with the cache disabled")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(numCacheShards, 0) // one entry per shard
	for i := 0; i < 10*numCacheShards; i++ {
		c.put(0, fmt.Sprintf("key-%d", i), []byte("{}"))
	}
	st := c.stats()
	if st.Entries > numCacheShards {
		t.Fatalf("cache holds %d entries, cap is %d", st.Entries, numCacheShards)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions")
	}
}
