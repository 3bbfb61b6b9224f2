package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sofos/internal/api"
	"sofos/internal/obs"
)

// fetchMetrics scrapes /v1/metrics, returning an error instead of failing
// the test — safe to call from the storm test's goroutines.
func fetchMetrics(base string) (string, error) {
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("/v1/metrics returned status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// postJSONErr is postJSON for goroutines: errors are returned, not fatal.
func postJSONErr(url string, in, out any) (int, error) {
	raw, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// scrapeMetrics fetches /v1/metrics and returns the exposition text.
func scrapeMetrics(t testing.TB, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/metrics returned status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/v1/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// decodeJSON decodes one JSON body.
func decodeJSON(r io.Reader, out any) error {
	return json.NewDecoder(r).Decode(out)
}

// metricValue extracts one sample from an exposition: the value of the first
// line whose name matches and whose label section contains labelSub ("" = any
// labels, including none). Returns 0, false when no line matches.
func metricValue(body, name, labelSub string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue // longer name sharing the prefix
		}
		if labelSub != "" && !strings.Contains(rest, labelSub) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// outcomeCount reads sofos_query_total for one outcome (0 when unsampled).
func outcomeCount(body, outcome string) float64 {
	v, _ := metricValue(body, "sofos_query_total", `outcome="`+outcome+`"`)
	return v
}

// TestMetricsFamiliesAndOutcomes drives each rewrite outcome through the
// server and asserts the scrape shows the required families with counts that
// reconcile exactly against /v1/debug/queries — the acceptance criterion the
// CI smoke run re-checks end to end.
func TestMetricsFamiliesAndOutcomes(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var act api.ViewsActionResponse
	if code := postJSON(t, ts.URL+"/v1/views", api.ViewsRequest{Action: "materialize", View: "country"}, &act); code != http.StatusOK {
		t.Fatalf("materialize returned status %d", code)
	}

	// country → view hit (stored granularity equals the GROUP BY); apex →
	// partial roll-up (re-aggregated from the finer country view); repeats →
	// cache hits.
	if out := query(t, ts, countryQuery); out.Outcome != obs.OutcomeViewHit {
		t.Fatalf("country query outcome %q, want %q", out.Outcome, obs.OutcomeViewHit)
	}
	if out := query(t, ts, apexQuery); out.Outcome != obs.OutcomePartialRollup {
		t.Fatalf("apex query outcome %q, want %q", out.Outcome, obs.OutcomePartialRollup)
	}
	if out := query(t, ts, countryQuery); out.Outcome != obs.OutcomeViewHit {
		t.Fatalf("cached country query outcome %q, want %q", out.Outcome, obs.OutcomeViewHit)
	}
	query(t, ts, apexQuery)

	body := scrapeMetrics(t, ts)
	for _, family := range []string{
		"sofos_query_total", "sofos_query_seconds", "sofos_http_requests_total",
		"sofos_http_request_seconds", "sofos_cache_hits_total", "sofos_cache_misses_total",
		"sofos_generation", "sofos_graph_version", "sofos_inflight_queries",
		"sofos_goroutines", "sofos_heap_alloc_bytes", "sofos_view_hits_total",
		"sofos_view_groups", "sofos_view_staleness_generations",
		"sofos_checkpoint_age_seconds", "sofos_store_index_bytes",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("scrape is missing family %s", family)
		}
	}

	if got := outcomeCount(body, obs.OutcomeViewHit); got != 1 {
		t.Errorf("view_hit count = %v, want 1", got)
	}
	if got := outcomeCount(body, obs.OutcomePartialRollup); got != 1 {
		t.Errorf("partial_rollup count = %v, want 1", got)
	}
	if got := outcomeCount(body, obs.OutcomeCacheHit); got != 2 {
		t.Errorf("cache_hit count = %v, want 2", got)
	}
	if got := outcomeCount(body, obs.OutcomeFullScan); got != 0 {
		t.Errorf("full_scan count = %v, want 0", got)
	}
	if v, ok := metricValue(body, "sofos_view_hits_total", `view="country"`); !ok || v != 2 {
		t.Errorf("sofos_view_hits_total{view=country} = %v (present %v), want 2", v, ok)
	}
	// Memory-only server: checkpoint age advertises the "none" sentinel.
	if v, _ := metricValue(body, "sofos_checkpoint_age_seconds", ""); v != -1 {
		t.Errorf("memory-only checkpoint age = %v, want -1", v)
	}

	// Every query answered has a ring record, and per-outcome ring counts
	// equal the scraped counters exactly — same label strings, same events.
	var dbg api.DebugQueriesResponse
	if code := getJSON(t, ts.URL+"/v1/debug/queries", &dbg); code != http.StatusOK {
		t.Fatalf("/v1/debug/queries returned status %d", code)
	}
	if dbg.Total != 4 || len(dbg.Entries) != 4 {
		t.Fatalf("debug queries total %d entries %d, want 4/4", dbg.Total, len(dbg.Entries))
	}
	byOutcome := map[string]float64{}
	for _, e := range dbg.Entries {
		byOutcome[e.Outcome]++
		if e.TraceID == "" {
			t.Errorf("ring entry for %q has no trace id", e.Query)
		}
	}
	for _, out := range queryOutcomes {
		if got := outcomeCount(body, out); got != byOutcome[out] {
			t.Errorf("outcome %s: counter %v vs ring %v", out, got, byOutcome[out])
		}
	}
}

// TestQueryTrace asserts the ?trace=1 surface: the span tree in the body,
// the echoed trace id header, caller-supplied id propagation, and that traced
// requests bypass the cache in both directions.
func TestQueryTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Warm the cache with an untraced request.
	query(t, ts, apexQuery)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query?trace=1",
		jsonBody(api.QueryRequest{Query: apexQuery}))
	req.Header.Set(api.HeaderTraceID, "cafe0123cafe0123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced query returned status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(api.HeaderTraceID); got != "cafe0123cafe0123" {
		t.Fatalf("trace id header = %q, want the caller-supplied id", got)
	}
	var out api.QueryResponse
	if err := decodeJSON(resp.Body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Fatal("traced request was served from the cache")
	}
	if out.TraceID != "cafe0123cafe0123" {
		t.Fatalf("body trace id = %q", out.TraceID)
	}
	if len(out.Trace) == 0 {
		t.Fatal("traced response has no spans")
	}
	names := map[string]bool{}
	for _, sp := range out.Trace {
		names[sp.Name] = true
		if sp.DurUS < 0 {
			t.Errorf("span %s was never closed", sp.Name)
		}
		if sp.Parent >= 0 {
			p := out.Trace[sp.Parent]
			if sp.StartUS < p.StartUS {
				t.Errorf("span %s starts before its parent %s", sp.Name, p.Name)
			}
		}
	}
	for _, want := range []string{"query", "admission.wait", "engine.execute", "engine.compile", "render"} {
		if !names[want] {
			t.Errorf("trace is missing span %q (got %v)", want, names)
		}
	}
	if out.Trace[0].Name != "query" || out.Trace[0].Parent != -1 {
		t.Errorf("first span is %s (parent %d), want the query root", out.Trace[0].Name, out.Trace[0].Parent)
	}

	// The traced body must not have been cached: an untraced repeat is a
	// cache hit of the original untraced body, spanless and trace-id-free.
	repeat := query(t, ts, apexQuery)
	if !repeat.Cached || repeat.TraceID != "" || len(repeat.Trace) != 0 {
		t.Fatalf("untraced repeat: cached=%v trace_id=%q spans=%d, want a clean cached body",
			repeat.Cached, repeat.TraceID, len(repeat.Trace))
	}
}

// TestObsOff asserts the -obs=off surface: queries still work, no trace
// machinery runs, and the observability endpoints answer 503.
func TestObsOff(t *testing.T) {
	_, ts := newTestServer(t, Config{ObsOff: true})

	resp, err := http.Post(ts.URL+"/v1/query?trace=1", "application/json",
		jsonBody(api.QueryRequest{Query: apexQuery}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query with obs off returned status %d", resp.StatusCode)
	}
	if id := resp.Header.Get(api.HeaderTraceID); id != "" {
		t.Fatalf("obs-off response carries trace id %q", id)
	}
	var out api.QueryResponse
	if err := decodeJSON(resp.Body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Trace) != 0 || out.TraceID != "" {
		t.Fatal("obs-off response carries trace data")
	}

	var env api.ErrorResponse
	if code := getJSON(t, ts.URL+"/v1/metrics", &env); code != http.StatusServiceUnavailable || env.Error.Code != api.CodeUnavailable {
		t.Fatalf("/v1/metrics with obs off: status %d code %q", code, env.Error.Code)
	}
	if code := getJSON(t, ts.URL+"/v1/debug/queries", &env); code != http.StatusServiceUnavailable {
		t.Fatalf("/v1/debug/queries with obs off: status %d", code)
	}
}

// TestHealthzObservability asserts the /healthz additions: the memory-only
// sentinel for checkpoint age, and live wal_bytes on a durable server (the
// durable case shares the fixture with durability_test).
func TestHealthzObservability(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var h api.HealthResponse
	if code := getJSON(t, ts.URL+"/v1/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz returned status %d", code)
	}
	if h.CheckpointAgeS != -1 {
		t.Errorf("memory-only checkpoint_age_s = %v, want -1", h.CheckpointAgeS)
	}
	if h.WALBytes != 0 {
		t.Errorf("memory-only wal_bytes = %d, want 0", h.WALBytes)
	}
}

// TestDebugQueriesLimit asserts the ring listing is newest-first and honors
// ?limit.
func TestDebugQueriesLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1})
	query(t, ts, apexQuery)
	query(t, ts, countryQuery)
	var dbg api.DebugQueriesResponse
	if code := getJSON(t, ts.URL+"/v1/debug/queries?limit=1", &dbg); code != http.StatusOK {
		t.Fatalf("debug queries returned status %d", code)
	}
	if dbg.Total != 2 || len(dbg.Entries) != 1 {
		t.Fatalf("total %d entries %d, want total 2, 1 entry", dbg.Total, len(dbg.Entries))
	}
	if dbg.Entries[0].Query != countryQuery {
		t.Fatalf("newest entry is %q, want the country query", dbg.Entries[0].Query)
	}
}

// TestMetricsDuringWriterStorm hammers /v1/metrics and /v1/debug/queries
// while eager multi-statement transactions and queries run full tilt,
// asserting under -race that scrapes always succeed (they must never block
// on the chain writer mutex or the admission semaphore) and that
// sofos_query_total is monotonic across scrapes.
func TestMetricsDuringWriterStorm(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 8})
	var act api.ViewsActionResponse
	if code := postJSON(t, ts.URL+"/v1/views", api.ViewsRequest{Action: "materialize", View: "country"}, &act); code != http.StatusOK {
		t.Fatalf("materialize returned status %d", code)
	}

	const writerRounds = 10
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 64)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	// Writer: eager multi-statement transactions, each refreshing the view
	// inside the commit — the heaviest write path the server has.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < writerRounds; i++ {
			stmts := []api.UpdateStatement{
				{Insert: fmt.Sprintf("<http://ex.org/storm%d> <http://ex.org/country> \"C0\" .\n<http://ex.org/storm%d> <http://ex.org/lang> \"L0\" .\n<http://ex.org/storm%d> <http://ex.org/year> \"2015\"^^<http://www.w3.org/2001/XMLSchema#gYear> .\n<http://ex.org/storm%d> <http://ex.org/pop> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .", i, i, i, i)},
				{Insert: fmt.Sprintf("<http://ex.org/storm%d_b> <http://ex.org/pop> \"7\"^^<http://www.w3.org/2001/XMLSchema#integer> .", i)},
			}
			var resp api.UpdateResponse
			code, err := postJSONErr(ts.URL+"/v1/update",
				api.UpdateRequest{Statements: stmts, Maintain: "eager"}, &resp)
			if err != nil || code != http.StatusOK {
				report(fmt.Errorf("update round %d: status %d err %v", i, code, err))
				return
			}
		}
	}()

	// Readers: keep queries flowing so counters move while scrapes run.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := apexQuery
				if (i+r)%2 == 1 {
					q = countryQuery
				}
				var out api.QueryResponse
				code, err := postJSONErr(ts.URL+"/v1/query", api.QueryRequest{Query: q}, &out)
				if err != nil || code != http.StatusOK {
					report(fmt.Errorf("query: status %d err %v", code, err))
					return
				}
			}
		}(r)
	}

	// Scrapers: hammer both observability endpoints, checking monotonicity.
	for sc := 0; sc < 2; sc++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				body, err := fetchMetrics(ts.URL)
				if err != nil {
					report(fmt.Errorf("scrape: %w", err))
					return
				}
				total := 0.0
				for _, out := range queryOutcomes {
					total += outcomeCount(body, out)
				}
				if total < last {
					report(fmt.Errorf("sofos_query_total went backwards: %v after %v", total, last))
					return
				}
				last = total
				resp, err := http.Get(ts.URL + "/v1/debug/queries?limit=8")
				if err != nil {
					report(fmt.Errorf("debug queries: %w", err))
					return
				}
				var dbg api.DebugQueriesResponse
				err = decodeJSON(resp.Body, &dbg)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					report(fmt.Errorf("debug queries: status %d err %v", resp.StatusCode, err))
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Quiesced: the counters and the ring agree on the total query count.
	body := scrapeMetrics(t, ts)
	total := 0.0
	for _, out := range queryOutcomes {
		total += outcomeCount(body, out)
	}
	var dbg api.DebugQueriesResponse
	getJSON(t, ts.URL+"/v1/debug/queries", &dbg)
	if float64(dbg.Total) != total {
		t.Errorf("quiesced: ring total %d vs counter total %v", dbg.Total, total)
	}
}
