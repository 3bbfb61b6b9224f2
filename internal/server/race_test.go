package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"sofos/internal/api"
)

// renderKey flattens a response's rows for bit-identical comparison across
// concurrent observations of the same generation.
func renderKey(rows [][]string) string {
	return fmt.Sprintf("%q", rows)
}

// TestServeWhileRefresh hammers /query from many clients while a writer
// applies update batches and refreshes the materialized views, asserting
// under -race that every response is well-formed and equal to the answer at
// SOME committed catalog state: the returned sum must be one of the prefix
// sums the writer produced (an answer from a not-yet-refreshed view equals
// an earlier committed state, which is still consistent — SOFOS refreshes
// views on demand, not on write).
func TestServeWhileRefresh(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 8})

	// Materialize views so queries are answered through the rewriter and
	// refresh has real work: country answers countryQuery, and the apex
	// roll-up path exercises re-aggregation.
	var act api.ViewsActionResponse
	if code := postJSON(t, ts.URL+"/v1/views", api.ViewsRequest{Action: "materialize", View: "country"}, &act); code != http.StatusOK {
		t.Fatalf("materialize returned status %d", code)
	}

	const rounds = 12
	const popPerRound = 1_000_000 // dwarfs base pops so each state is distinct

	// validSums[i] is the apex sum after i committed update batches. Batches
	// commit atomically under the server's write lock, so no other sums can
	// ever be observed.
	base := numCell(t, query(t, ts, apexQuery).Rows[0][0])
	validSums := make(map[float64]bool, rounds+1)
	sum := base
	validSums[sum] = true
	for i := 0; i < rounds; i++ {
		sum += popPerRound
		validSums[sum] = true
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 64)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	// Readers: alternate the apex and per-country queries until told to stop.
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := apexQuery
				if i%2 == 1 {
					q = countryQuery
				}
				resp, err := client.Post(ts.URL+"/v1/query", "application/json",
					jsonBody(api.QueryRequest{Query: q}))
				if err != nil {
					report(fmt.Errorf("reader %d: %v", r, err))
					return
				}
				var out api.QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					report(fmt.Errorf("reader %d: malformed JSON: %v", r, err))
					return
				}
				if resp.StatusCode != http.StatusOK {
					report(fmt.Errorf("reader %d: status %d", r, resp.StatusCode))
					return
				}
				if q == apexQuery {
					if len(out.Rows) != 1 || len(out.Rows[0]) != 1 {
						report(fmt.Errorf("reader %d: apex shape %v", r, out.Rows))
						return
					}
					got, err := parseNum(out.Rows[0][0])
					if err != nil {
						report(fmt.Errorf("reader %d: %v", r, err))
						return
					}
					if !validSums[got] {
						report(fmt.Errorf("reader %d: sum %v matches no committed catalog state", r, got))
						return
					}
				}
			}
		}(r)
	}

	// Writer: insert a batch, then refresh, every round.
	for i := 0; i < rounds; i++ {
		var up api.UpdateResponse
		if code := postJSON(t, ts.URL+"/v1/update",
			api.UpdateRequest{Insert: obsTriples(fmt.Sprintf("race%d", i), popPerRound)}, &up); code != http.StatusOK {
			t.Fatalf("round %d: update status %d", i, code)
		}
		if code := postJSON(t, ts.URL+"/v1/views", api.ViewsRequest{Action: "refresh"}, &act); code != http.StatusOK {
			t.Fatalf("round %d: refresh status %d", i, code)
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// After the last refresh the view is fresh: the final answer must be the
	// final sum, served via the materialized view.
	final := query(t, ts, apexQuery)
	if got := numCell(t, final.Rows[0][0]); got != sum {
		t.Fatalf("final sum = %v, want %v", got, sum)
	}
	if final.Via != "country" {
		t.Errorf("final answer came via %q, want the country view", final.Via)
	}
	st := srv.cache.stats()
	if st.Hits+st.Misses == 0 {
		t.Error("cache saw no traffic")
	}
}

// TestMVCCDifferentialUnderEagerStorm is the snapshot-chain differential
// check: readers hammer /query while a writer commits multi-statement
// transactions with maintain=eager — the path where, pre-MVCC, every reader
// stalled behind the refresh inside the write lock. Under -race it asserts
// that every response matches some committed generation exactly:
//
//   - the apex sum equals a whole-transaction prefix sum (each transaction
//     commits two statements atomically, so observing half a transaction's
//     contribution is an atomicity violation), and
//   - two responses carrying the same generation are bit-identical — a
//     generation is immutable once published.
func TestMVCCDifferentialUnderEagerStorm(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 8})

	var act api.ViewsActionResponse
	if code := postJSON(t, ts.URL+"/v1/views", api.ViewsRequest{Action: "materialize", View: "country"}, &act); code != http.StatusOK {
		t.Fatalf("materialize returned status %d", code)
	}

	const rounds = 10
	const popPerStmt = 1_000_000

	// Each transaction carries two statements; only whole-transaction sums
	// are committed states. With maintain=eager the views are fresh at every
	// committed generation, so each generation has exactly one apex answer.
	base := numCell(t, query(t, ts, apexQuery).Rows[0][0])
	validSums := make(map[float64]bool, rounds+1)
	sum := base
	validSums[sum] = true
	for i := 0; i < rounds; i++ {
		sum += 2 * popPerStmt
		validSums[sum] = true
	}

	// byGeneration records the first rows observed for (query, generation);
	// every later observation of the same pair must be identical.
	var genMu sync.Mutex
	byGeneration := make(map[string]string)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 64)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := apexQuery
				if i%2 == 1 {
					q = countryQuery
				}
				resp, err := client.Post(ts.URL+"/v1/query", "application/json",
					jsonBody(api.QueryRequest{Query: q}))
				if err != nil {
					report(fmt.Errorf("reader %d: %v", r, err))
					return
				}
				var out api.QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					report(fmt.Errorf("reader %d: malformed JSON: %v", r, err))
					return
				}
				if resp.StatusCode != http.StatusOK {
					report(fmt.Errorf("reader %d: status %d", r, resp.StatusCode))
					return
				}
				key := fmt.Sprintf("%s@%d", q, out.Generation)
				rk := renderKey(out.Rows)
				genMu.Lock()
				prev, seen := byGeneration[key]
				if !seen {
					byGeneration[key] = rk
				}
				genMu.Unlock()
				if seen && prev != rk {
					report(fmt.Errorf("reader %d: generation %d answered two different bodies:\n%s\n%s",
						r, out.Generation, prev, rk))
					return
				}
				if q == apexQuery {
					got, err := parseNum(out.Rows[0][0])
					if err != nil {
						report(fmt.Errorf("reader %d: %v", r, err))
						return
					}
					if !validSums[got] {
						report(fmt.Errorf("reader %d: sum %v matches no whole-transaction state (partial transaction observed?)", r, got))
						return
					}
				}
			}
		}(r)
	}

	// Writer: two-statement eager transactions. Every commit is one
	// generation bump covering both statements plus the refresh.
	lastGen := int64(0)
	for i := 0; i < rounds; i++ {
		var up api.UpdateResponse
		req := api.UpdateRequest{
			Statements: []api.UpdateStatement{
				{Insert: obsTriples(fmt.Sprintf("mvccA%d", i), popPerStmt)},
				{Insert: obsTriples(fmt.Sprintf("mvccB%d", i), popPerStmt)},
			},
			Maintain: "eager",
		}
		if code := postJSON(t, ts.URL+"/v1/update", req, &up); code != http.StatusOK {
			t.Fatalf("round %d: update status %d", i, code)
		}
		if up.Statements != 2 || up.Inserted != 8 {
			t.Fatalf("round %d: statements %d inserted %d, want 2 and 8", i, up.Statements, up.Inserted)
		}
		if up.Refreshed == 0 || up.Stale != 0 {
			t.Fatalf("round %d: refreshed %d stale %d, want eager maintenance to leave nothing stale", i, up.Refreshed, up.Stale)
		}
		if lastGen != 0 && up.Generation != lastGen+1 {
			t.Fatalf("round %d: generation %d after %d, want exactly one bump per transaction", i, up.Generation, lastGen)
		}
		lastGen = up.Generation
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	final := query(t, ts, apexQuery)
	if got := numCell(t, final.Rows[0][0]); got != sum {
		t.Fatalf("final sum = %v, want %v", got, sum)
	}
	if final.Via != "country" {
		t.Errorf("final answer came via %q, want the country view", final.Via)
	}
}
