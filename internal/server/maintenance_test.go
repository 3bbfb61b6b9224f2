package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"sofos/internal/api"
)

// insertNT renders one pop observation as N-Triples text.
func insertNT(id string, pop int) string {
	return strings.Join([]string{
		fmt.Sprintf("<http://ex.org/%s> <http://ex.org/country> \"C0\" .", id),
		fmt.Sprintf("<http://ex.org/%s> <http://ex.org/lang> \"L0\" .", id),
		fmt.Sprintf("<http://ex.org/%s> <http://ex.org/year> \"2015\"^^<http://www.w3.org/2001/XMLSchema#gYear> .", id),
		fmt.Sprintf("<http://ex.org/%s> <http://ex.org/pop> \"%d\"^^<http://www.w3.org/2001/XMLSchema#integer> .", id, pop),
	}, "\n")
}

// TestUpdateEagerMaintain: maintain=eager refreshes stale views inside the
// update's critical section — via the incremental path, since the committed
// delta is captured — so the response reports zero remaining stale views
// and the next query sees the fresh aggregate.
func TestUpdateEagerMaintain(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var act api.ViewsActionResponse
	if code := postJSON(t, ts.URL+"/v1/views", api.ViewsRequest{Action: "materialize", View: "country"}, &act); code != http.StatusOK {
		t.Fatalf("materialize status %d", code)
	}
	var up api.UpdateResponse
	code := postJSON(t, ts.URL+"/v1/update",
		api.UpdateRequest{Insert: insertNT("obsEager", 1000), Maintain: "eager"}, &up)
	if code != http.StatusOK {
		t.Fatalf("eager update status %d", code)
	}
	if up.Inserted != 4 {
		t.Errorf("inserted = %d, want 4", up.Inserted)
	}
	if up.Refreshed != 1 || up.Stale != 0 {
		t.Errorf("eager update refreshed %d, stale %d; want 1, 0", up.Refreshed, up.Stale)
	}
	if up.Incremental != 1 {
		t.Errorf("incremental = %d, want the delta path to have run", up.Incremental)
	}
	// The refreshed view answers with the new triples folded in.
	r := query(t, ts, countryQuery)
	if r.Via != "country" {
		t.Fatalf("query answered via %q, want the refreshed view", r.Via)
	}
	// /stats reports the per-view maintenance bookkeeping.
	var st api.StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Maintenance != "self-maintainable-both" {
		t.Errorf("maintenance classification = %q", st.Maintenance)
	}
	if len(st.Views) != 1 {
		t.Fatalf("stats views = %+v", st.Views)
	}
	vs := st.Views[0]
	if vs.ID != "country" || vs.Mode != "self-maintainable-both" || vs.LastPath != "incremental" {
		t.Errorf("view maintenance stats = %+v", vs)
	}
	if vs.Stale || vs.LastDeltaSize != 4 {
		t.Errorf("view maintenance stats = %+v, want fresh with delta size 4", vs)
	}
}

func TestUpdateLazyLeavesStale(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var act api.ViewsActionResponse
	if code := postJSON(t, ts.URL+"/v1/views", api.ViewsRequest{Action: "materialize", View: "country"}, &act); code != http.StatusOK {
		t.Fatalf("materialize status %d", code)
	}
	var up api.UpdateResponse
	if code := postJSON(t, ts.URL+"/v1/update",
		api.UpdateRequest{Insert: insertNT("obsLazy", 1), Maintain: "lazy"}, &up); code != http.StatusOK {
		t.Fatalf("lazy update status %d", code)
	}
	if up.Stale != 1 || up.Refreshed != 0 {
		t.Errorf("lazy update stale %d, refreshed %d; want 1, 0", up.Stale, up.Refreshed)
	}
}

func TestUpdateBadMaintainMode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out api.ErrorResponse
	code := postJSON(t, ts.URL+"/v1/update",
		api.UpdateRequest{Insert: insertNT("obsBad", 1), Maintain: "sometimes"}, &out)
	if code != http.StatusBadRequest {
		t.Fatalf("bad maintain mode status %d, want 400", code)
	}
}

// TestCacheByteBudget: bodies charge their rendered size against the
// configured budget; the cache evicts down to it and reports bytes in use.
func TestCacheByteBudget(t *testing.T) {
	// One shard's budget is maxBytes/numCacheShards = 64 bytes.
	c := newResultCache(1<<20, 64*numCacheShards)
	body := make([]byte, 48)
	for i := 0; i < 8*numCacheShards; i++ {
		c.put(0, fmt.Sprintf("key-%d", i), body)
	}
	st := c.stats()
	if st.Bytes > int64(64*numCacheShards) {
		t.Errorf("cache holds %d bytes, budget is %d", st.Bytes, 64*numCacheShards)
	}
	if st.Evictions == 0 {
		t.Error("expected byte-budget evictions")
	}
	if st.MaxBytes != 64*numCacheShards {
		t.Errorf("MaxBytes = %d", st.MaxBytes)
	}
	// A single body above the shard budget still caches (and is served).
	huge := make([]byte, 1024)
	c.put(0, "huge", huge)
	if got, ok := c.get("huge"); !ok || len(got) != 1024 {
		t.Error("oversized body was not cached")
	}
}

func TestCacheByteAccountingOnReplace(t *testing.T) {
	c := newResultCache(numCacheShards, 0)
	c.put(0, "k", make([]byte, 100))
	c.put(0, "k", make([]byte, 10))
	if _, bytes := c.usage(); bytes != 10 {
		t.Errorf("bytes after replace = %d, want 10", bytes)
	}
}

// TestCacheDropsSupersededGenerations: entries keyed under a generation no
// lookup will name again must not sit in memory until the LRU reaches them.
func TestCacheDropsSupersededGenerations(t *testing.T) {
	c := newResultCache(1<<20, 0)
	for i := 0; i < 256; i++ {
		c.put(1, fmt.Sprintf("g1|q%d", i), make([]byte, 100))
	}
	for i := 0; i < 256; i++ { // enough keys to reach every shard
		c.put(2, fmt.Sprintf("g2|q%d", i), make([]byte, 10))
	}
	c.put(1, "g1|late", make([]byte, 100)) // a reader that pinned generation 1
	if entries, bytes := c.usage(); entries != 256 || bytes != 2560 {
		t.Errorf("cache holds %d entries, %d bytes after the generation moved; want the 256 new ones, 2560 bytes", entries, bytes)
	}
	if _, ok := c.get("g1|q0"); ok {
		t.Error("an entry of the superseded generation is still served")
	}
	if _, ok := c.get("g2|q0"); !ok {
		t.Error("an entry of the current generation was dropped")
	}
	if st := c.stats(); st.Evictions != 256 {
		t.Errorf("evictions = %d, want the 256 superseded entries", st.Evictions)
	}
}

func TestServerCacheBytesWiredThrough(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheBytes: 1 << 20})
	query(t, ts, apexQuery)
	var st api.StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Cache.MaxBytes == 0 {
		t.Error("CacheBytes not wired into the cache")
	}
	if st.Cache.Bytes == 0 {
		t.Error("cached answer reported zero bytes in use")
	}
}
