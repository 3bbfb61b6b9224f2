package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"sofos/internal/persist"
)

func TestParseFlags(t *testing.T) {
	c, err := parseFlags([]string{"-dataset", "lubm", "-scale", "1", "-k", "0", "-addr", ":0"})
	if err != nil {
		t.Fatal(err)
	}
	if c.dataset != "lubm" || c.scale != 1 || c.k != 0 || c.addr != ":0" {
		t.Errorf("unexpected config: %+v", c)
	}
	if _, err := parseFlags([]string{"-scale", "banana"}); err == nil {
		t.Error("bad flag value accepted")
	}
	for _, args := range [][]string{{"-storage", "mmap"}, {"-codec", "block"}} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestBuildServerRejectsUnknowns(t *testing.T) {
	if _, err := buildServer(&config{dataset: "nope", k: 0}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := buildServer(&config{dataset: "lubm", scale: 1, model: "nope", k: 1}); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestEndToEnd builds the server on a small dataset with an initial
// selection and exercises every endpoint through the HTTP stack.
func TestEndToEnd(t *testing.T) {
	srv, err := buildServer(&config{dataset: "lubm", scale: 1, seed: 1, model: "aggvalues", k: 2, workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string, out any) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: malformed JSON: %v", path, err)
		}
		return resp.StatusCode
	}

	var health struct {
		OK   bool   `json:"ok"`
		Role string `json:"role"`
	}
	if code := get("/v1/healthz", &health); code != http.StatusOK || !health.OK || health.Role != "primary" {
		t.Fatalf("healthz = %+v (status %d)", health, code)
	}

	var views struct {
		Materialized []struct {
			ID string `json:"id"`
		} `json:"materialized"`
	}
	if code := get("/v1/views", &views); code != http.StatusOK {
		t.Fatalf("views status %d", code)
	}
	if len(views.Materialized) == 0 {
		t.Fatal("startup selection materialized no views")
	}

	// The apex (no GROUP BY) is answerable from any materialized view.
	q := srv.System().Facet.View(0).AnalyticalQuery().String()
	var ans struct {
		Vars   []string   `json:"vars"`
		Rows   [][]string `json:"rows"`
		Via    string     `json:"via"`
		Cached bool       `json:"cached"`
	}
	if code := get("/v1/query?q="+url.QueryEscape(q), &ans); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	if len(ans.Rows) == 0 {
		t.Fatal("apex query returned no rows")
	}
	if ans.Via == "base" {
		t.Errorf("apex query fell back to base answering")
	}
	if code := get("/v1/query?q="+url.QueryEscape(q), &ans); code != http.StatusOK || !ans.Cached {
		t.Errorf("repeat query not cached (status %d, cached %v)", code, ans.Cached)
	}

	up := `{"insert": "<http://e2e.test/s> <http://e2e.test/p> <http://e2e.test/o> ."}`
	resp, err := http.Post(ts.URL+"/v1/update", "application/json", strings.NewReader(up))
	if err != nil {
		t.Fatal(err)
	}
	var upOut struct {
		Inserted int `json:"inserted"`
	}
	err = json.NewDecoder(resp.Body).Decode(&upOut)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || upOut.Inserted != 1 {
		t.Fatalf("update: status %d, inserted %d, err %v", resp.StatusCode, upOut.Inserted, err)
	}

	var stats struct {
		Queries int64 `json:"queries"`
		Updates int64 `json:"updates"`
	}
	if code := get("/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Queries != 2 || stats.Updates != 1 {
		t.Errorf("stats = %+v, want 2 queries / 1 update", stats)
	}
}

// durableConfig is the smallest durable server configuration for tests.
func durableConfig(dir string) *config {
	return &config{dataset: "lubm", scale: 1, seed: 1, model: "aggvalues", k: 2,
		workers: 2, dataDir: dir, walSync: "always"}
}

// TestDurableBootKillRestart is buildServer's crash story end to end: a
// fresh durable boot writes the initial checkpoint, acknowledged updates
// reach the WAL, and a second buildServer over the same directory — the
// process was never shut down cleanly, as after SIGKILL — serves the exact
// committed generation and answers.
func TestDurableBootKillRestart(t *testing.T) {
	dir := t.TempDir()
	srv, err := buildServer(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) map[string]any {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/update", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update status %d: %v", resp.StatusCode, out)
		}
		return out
	}
	post(`{"insert": "<http://t.test/s1> <http://t.test/p> <http://t.test/o> ."}`)
	last := post(`{"insert": "<http://t.test/s2> <http://t.test/p> <http://t.test/o> .", "maintain": "eager"}`)
	wantGen := last["generation"].(float64)

	q := srv.System().Facet.View(0).AnalyticalQuery().String()
	resp, err := http.Get(ts.URL + "/v1/query?q=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	var preAns struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&preAns); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Restart from the directory. The old server object is abandoned mid-air.
	srv2, err := buildServer(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery boot: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Generation float64 `json:"generation"`
		Persist    *struct {
			Recovery *struct {
				ReplayedBatches float64 `json:"replayed_batches"`
			} `json:"recovery"`
		} `json:"persist"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Generation != wantGen {
		t.Fatalf("recovered generation %v, want %v", st.Generation, wantGen)
	}
	if st.Persist == nil || st.Persist.Recovery == nil || st.Persist.Recovery.ReplayedBatches != 2 {
		t.Fatalf("recovery stats = %+v", st.Persist)
	}
	resp, err = http.Get(ts2.URL + "/v1/query?q=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	var postAns struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&postAns); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(postAns.Rows) == 0 || len(preAns.Rows) == 0 || postAns.Rows[0][0] != preAns.Rows[0][0] {
		t.Fatalf("answers differ across restart: %v vs %v", postAns.Rows, preAns.Rows)
	}
}

// TestDurableBootRejectsMismatchedFlags guards against silently serving one
// dataset's data under another's flags.
func TestDurableBootRejectsMismatchedFlags(t *testing.T) {
	dir := t.TempDir()
	if _, err := buildServer(durableConfig(dir)); err != nil {
		t.Fatal(err)
	}
	bad := durableConfig(dir)
	bad.dataset = "swdf"
	if _, err := buildServer(bad); err == nil {
		t.Error("mismatched dataset accepted")
	}
	badScale := durableConfig(dir)
	badScale.scale = 7
	if _, err := buildServer(badScale); err == nil {
		t.Error("mismatched scale accepted")
	}
}

func TestDurableBootRejectsBadSyncPolicy(t *testing.T) {
	c := durableConfig(t.TempDir())
	c.walSync = "sometimes"
	if _, err := buildServer(c); err == nil {
		t.Error("bad wal-sync accepted")
	}
}

// TestDurableBootTamesEmptyWALDebris reproduces a first boot that died
// between opening its WAL and writing the initial checkpoint: segments with
// zero records must not brick the directory, while any real record without
// a checkpoint must.
func TestDurableBootTamesEmptyWALDebris(t *testing.T) {
	dir := t.TempDir()
	pd, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := persist.OpenLog(pd.WALDir(), persist.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // empty segment left behind
		t.Fatal(err)
	}
	if _, err := buildServer(durableConfig(dir)); err != nil {
		t.Fatalf("record-free wal debris bricked the dir: %v", err)
	}

	dir2 := t.TempDir()
	pd2, err := persist.Open(dir2)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := persist.OpenLog(pd2.WALDir(), persist.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(&persist.Record{FromVersion: 1, ToVersion: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := buildServer(durableConfig(dir2)); err == nil {
		t.Error("wal records without a checkpoint accepted")
	}
}

// TestRecoveredBootCheckpoints asserts every durable boot folds the
// replayed suffix into a fresh checkpoint, so back-to-back restarts never
// replay the same batches twice.
func TestRecoveredBootCheckpoints(t *testing.T) {
	dir := t.TempDir()
	srv, err := buildServer(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	resp, err := http.Post(ts.URL+"/v1/update", "application/json",
		strings.NewReader(`{"insert": "<http://t.test/rb> <http://t.test/p> <http://t.test/o> ."}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()

	srv2, err := buildServer(durableConfig(dir)) // replays 1 batch, then checkpoints
	if err != nil {
		t.Fatal(err)
	}
	_ = srv2
	srv3, err := buildServer(durableConfig(dir)) // must replay nothing
	if err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	r, err := http.Get(ts3.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st struct {
		Persist struct {
			Recovery struct {
				ReplayedBatches int `json:"replayed_batches"`
			} `json:"recovery"`
		} `json:"persist"`
	}
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Persist.Recovery.ReplayedBatches != 0 {
		t.Fatalf("third boot replayed %d batches; the second boot's checkpoint should cover them", st.Persist.Recovery.ReplayedBatches)
	}
}

// TestReplicaEndToEnd is the two-process story through the real flags and
// dataset registry: a durable primary, a -replica bootstrapped from its
// checkpoint archive, and convergence to bit-identical answers — including a
// write acknowledged only after the replica applied it.
func TestReplicaEndToEnd(t *testing.T) {
	primary, err := buildServer(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(primary.Handler())
	defer pts.Close()

	rc, err := parseFlags([]string{"-replica", pts.URL, "-replica-id", "e2e-replica", "-workers", "2"})
	if err != nil {
		t.Fatal(err)
	}
	replica, err := buildServer(rc)
	if err != nil {
		t.Fatalf("replica boot: %v", err)
	}
	rts := httptest.NewServer(replica.Handler())
	defer rts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := replica.StartReplication(ctx); err != nil {
		t.Fatal(err)
	}

	// An update acknowledged at replicas:1 must already be applied there.
	up := `{"insert": "<http://e2e.test/r1> <http://e2e.test/p> <http://e2e.test/o> .", "ack": "replicas:1"}`
	resp, err := http.Post(pts.URL+"/v1/update", "application/json", strings.NewReader(up))
	if err != nil {
		t.Fatal(err)
	}
	var upOut struct {
		Ack         string `json:"ack"`
		AckReplicas int    `json:"ack_replicas"`
	}
	err = json.NewDecoder(resp.Body).Decode(&upOut)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d, err %v", resp.StatusCode, err)
	}
	if upOut.Ack != "replicas:1" || upOut.AckReplicas < 1 {
		t.Fatalf("ack = %+v, want replicas:1 with >= 1 replica", upOut)
	}

	deadline := time.Now().Add(10 * time.Second)
	for replica.System().Generation() != primary.System().Generation() ||
		replica.System().GraphVersion() != primary.System().GraphVersion() {
		if time.Now().After(deadline) {
			t.Fatalf("replica at gen %d / ver %d, primary at %d / %d",
				replica.System().Generation(), replica.System().GraphVersion(),
				primary.System().Generation(), primary.System().GraphVersion())
		}
		time.Sleep(5 * time.Millisecond)
	}

	q := primary.System().Facet.View(0).AnalyticalQuery().String()
	answers := make([][][]string, 0, 2)
	for _, u := range []string{pts.URL, rts.URL} {
		r, err := http.Get(u + "/v1/query?q=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		var ans struct {
			Rows [][]string `json:"rows"`
		}
		err = json.NewDecoder(r.Body).Decode(&ans)
		r.Body.Close()
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("query %s: status %d, err %v", u, r.StatusCode, err)
		}
		answers = append(answers, ans.Rows)
	}
	if !reflect.DeepEqual(answers[0], answers[1]) {
		t.Fatalf("answers diverge: primary %v, replica %v", answers[0], answers[1])
	}

	// Replicas reject -data-dir and writes.
	if _, err := parseFlags([]string{"-replica", pts.URL, "-data-dir", t.TempDir()}); err == nil {
		t.Error("-replica with -data-dir accepted")
	}
	resp, err = http.Post(rts.URL+"/v1/update", "application/json", strings.NewReader(up))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("replica write status %d, want 403", resp.StatusCode)
	}
}
