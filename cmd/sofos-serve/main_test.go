package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
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
	if _, _, err := buildServer(&config{dataset: "nope", k: 0}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, _, err := buildServer(&config{dataset: "lubm", scale: 1, model: "nope", k: 1}); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestEndToEnd builds the server on a small dataset with an initial
// selection and exercises every endpoint through the HTTP stack.
func TestEndToEnd(t *testing.T) {
	srv, _, err := buildServer(&config{dataset: "lubm", scale: 1, seed: 1, model: "aggvalues", k: 2, workers: 2})
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
	srv, _, err := buildServer(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postUpdate(t, ts.URL, `{"insert": "<http://t.test/s1> <http://t.test/p> <http://t.test/o> ."}`)
	wantGen := postUpdate(t, ts.URL, `{"insert": "<http://t.test/s2> <http://t.test/p> <http://t.test/o> .", "maintain": "eager"}`)
	q := srv.System().Facet.View(0).AnalyticalQuery().String()
	preRows := queryRows(t, ts.URL, q)

	// Restart from the directory. The old server object is abandoned mid-air.
	srv2, _, err := buildServer(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery boot: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	st := stats(t, ts2.URL)
	if st.Generation != wantGen {
		t.Fatalf("recovered generation %v, want %v", st.Generation, wantGen)
	}
	if st.Persist.Recovery.ReplayedBatches != 2 {
		t.Fatalf("recovery stats = %+v", st.Persist.Recovery)
	}
	postRows := queryRows(t, ts2.URL, q)
	if len(postRows) == 0 || len(preRows) == 0 || postRows[0][0] != preRows[0][0] {
		t.Fatalf("answers differ across restart: %v vs %v", postRows, preRows)
	}
}

// TestDurableBootRejectsMismatchedFlags guards against silently serving one
// dataset's data under another's flags.
func TestDurableBootRejectsMismatchedFlags(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := buildServer(durableConfig(dir)); err != nil {
		t.Fatal(err)
	}
	bad := durableConfig(dir)
	bad.dataset = "swdf"
	if _, _, err := buildServer(bad); err == nil {
		t.Error("mismatched dataset accepted")
	}
	badScale := durableConfig(dir)
	badScale.scale = 7
	if _, _, err := buildServer(badScale); err == nil {
		t.Error("mismatched scale accepted")
	}
}

func TestDurableBootRejectsBadSyncPolicy(t *testing.T) {
	c := durableConfig(t.TempDir())
	c.walSync = "sometimes"
	if _, _, err := buildServer(c); err == nil {
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
	if _, _, err := buildServer(durableConfig(dir)); err != nil {
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
	if _, _, err := buildServer(durableConfig(dir2)); err == nil {
		t.Error("wal records without a checkpoint accepted")
	}
}

// TestRecoveredBootCheckpoints asserts every recovered boot folds the
// replayed suffix into a fresh checkpoint, so back-to-back restarts never
// replay the same batches twice. The fold-in runs after buildServer returns,
// as run starts it once the listener is open; the test waits for the
// function to return before the third boot.
func TestRecoveredBootCheckpoints(t *testing.T) {
	dir := t.TempDir()
	srv, foldIn, err := buildServer(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if foldIn != nil {
		t.Fatal("a fresh boot deferred its checkpoint")
	}
	ts := httptest.NewServer(srv.Handler())
	postUpdate(t, ts.URL, `{"insert": "<http://t.test/rb> <http://t.test/p> <http://t.test/o> ."}`)
	ts.Close()

	_, foldIn, err = buildServer(durableConfig(dir)) // replays 1 batch
	if err != nil {
		t.Fatal(err)
	}
	if foldIn == nil {
		t.Fatal("recovered boot returned no fold-in checkpoint")
	}
	done := make(chan error, 1)
	go func() { done <- foldIn() }()
	if err := <-done; err != nil {
		t.Fatalf("fold-in checkpoint: %v", err)
	}
	srv3, _, err := buildServer(durableConfig(dir)) // must replay nothing
	if err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	if st := stats(t, ts3.URL); st.Persist.Recovery.ReplayedBatches != 0 {
		t.Fatalf("third boot replayed %d batches; the second boot's checkpoint should cover them", st.Persist.Recovery.ReplayedBatches)
	}
}

// TestRecoveredBootDroppedBeforeFoldIn crashes a recovered server before its
// fold-in checkpoint lands. Until then the restored checkpoint is the
// server's last one — /v1/stats reports it and /v1/wal refuses resume points
// it truncated — and the next boot replays the same suffix from it, plus
// the update acknowledged in between, to the same generation and answers.
func TestRecoveredBootDroppedBeforeFoldIn(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := buildServer(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	cpVersion := srv.System().GraphVersion() // the boot checkpoint's
	if cpVersion < 1 {
		t.Fatalf("checkpoint version %d leaves no resume point below it", cpVersion)
	}
	ts := httptest.NewServer(srv.Handler())
	postUpdate(t, ts.URL, `{"insert": "<http://t.test/d1> <http://t.test/p> <http://t.test/o> ."}`)
	postUpdate(t, ts.URL, `{"insert": "<http://t.test/d2> <http://t.test/p> <http://t.test/o> .", "maintain": "eager"}`)
	ts.Close()

	srv2, foldIn, err := buildServer(durableConfig(dir)) // its fold-in never runs
	if err != nil {
		t.Fatal(err)
	}
	if foldIn == nil {
		t.Fatal("recovered boot returned no fold-in checkpoint")
	}
	ts2 := httptest.NewServer(srv2.Handler())
	st := stats(t, ts2.URL)
	if st.Persist.LastCheckpointSeq != 1 || st.Persist.Recovery.CheckpointSeq != 1 || st.Persist.Recovery.ReplayedBatches != 2 {
		t.Fatalf("before the fold-in: last checkpoint %d, recovered checkpoint %d with %d batches; want 1, 1, 2",
			st.Persist.LastCheckpointSeq, st.Persist.Recovery.CheckpointSeq, st.Persist.Recovery.ReplayedBatches)
	}
	cl := &http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Get(ts2.URL + "/v1/wal?from=" + strconv.FormatInt(cpVersion-1, 10))
	if err != nil {
		t.Fatal(err)
	}
	var werr struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&werr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusGone || werr.Error.Code != "wal_truncated" {
		t.Fatalf("/v1/wal below the restored checkpoint: status %d, code %q, err %v; want 410 wal_truncated",
			resp.StatusCode, werr.Error.Code, err)
	}
	wantGen := postUpdate(t, ts2.URL, `{"insert": "<http://t.test/d3> <http://t.test/p> <http://t.test/o> .", "maintain": "eager"}`)
	q := srv2.System().Facet.View(0).AnalyticalQuery().String()
	want := queryRows(t, ts2.URL, q)
	ts2.Close()

	srv3, _, err := buildServer(durableConfig(dir))
	if err != nil {
		t.Fatalf("boot after a crash before the fold-in: %v", err)
	}
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	st = stats(t, ts3.URL)
	if st.Persist.Recovery.CheckpointSeq != 1 || st.Persist.Recovery.ReplayedBatches != 3 {
		t.Fatalf("third boot recovered checkpoint %d with %d batches; want checkpoint 1 with 3",
			st.Persist.Recovery.CheckpointSeq, st.Persist.Recovery.ReplayedBatches)
	}
	if st.Generation != wantGen {
		t.Fatalf("third boot at generation %d, want %d", st.Generation, wantGen)
	}
	if got := queryRows(t, ts3.URL, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("answers differ after the second crash: %v vs %v", got, want)
	}
}

// TestTornTailBootChecksBeforeServing recovers a log whose last record was
// cut by the crash. Such a boot writes its checkpoint before serving: a
// record appended after the damage would make the next boot take the
// damage for mid-log corruption and refuse to start.
func TestTornTailBootChecksBeforeServing(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := buildServer(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	postUpdate(t, ts.URL, `{"insert": "<http://t.test/t1> <http://t.test/p> <http://t.test/o> ."}`)
	postUpdate(t, ts.URL, `{"insert": "<http://t.test/t2> <http://t.test/p> <http://t.test/o> ."}`)
	ts.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	last := segs[len(segs)-1]
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, foldIn, err := buildServer(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if foldIn != nil {
		t.Fatal("a boot over a torn log deferred its checkpoint")
	}
	ts2 := httptest.NewServer(srv2.Handler())
	if st := stats(t, ts2.URL); !st.Persist.Recovery.TornTail || st.Persist.LastCheckpointSeq != 2 {
		t.Fatalf("torn tail %v, last checkpoint %d; want a torn tail folded into checkpoint 2",
			st.Persist.Recovery.TornTail, st.Persist.LastCheckpointSeq)
	}
	wantGen := postUpdate(t, ts2.URL, `{"insert": "<http://t.test/t3> <http://t.test/p> <http://t.test/o> ."}`)
	ts2.Close()

	srv3, _, err := buildServer(durableConfig(dir))
	if err != nil {
		t.Fatalf("boot after an update past the torn record: %v", err)
	}
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	if st := stats(t, ts3.URL); st.Generation != wantGen || st.Persist.Recovery.ReplayedBatches != 1 {
		t.Fatalf("recovered generation %d with %d batches, want %d with 1",
			st.Generation, st.Persist.Recovery.ReplayedBatches, wantGen)
	}
}

// TestIntervalCheckpointSkipsIdleTicks runs the interval loop over an idle
// server, then commits one update between ticks: the idle ticks write
// nothing and count as skipped, and the update is checkpointed exactly once.
func TestIntervalCheckpointSkipsIdleTicks(t *testing.T) {
	srv, _, err := buildServer(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		checkpointLoop(srv, time.Millisecond, stop)
		close(stopped)
	}()
	defer func() {
		close(stop)
		<-stopped
	}()

	// waitSkips polls until the loop has skipped n more ticks since from.
	waitSkips := func(from, n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if got := skippedCheckpoints(t, ts.URL); got >= from+n {
				return
			} else if time.Now().After(deadline) {
				t.Fatalf("interval loop skipped %d ticks, want %d", got-from, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitSkips(0, 3)
	if n := stats(t, ts.URL).Persist.Checkpoints; n != 1 {
		t.Fatalf("%d checkpoints written over idle ticks, want only the boot checkpoint", n)
	}
	postUpdate(t, ts.URL, `{"insert": "<http://t.test/i1> <http://t.test/p> <http://t.test/o> ."}`)
	// A tick skips inside the writer mutex, so any skip counted after the
	// update returned saw the update — and its checkpoint, written by the
	// first tick after it.
	waitSkips(skippedCheckpoints(t, ts.URL), 2)
	if n := stats(t, ts.URL).Persist.Checkpoints; n != 2 {
		t.Fatalf("%d checkpoints written after one update, want 2", n)
	}
}

// serveStats is the part of /v1/stats the durable boot tests read.
type serveStats struct {
	Generation int64 `json:"generation"`
	Persist    struct {
		Checkpoints       int64                  `json:"checkpoints_written"`
		LastCheckpointSeq uint64                 `json:"last_checkpoint_seq"`
		Recovery          *persist.RecoveryStats `json:"recovery"`
	} `json:"persist"`
}

// stats reads /v1/stats from a durable server.
func stats(t *testing.T, base string) serveStats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serveStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Persist.Recovery == nil {
		st.Persist.Recovery = &persist.RecoveryStats{}
	}
	return st
}

// postUpdate commits one /v1/update batch and returns its generation.
func postUpdate(t *testing.T, base, body string) int64 {
	t.Helper()
	resp, err := http.Post(base+"/v1/update", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Generation int64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d, err %v", resp.StatusCode, err)
	}
	return out.Generation
}

// queryRows answers q through /v1/query.
func queryRows(t *testing.T, base, q string) [][]string {
	t.Helper()
	resp, err := http.Get(base + "/v1/query?q=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ans struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d, err %v", resp.StatusCode, err)
	}
	return ans.Rows
}

// skippedCheckpoints reads sofos_checkpoints_skipped_total from /v1/metrics.
func skippedCheckpoints(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "sofos_checkpoints_skipped_total "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("bad metric line %q", line)
			}
			return n
		}
	}
	t.Fatal("no sofos_checkpoints_skipped_total in /v1/metrics")
	return 0
}

// TestReplicaEndToEnd is the two-process story through the real flags and
// dataset registry: a durable primary, a -replica bootstrapped from its
// checkpoint archive, and convergence to bit-identical answers — including a
// write acknowledged only after the replica applied it.
func TestReplicaEndToEnd(t *testing.T) {
	primary, _, err := buildServer(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(primary.Handler())
	defer pts.Close()

	rc, err := parseFlags([]string{"-replica", pts.URL, "-replica-id", "e2e-replica", "-workers", "2"})
	if err != nil {
		t.Fatal(err)
	}
	replica, _, err := buildServer(rc)
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
