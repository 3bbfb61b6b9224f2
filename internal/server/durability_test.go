package server

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sofos/internal/api"
	"sofos/internal/core"
	"sofos/internal/persist"
)

// newDurableServer builds a fixture server backed by a fresh data directory,
// with the initial checkpoint written — the state sofos-serve boots into.
func newDurableServer(t *testing.T, path string) (*Server, *httptest.Server, *Durability) {
	t.Helper()
	dir, err := persist.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := persist.OpenLog(dir.WALDir(), persist.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	dur := &Durability{Dir: dir, Log: l, Dataset: "fixture"}
	srv := New(newSystem(t), Config{Durability: dur})
	if _, err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, dur
}

// recoverServer restores the data directory into a fresh server — the
// restart half of a kill/restart cycle. The facet comes from a throwaway
// fixture system: identical by construction, as a real boot's facet is.
func recoverServer(t *testing.T, path string) (*httptest.Server, *core.RecoveryStats) {
	t.Helper()
	dir, err := persist.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sys, rec, err := core.Restore(dir, newSystem(t).Facet, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := persist.OpenLog(dir.WALDir(), persist.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv := New(sys, Config{Durability: &Durability{Dir: dir, Log: l, Dataset: "fixture", Recovery: rec}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, rec
}

// TestKillRestartServesCommittedState is the crash-recovery contract over
// HTTP: acknowledged /update batches survive a kill (the server object is
// simply abandoned, as SIGKILL leaves no chance to flush anything more than
// each ack already did), unacknowledged ones never appear, and the restarted
// server reports the exact pre-kill generation.
func TestKillRestartServesCommittedState(t *testing.T) {
	path := t.TempDir()
	_, ts, _ := newDurableServer(t, path)

	// Materialize a view (auto-checkpointed), then a mixed workload of
	// eager and lazy acknowledged updates.
	var act api.ViewsActionResponse
	if code := postJSON(t, ts.URL+"/v1/views", api.ViewsRequest{Action: "materialize", View: "country"}, &act); code != 200 {
		t.Fatalf("materialize status %d", code)
	}
	var up api.UpdateResponse
	if code := postJSON(t, ts.URL+"/v1/update",
		api.UpdateRequest{Insert: obsTriples("kr1", 40), Maintain: "eager"}, &up); code != 200 {
		t.Fatalf("update status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/update",
		api.UpdateRequest{Insert: obsTriples("kr2", 7)}, &up); code != 200 {
		t.Fatalf("update status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/update",
		api.UpdateRequest{Delete: obsTriples("kr1", 40), Maintain: "eager"}, &up); code != 200 {
		t.Fatalf("update status %d", code)
	}

	var preKill api.StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &preKill); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	preAnswer := query(t, ts, countryQuery)
	if preKill.Persist == nil || preKill.Persist.WAL.Appended != 3 {
		t.Fatalf("persist stats = %+v", preKill.Persist)
	}

	// Kill: no Close, no checkpoint. Restart from the directory.
	ts2, rec := recoverServer(t, path)
	if rec.ReplayedBatches != 3 {
		t.Fatalf("replayed %d batches, want 3", rec.ReplayedBatches)
	}
	var postKill api.StatsResponse
	if code := getJSON(t, ts2.URL+"/v1/stats", &postKill); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if postKill.Generation != preKill.Generation {
		t.Fatalf("recovered generation %d, pre-kill %d", postKill.Generation, preKill.Generation)
	}
	if postKill.GraphVersion != preKill.GraphVersion {
		t.Fatalf("recovered graph version %d, pre-kill %d", postKill.GraphVersion, preKill.GraphVersion)
	}
	if postKill.BaseTriples != preKill.BaseTriples || postKill.Materialized != preKill.Materialized {
		t.Fatalf("recovered size (%d triples, %d views), pre-kill (%d, %d)",
			postKill.BaseTriples, postKill.Materialized, preKill.BaseTriples, preKill.Materialized)
	}
	if postKill.StaleViews != preKill.StaleViews {
		t.Fatalf("recovered %d stale views, pre-kill %d", postKill.StaleViews, preKill.StaleViews)
	}
	postAnswer := query(t, ts2, countryQuery)
	if !reflect.DeepEqual(postAnswer.Rows, preAnswer.Rows) {
		t.Fatalf("answers differ across restart:\n got %v\nwant %v", postAnswer.Rows, preAnswer.Rows)
	}
	if postKill.Persist == nil || postKill.Persist.Recovery == nil {
		t.Fatal("recovery stats missing from /stats")
	}
}

// TestTornAckWindow cuts the WAL inside the final record — the crash window
// after the append reached the OS but before (or while) the client was
// acknowledged — and asserts recovery lands exactly on the previous
// committed generation with no fragment of the torn batch.
func TestTornAckWindow(t *testing.T) {
	path := t.TempDir()
	_, ts, _ := newDurableServer(t, path)
	var up api.UpdateResponse
	if code := postJSON(t, ts.URL+"/v1/update", api.UpdateRequest{Insert: obsTriples("ta1", 9)}, &up); code != 200 {
		t.Fatalf("update status %d", code)
	}
	committedGen := up.Generation
	committedRows := query(t, ts, countryQuery).Rows
	if code := postJSON(t, ts.URL+"/v1/update", api.UpdateRequest{Insert: obsTriples("ta2", 5)}, &up); code != 200 {
		t.Fatalf("update status %d", code)
	}

	// Tear the tail of the newest WAL segment mid-record.
	dir, err := persist.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := os.ReadDir(dir.WALDir())
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir.WALDir(), segs[len(segs)-1].Name())
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, raw[:len(raw)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	ts2, rec := recoverServer(t, path)
	if !rec.TornTail || rec.ReplayedBatches != 1 {
		t.Fatalf("recovery stats = %+v, want torn tail with 1 replayed batch", rec)
	}
	var st api.StatsResponse
	if code := getJSON(t, ts2.URL+"/v1/stats", &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if st.Generation != committedGen {
		t.Fatalf("recovered generation %d, want the pre-tear committed %d", st.Generation, committedGen)
	}
	if rows := query(t, ts2, countryQuery).Rows; !reflect.DeepEqual(rows, committedRows) {
		t.Fatalf("recovered answers include torn data:\n got %v\nwant %v", rows, committedRows)
	}
}

func TestAdminCheckpoint(t *testing.T) {
	path := t.TempDir()
	_, ts, _ := newDurableServer(t, path)
	var cp1, cp2 api.CheckpointResponse
	if code := postJSON(t, ts.URL+"/v1/admin/checkpoint", struct{}{}, &cp1); code != 200 {
		t.Fatalf("checkpoint status %d", code)
	}
	var up api.UpdateResponse
	if code := postJSON(t, ts.URL+"/v1/update", api.UpdateRequest{Insert: obsTriples("ck", 3)}, &up); code != 200 {
		t.Fatalf("update status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/admin/checkpoint", struct{}{}, &cp2); code != 200 {
		t.Fatalf("checkpoint status %d", code)
	}
	if cp2.Manifest.Sequence != cp1.Manifest.Sequence+1 {
		t.Fatalf("sequences %d then %d", cp1.Manifest.Sequence, cp2.Manifest.Sequence)
	}
	if cp2.Manifest.Generation != up.Generation {
		t.Fatalf("checkpoint generation %d, want %d", cp2.Manifest.Generation, up.Generation)
	}
	// Checkpointing truncated the replayed prefix: recovery now replays
	// nothing and still lands on the same generation.
	ts2, rec := recoverServer(t, path)
	if rec.ReplayedBatches != 0 {
		t.Fatalf("replayed %d batches after a fresh checkpoint", rec.ReplayedBatches)
	}
	var st api.StatsResponse
	if code := getJSON(t, ts2.URL+"/v1/stats", &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if st.Generation != up.Generation {
		t.Fatalf("recovered generation %d, want %d", st.Generation, up.Generation)
	}
}

func TestAdminCheckpointMemoryOnly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var e api.ErrorResponse
	if code := postJSON(t, ts.URL+"/v1/admin/checkpoint", struct{}{}, &e); code != 503 {
		t.Fatalf("memory-only checkpoint status %d (%+v)", code, e)
	}
}

// TestViewChangeCheckpointed proves view-set mutations survive a kill even
// though only /update batches are WAL-logged: the mutating action wrote a
// checkpoint before acknowledging.
func TestViewChangeCheckpointed(t *testing.T) {
	path := t.TempDir()
	_, ts, _ := newDurableServer(t, path)
	var act api.ViewsActionResponse
	if code := postJSON(t, ts.URL+"/v1/views", api.ViewsRequest{Action: "materialize", View: "lang+year"}, &act); code != 200 {
		t.Fatalf("materialize status %d", code)
	}
	ts2, _ := recoverServer(t, path)
	var vs api.ViewsResponse
	if code := getJSON(t, ts2.URL+"/v1/views", &vs); code != 200 {
		t.Fatalf("views status %d", code)
	}
	if len(vs.Materialized) != 1 || vs.Materialized[0].ID != "lang+year" {
		t.Fatalf("materializations after restart: %+v", vs.Materialized)
	}
	if vs.Generation != act.Generation {
		t.Fatalf("recovered generation %d, want %d", vs.Generation, act.Generation)
	}
}

// TestWALGapRefusesUpdates forces the append-failure path (by closing the
// log under the server) and asserts the gap discipline: the failing batch's
// 500 names both failures, later updates are refused before applying
// anything, and /stats surfaces the gap.
func TestWALGapRefusesUpdates(t *testing.T) {
	path := t.TempDir()
	_, ts, dur := newDurableServer(t, path)
	// Closing the log makes Append fail and the healing checkpoint fail
	// too (its Rotate needs the same log).
	if err := dur.Log.Close(); err != nil {
		t.Fatal(err)
	}
	var e api.ErrorResponse
	if code := postJSON(t, ts.URL+"/v1/update", api.UpdateRequest{Insert: obsTriples("gap1", 4)}, &e); code != 500 {
		t.Fatalf("append-failure update status %d (%+v)", code, e)
	}
	var st api.StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if st.Persist == nil || !st.Persist.WALGap {
		t.Fatalf("wal gap not surfaced: %+v", st.Persist)
	}
	// The next batch must be refused up front — nothing applied.
	pre := st.BaseTriples
	if code := postJSON(t, ts.URL+"/v1/update", api.UpdateRequest{Insert: obsTriples("gap2", 5)}, &e); code != 503 {
		t.Fatalf("post-gap update status %d (%+v)", code, e)
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != 200 || st.BaseTriples != pre {
		t.Fatalf("refused update still applied: %d -> %d triples", pre, st.BaseTriples)
	}
}

// TestConcurrentCheckpointsSerialize hammers Checkpoint from many
// goroutines; every call must succeed with a distinct sequence and the
// directory must end on a readable latest checkpoint.
func TestConcurrentCheckpointsSerialize(t *testing.T) {
	path := t.TempDir()
	srv, _, dur := newDurableServer(t, path)
	const n = 8
	seqs := make(chan uint64, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			m, err := srv.Checkpoint()
			if err != nil {
				errs <- err
				return
			}
			seqs <- m.Sequence
		}()
	}
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case s := <-seqs:
			if seen[s] {
				t.Fatalf("checkpoint sequence %d issued twice", s)
			}
			seen[s] = true
		}
	}
	cp, err := dur.Dir.LatestCheckpoint()
	if err != nil || cp == nil {
		t.Fatalf("latest checkpoint after the storm: %v, %v", cp, err)
	}
	ts2, rec := recoverServer(t, path)
	if rec.ReplayedBatches != 0 {
		t.Fatalf("replayed %d batches", rec.ReplayedBatches)
	}
	var st api.StatsResponse
	if code := getJSON(t, ts2.URL+"/v1/stats", &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
}

// TestNoOpDeltaEagerRefreshSurvivesCrash: an update whose delta is a no-op
// (duplicate insert) can still eagerly refresh views left stale by earlier
// lazy batches — a generation bump with no WAL record. The handler must
// checkpoint it, or the acknowledged generation would regress on restart.
func TestNoOpDeltaEagerRefreshSurvivesCrash(t *testing.T) {
	path := t.TempDir()
	_, ts, _ := newDurableServer(t, path)
	var act api.ViewsActionResponse
	if code := postJSON(t, ts.URL+"/v1/views", api.ViewsRequest{Action: "materialize", View: "country"}, &act); code != 200 {
		t.Fatalf("materialize status %d", code)
	}
	var up api.UpdateResponse
	// Lazy batch: view goes stale.
	if code := postJSON(t, ts.URL+"/v1/update", api.UpdateRequest{Insert: obsTriples("ne1", 21)}, &up); code != 200 {
		t.Fatalf("update status %d", code)
	}
	if up.Stale == 0 {
		t.Fatal("lazy update left no stale views; fixture changed?")
	}
	// Duplicate insert with eager maintenance: no-op delta, real refresh.
	if code := postJSON(t, ts.URL+"/v1/update", api.UpdateRequest{Insert: obsTriples("ne1", 21), Maintain: "eager"}, &up); code != 200 {
		t.Fatalf("no-op eager update status %d", code)
	}
	if up.Inserted != 0 || up.Refreshed == 0 || up.Stale != 0 {
		t.Fatalf("no-op eager response = %+v; want pure refresh", up)
	}
	ts2, _ := recoverServer(t, path)
	var st api.StatsResponse
	if code := getJSON(t, ts2.URL+"/v1/stats", &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if st.Generation != up.Generation {
		t.Fatalf("recovered generation %d, acknowledged %d", st.Generation, up.Generation)
	}
	if st.StaleViews != 0 {
		t.Fatalf("recovered %d stale views; the acknowledged refresh was lost", st.StaleViews)
	}
}
