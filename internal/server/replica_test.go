package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"sofos/internal/api"
	"sofos/internal/client"
	"sofos/internal/core"
	"sofos/internal/facet"
	"sofos/internal/persist"
)

// fixtureResolver resolves any dataset name to the fixture facet — the
// fixture is not in the datasets registry, so replica bootstraps in these
// tests inject it (cmd/sofos-serve's e2e test covers the registry path).
func fixtureResolver(t testing.TB) func(string) (*facet.Facet, error) {
	f := newSystem(t).Facet
	return func(string) (*facet.Facet, error) { return f, nil }
}

// newReplicaServer bootstraps a replica of the given primary through the
// production path (checkpoint archive download + restore) and starts its
// replication loop.
func newReplicaServer(t *testing.T, primary *httptest.Server, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	opts := &ReplicaOptions{
		Primary: primary.URL,
		ID:      "r-" + t.Name(),
		Facet:   fixtureResolver(t),
	}
	sys, _, err := BootstrapReplica(context.Background(), *opts, core.Options{Workers: 2})
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	cfg.Replica = opts
	srv := New(sys, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := srv.StartReplication(ctx); err != nil {
		t.Fatal(err)
	}
	return srv, ts
}

// waitConverged blocks until the replica reaches the primary's exact
// generation and graph version.
func waitConverged(t testing.TB, primary, replica *Server, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		pg, pv := primary.System().Generation(), primary.System().GraphVersion()
		rg, rv := replica.System().Generation(), replica.System().GraphVersion()
		if pg == rg && pv == rv {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never converged: primary gen %d ver %d, replica gen %d ver %d", pg, pv, rg, rv)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertSameAnswers requires bit-identical answers from both servers.
func assertSameAnswers(t testing.TB, primary, replica *httptest.Server, queries ...string) {
	t.Helper()
	for _, q := range queries {
		pa, ra := query(t, primary, q), query(t, replica, q)
		if !reflect.DeepEqual(pa.Vars, ra.Vars) || !reflect.DeepEqual(pa.Rows, ra.Rows) {
			t.Fatalf("answers diverge for %q:\nprimary %v %v\nreplica %v %v", q, pa.Vars, pa.Rows, ra.Vars, ra.Rows)
		}
	}
}

// TestReplicaServesIdenticalAnswers is the tentpole acceptance test: a
// replica bootstrapped from the primary's checkpoint and tailing /v1/wal
// converges to the primary's exact generation and serves bit-identical
// answers after an update-heavy run — including updates committed before the
// replica ever connected (the WAL suffix past the bootstrap checkpoint).
func TestReplicaServesIdenticalAnswers(t *testing.T) {
	psrv, pts, _ := newDurableServer(t, t.TempDir())

	// Committed before the replica exists: must arrive via the WAL tail.
	var up api.UpdateResponse
	if code := postJSON(t, pts.URL+"/v1/update", api.UpdateRequest{Insert: obsTriples("pre1", 11)}, &up); code != 200 {
		t.Fatalf("update status %d", code)
	}
	if code := postJSON(t, pts.URL+"/v1/update", api.UpdateRequest{Insert: obsTriples("pre2", 13), Maintain: "eager"}, &up); code != 200 {
		t.Fatalf("update status %d", code)
	}

	rsrv, rts := newReplicaServer(t, pts, Config{})
	if rsrv.Role() != RoleReplica {
		t.Fatalf("role = %q, want replica", rsrv.Role())
	}

	// Committed while the replica is tailing.
	for i := 0; i < 5; i++ {
		maintain := ""
		if i%2 == 0 {
			maintain = "eager"
		}
		if code := postJSON(t, pts.URL+"/v1/update",
			api.UpdateRequest{Insert: obsTriples(fmt.Sprintf("live%d", i), 20+i), Maintain: maintain}, &up); code != 200 {
			t.Fatalf("update status %d", code)
		}
	}
	if code := postJSON(t, pts.URL+"/v1/update", api.UpdateRequest{Delete: obsTriples("pre1", 11)}, &up); code != 200 {
		t.Fatalf("delete status %d", code)
	}

	waitConverged(t, psrv, rsrv, 10*time.Second)
	assertSameAnswers(t, pts, rts, countryQuery, apexQuery)

	// The replica advertises its role, generation, and lag.
	var h api.HealthResponse
	if code := getJSON(t, rts.URL+"/v1/healthz", &h); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	if !h.OK || h.Role != RoleReplica || h.Generation != psrv.System().Generation() || h.ReplicaLag != 0 {
		t.Fatalf("replica healthz = %+v", h)
	}
	var rst api.StatsResponse
	if code := getJSON(t, rts.URL+"/v1/stats", &rst); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if rst.Role != RoleReplica || rst.Replication == nil || rst.Replication.AppliedRecords == 0 ||
		rst.Replication.Primary != pts.URL {
		t.Fatalf("replica stats = %+v / %+v", rst.Role, rst.Replication)
	}

	// The primary's stats list the replica's progress report.
	var pst api.StatsResponse
	if code := getJSON(t, pts.URL+"/v1/stats", &pst); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if pst.Replication == nil || len(pst.Replication.Replicas) != 1 ||
		pst.Replication.Replicas[0].ID != "r-"+t.Name() {
		t.Fatalf("primary replication stats = %+v", pst.Replication)
	}
}

// TestReplicaRejectsWrites pins the read-only contract: every mutating
// endpoint answers 403 with the read_only_replica code.
func TestReplicaRejectsWrites(t *testing.T) {
	_, pts, _ := newDurableServer(t, t.TempDir())
	_, rts := newReplicaServer(t, pts, Config{})

	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/update", api.UpdateRequest{Insert: obsTriples("w", 1)}},
		{"/v1/views", api.ViewsRequest{Action: "reset"}},
		{"/v1/admin/checkpoint", struct{}{}},
	} {
		var env api.ErrorResponse
		if code := postJSON(t, rts.URL+c.path, c.body, &env); code != http.StatusForbidden {
			t.Errorf("POST %s status %d, want 403", c.path, code)
		} else if env.Error.Code != api.CodeReadOnlyReplica {
			t.Errorf("POST %s error code %q, want %q", c.path, env.Error.Code, api.CodeReadOnlyReplica)
		}
	}
}

// TestUpdateAckReplicas pins "ack":"replicas:1" semantics: with a live
// replica the update is not acknowledged until that replica reports the
// batch applied, so the 200 response already counts it.
func TestUpdateAckReplicas(t *testing.T) {
	psrv, pts, _ := newDurableServer(t, t.TempDir())
	rsrv, _ := newReplicaServer(t, pts, Config{})

	var up api.UpdateResponse
	if code := postJSON(t, pts.URL+"/v1/update",
		api.UpdateRequest{Insert: obsTriples("acked", 9), Ack: "replicas:1"}, &up); code != 200 {
		t.Fatalf("update status %d", code)
	}
	if up.Ack != "replicas:1" || up.AckReplicas < 1 {
		t.Fatalf("ack = %q with %d replicas, want replicas:1 with >= 1", up.Ack, up.AckReplicas)
	}
	// The ack means applied: the replica is already at the batch's version.
	if got, want := rsrv.System().GraphVersion(), psrv.System().GraphVersion(); got < want {
		t.Fatalf("acked batch not applied: replica at version %d, primary at %d", got, want)
	}
}

// TestUpdateAckTimesOutWithoutReplicas pins the other half: replicas:N with
// nobody reporting is a 504 replication_timeout, and the batch is still
// committed and durable (the generation moved).
func TestUpdateAckTimesOutWithoutReplicas(t *testing.T) {
	srv, ts := newDurableServerCfg(t, t.TempDir(), Config{AckTimeout: 50 * time.Millisecond})
	before := srv.System().Generation()

	var env api.ErrorResponse
	code := postJSON(t, ts.URL+"/v1/update",
		api.UpdateRequest{Insert: obsTriples("orphan", 3), Ack: "replicas:1"}, &env)
	if code != http.StatusGatewayTimeout || env.Error.Code != api.CodeReplicationTimeout {
		t.Fatalf("status %d code %q, want 504 %q", code, env.Error.Code, api.CodeReplicationTimeout)
	}
	if got := srv.System().Generation(); got != before+1 {
		t.Fatalf("generation %d after timed-out ack, want %d: the batch must commit anyway", got, before+1)
	}

	var bad api.ErrorResponse
	if code := postJSON(t, ts.URL+"/v1/update",
		api.UpdateRequest{Insert: obsTriples("bad", 3), Ack: "replicas:0"}, &bad); code != http.StatusBadRequest {
		t.Fatalf("ack=replicas:0 status %d, want 400", code)
	}
}

// newDurableServerCfg is newDurableServer with a caller-supplied Config
// (Durability is filled in here).
func newDurableServerCfg(t *testing.T, path string, cfg Config) (*Server, *httptest.Server) {
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
	cfg.Durability = &Durability{Dir: dir, Log: l, Dataset: "fixture"}
	srv := New(newSystem(t), cfg)
	if _, err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestReplicaKillPoints stops a replica at every record boundary around a
// WAL segment rotation, restarts replication from that exact point, and
// requires convergence to the primary's generation with bit-identical
// answers. The partial tail uses the same client + apply path the runtime
// does, so each boundary is a faithful mid-replication kill.
func TestReplicaKillPoints(t *testing.T) {
	psrv, pts, dur := newDurableServer(t, t.TempDir())

	// Four records with a segment rotation in the middle: boundaries 0..4
	// include "just before rotation" (2) and "just after" (3).
	var up api.UpdateResponse
	for i := 0; i < 2; i++ {
		if code := postJSON(t, pts.URL+"/v1/update", api.UpdateRequest{Insert: obsTriples(fmt.Sprintf("a%d", i), i+1)}, &up); code != 200 {
			t.Fatalf("update status %d", code)
		}
	}
	if _, err := dur.Log.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if code := postJSON(t, pts.URL+"/v1/update", api.UpdateRequest{Insert: obsTriples(fmt.Sprintf("b%d", i), i+10), Maintain: "eager"}, &up); code != 200 {
			t.Fatalf("update status %d", code)
		}
	}

	resolver := fixtureResolver(t)
	errKilled := errors.New("killed at boundary")
	for k := 0; k <= 4; k++ {
		t.Run(fmt.Sprintf("boundary%d", k), func(t *testing.T) {
			opts := &ReplicaOptions{Primary: pts.URL, ID: fmt.Sprintf("kp-%d", k), Facet: resolver}
			sys, _, err := BootstrapReplica(context.Background(), *opts, core.Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			// Tail by hand and die after exactly k applied records.
			applied := 0
			cl := client.New(pts.URL, nil)
			err = cl.StreamWAL(context.Background(), sys.GraphVersion(), func(ev *api.WALEvent) error {
				if ev.Heartbeat {
					if applied == k {
						return errKilled // idle at the target boundary: kill now
					}
					return nil
				}
				rec, err := persist.DecodeRecord(ev.Record)
				if err != nil {
					return err
				}
				if err := core.ReplayRecord(sys, rec, nil); err != nil {
					return err
				}
				if applied++; applied == k {
					return errKilled
				}
				return nil
			})
			if !errors.Is(err, errKilled) {
				t.Fatalf("partial tail ended with %v, want the kill sentinel", err)
			}
			if applied != k {
				t.Fatalf("killed after %d records, want %d", applied, k)
			}

			// Restart: wrap the killed state in a server and let the real
			// replication loop resume from the boundary.
			srv := New(sys, Config{Replica: opts})
			rts := httptest.NewServer(srv.Handler())
			defer rts.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if err := srv.StartReplication(ctx); err != nil {
				t.Fatal(err)
			}
			waitConverged(t, psrv, srv, 10*time.Second)
			assertSameAnswers(t, pts, rts, countryQuery, apexQuery)
		})
	}
}

// TestReplicaStreamVsCheckpointTruncation runs the replication stream
// concurrently with checkpoint-triggered WAL truncation (run under -race in
// CI): rotations and truncations under the cursor must end in convergence —
// via reconnect or re-bootstrap — never divergence.
func TestReplicaStreamVsCheckpointTruncation(t *testing.T) {
	psrv, pts, _ := newDurableServer(t, t.TempDir())
	rsrv, rts := newReplicaServer(t, pts, Config{})

	done := make(chan error, 1)
	go func() {
		var up api.UpdateResponse
		for i := 0; i < 12; i++ {
			if code := postJSON(t, pts.URL+"/v1/update",
				api.UpdateRequest{Insert: obsTriples(fmt.Sprintf("t%d", i), i+1)}, &up); code != 200 {
				done <- fmt.Errorf("update %d status %d", i, code)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		done <- nil
	}()
	for i := 0; i < 4; i++ {
		if _, err := psrv.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := psrv.Checkpoint(); err != nil { // truncate once more at the end
		t.Fatal(err)
	}
	waitConverged(t, psrv, rsrv, 15*time.Second)
	assertSameAnswers(t, pts, rts, countryQuery, apexQuery)
}

// TestWALStreamGapAfterUnreadRecordTruncated: a stream idle at the end of
// segment S sees a checkpoint rotate to S+1, an update land its record in
// S+1, and a second checkpoint rotate to S+2 and truncate S+1. The cursor
// then steps onto the empty S+2 with the update's record gone; the stream
// must end with a gap so the replica re-bootstraps, instead of idling at
// the old version until the primary writes again.
func TestWALStreamGapAfterUnreadRecordTruncated(t *testing.T) {
	psrv, pts, dur := newDurableServer(t, t.TempDir())
	cp := psrv.lastCheckpoint.Load()
	cur := persist.OpenWALCursor(dur.Dir.WALDir(), cp.WALSeq, cp.GraphVersion)
	defer cur.Close()
	idle := func(step string) {
		t.Helper()
		if _, _, err := psrv.nextWALRecord(cur); !errors.Is(err, persist.ErrWALNoMore) {
			t.Fatalf("%s: stream step = %v, want idle", step, err)
		}
	}
	idle("at the boot checkpoint")
	if _, err := psrv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A checkpoint at the stream's own version truncated nothing it needs.
	idle("after a checkpoint at the stream's own version")
	// Steps 2-4 with no poll between them.
	if _, err := psrv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var up api.UpdateResponse
	if code := postJSON(t, pts.URL+"/v1/update", api.UpdateRequest{Insert: obsTriples("gap", 3)}, &up); code != 200 {
		t.Fatalf("update status %d", code)
	}
	if _, err := psrv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := psrv.nextWALRecord(cur); !errors.Is(err, persist.ErrWALGap) {
		t.Fatalf("stream step after its unread record was truncated = %v, want a wal gap", err)
	}
}

// TestReplicaKeepsStorageAcrossRebootstrap pins that a replica serves a
// mapped snapshot after a re-bootstrap as after its first one: both restores
// load the primary's snapshot by mmap.
func TestReplicaKeepsStorageAcrossRebootstrap(t *testing.T) {
	psrv, pts, _ := newDurableServer(t, t.TempDir())
	rsrv, rts := newReplicaServer(t, pts, Config{})
	checkStorage := func(wantBootstraps int64) {
		t.Helper()
		var st api.StatsResponse
		if code := getJSON(t, rts.URL+"/v1/stats", &st); code != 200 {
			t.Fatalf("stats status %d", code)
		}
		if st.Store.Storage != "mmap" {
			t.Fatalf("store.storage = %q after %d bootstraps, want mmap", st.Store.Storage, wantBootstraps)
		}
		if st.Replication == nil || st.Replication.Bootstraps != wantBootstraps {
			t.Fatalf("replication stats = %+v, want %d bootstraps", st.Replication, wantBootstraps)
		}
	}
	checkStorage(1)

	var up api.UpdateResponse
	if code := postJSON(t, pts.URL+"/v1/update", api.UpdateRequest{Insert: obsTriples("mm", 5)}, &up); code != 200 {
		t.Fatalf("update status %d", code)
	}
	if _, err := psrv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := rsrv.rebootstrap(context.Background()); err != nil {
		t.Fatalf("rebootstrap: %v", err)
	}
	checkStorage(2)
	waitConverged(t, psrv, rsrv, 10*time.Second)
	assertSameAnswers(t, pts, rts, countryQuery, apexQuery)
}

// TestReadYourWrites pins the min-generation gate: a reader that inherited a
// writer's generation floor never sees a replica answer older than its own
// write — the replica waits briefly, then hands the read to the primary.
func TestReadYourWrites(t *testing.T) {
	_, pts, _ := newDurableServer(t, t.TempDir())

	// Bootstrap a replica but never start its replication loop: it is
	// frozen at the bootstrap checkpoint, permanently behind.
	opts := &ReplicaOptions{Primary: pts.URL, ID: "ryw", Facet: fixtureResolver(t)}
	sys, _, err := BootstrapReplica(context.Background(), *opts, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rsrv := New(sys, Config{Replica: opts, ReadWait: 50 * time.Millisecond})
	rts := httptest.NewServer(rsrv.Handler())
	defer rts.Close()

	// Write through the primary, carry the generation to a replica reader.
	writer := client.New(pts.URL, nil)
	if _, err := writer.Update(context.Background(), api.UpdateRequest{Insert: obsTriples("ryw", 77)}); err != nil {
		t.Fatal(err)
	}
	want, err := writer.Query(context.Background(), api.QueryRequest{Query: apexQuery})
	if err != nil {
		t.Fatal(err)
	}

	reader := client.New(rts.URL, nil)
	reader.ObserveGeneration(writer.Generation())
	got, err := reader.Query(context.Background(), api.QueryRequest{Query: apexQuery})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("stale read through the gate: got %v, want %v", got.Rows, want.Rows)
	}

	// The redirect is a 307 to the primary when followed by hand.
	req, err := http.NewRequest(http.MethodGet, rts.URL+"/v1/query", nil)
	if err != nil {
		t.Fatal(err)
	}
	q := req.URL.Query()
	q.Set("q", apexQuery)
	req.URL.RawQuery = q.Encode()
	req.Header.Set(api.HeaderMinGeneration, fmt.Sprintf("%d", writer.Generation()))
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := noFollow.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("gated read status %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc == "" {
		t.Fatal("307 without a Location header")
	}

	// A floor the replica already satisfies is served locally.
	local := client.New(rts.URL, nil)
	if _, err := local.Query(context.Background(), api.QueryRequest{Query: apexQuery}); err != nil {
		t.Fatal(err)
	}
}

// TestWALStreamEndpointErrors pins the stream's refusal codes: a resume
// version behind the last checkpoint is 410 wal_truncated, one ahead of the
// primary is 409 wal_gap, and non-durable or replica servers are 503.
func TestWALStreamEndpointErrors(t *testing.T) {
	psrv, pts, _ := newDurableServer(t, t.TempDir())
	var up api.UpdateResponse
	if code := postJSON(t, pts.URL+"/v1/update", api.UpdateRequest{Insert: obsTriples("s", 5)}, &up); code != 200 {
		t.Fatalf("update status %d", code)
	}
	if _, err := psrv.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	var env api.ErrorResponse
	if code := getJSON(t, pts.URL+"/v1/wal?from=0", &env); code != http.StatusGone || env.Error.Code != api.CodeWALTruncated {
		t.Fatalf("stale from: status %d code %q, want 410 %q", code, env.Error.Code, api.CodeWALTruncated)
	}
	ahead := psrv.System().GraphVersion() + 100
	if code := getJSON(t, fmt.Sprintf("%s/v1/wal?from=%d", pts.URL, ahead), &env); code != http.StatusConflict || env.Error.Code != api.CodeWALGap {
		t.Fatalf("future from: status %d code %q, want 409 %q", code, env.Error.Code, api.CodeWALGap)
	}

	_, mts := newTestServer(t, Config{}) // memory-only: no log to stream
	if code := getJSON(t, mts.URL+"/v1/wal", &env); code != http.StatusServiceUnavailable {
		t.Fatalf("memory-only stream status %d, want 503", code)
	}
	if code := getJSON(t, mts.URL+"/v1/checkpoint", &env); code != http.StatusServiceUnavailable {
		t.Fatalf("memory-only archive status %d, want 503", code)
	}
}
