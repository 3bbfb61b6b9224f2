package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"sofos/internal/api"
	"sofos/internal/core"
	"sofos/internal/persist"
)

// Primary side of replication: serve the write-ahead log as a record stream
// (GET /v1/wal), serve the newest checkpoint as a bootstrap archive (GET
// /v1/checkpoint), and track replica progress reports (POST /v1/replica/ack)
// — which is what "ack":"replicas:N" updates wait on.

// Stream pacing: how often the /v1/wal handler re-polls a drained log, and
// how often it emits a heartbeat (primary generation + version) to an idle
// stream so replicas can report zero lag without record traffic.
const (
	walStreamPoll      = 25 * time.Millisecond
	walStreamHeartbeat = 500 * time.Millisecond
)

// replicaTracker follows every replica's applied progress on a primary.
// Progress reports only ever move a replica forward; waiters are woken by a
// broadcast channel that report() closes and replaces.
type replicaTracker struct {
	mu       sync.Mutex
	replicas map[string]*replicaProgress
	bcast    chan struct{}
}

// replicaProgress is one replica's last reported state.
type replicaProgress struct {
	version    int64
	generation int64
	lastSeen   time.Time
}

func newReplicaTracker() *replicaTracker {
	return &replicaTracker{
		replicas: make(map[string]*replicaProgress),
		bcast:    make(chan struct{}),
	}
}

// report records one replica's applied progress (ratcheted — a late or
// duplicate report never moves a replica backwards) and wakes ack waiters.
func (t *replicaTracker) report(id string, version, generation int64) {
	t.mu.Lock()
	p := t.replicas[id]
	if p == nil {
		p = &replicaProgress{}
		t.replicas[id] = p
	}
	if version > p.version {
		p.version = version
	}
	if generation > p.generation {
		p.generation = generation
	}
	p.lastSeen = time.Now()
	close(t.bcast)
	t.bcast = make(chan struct{})
	t.mu.Unlock()
}

// countAtLocked counts replicas whose applied version covers version.
func (t *replicaTracker) countAtLocked(version int64) int {
	n := 0
	for _, p := range t.replicas {
		if p.version >= version {
			n++
		}
	}
	return n
}

// waitFor blocks until n replicas report an applied version >= version,
// returning how many had when it decided. A timeout or canceled request
// returns the count reached plus an error; the batch itself is already
// committed and locally durable either way.
func (t *replicaTracker) waitFor(ctx context.Context, n int, version int64, timeout time.Duration) (int, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		t.mu.Lock()
		got := t.countAtLocked(version)
		ch := t.bcast
		t.mu.Unlock()
		if got >= n {
			return got, nil
		}
		select {
		case <-ch:
		case <-deadline.C:
			return got, fmt.Errorf("timed out after %s waiting for %d replica(s) to reach version %d", timeout, n, version)
		case <-ctx.Done():
			return got, fmt.Errorf("request canceled while waiting for replicas: %w", ctx.Err())
		}
	}
}

// snapshot renders tracked replicas for /v1/stats, sorted by ID.
func (t *replicaTracker) snapshot(currentVersion int64) []api.ReplicaInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]api.ReplicaInfo, 0, len(t.replicas))
	for id, p := range t.replicas {
		lag := currentVersion - p.version
		if lag < 0 {
			lag = 0
		}
		out = append(out, api.ReplicaInfo{
			ID:          id,
			Version:     p.version,
			Generation:  p.generation,
			LagVersions: lag,
			LastSeenMS:  time.Since(p.lastSeen).Milliseconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// handleReplicaAck records one replica's progress report.
func (s *Server) handleReplicaAck(w http.ResponseWriter, r *http.Request) {
	if s.role != RolePrimary {
		httpError(w, http.StatusServiceUnavailable, api.CodeUnavailable,
			"only a primary accepts replica progress reports")
		return
	}
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "POST a progress report")
		return
	}
	var req api.ReplicaAckRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
		return
	}
	if req.ID == "" {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "progress report needs a replica id")
		return
	}
	s.tracker.report(req.ID, req.Version, req.Generation)
	writeJSON(w, http.StatusOK, api.ReplicaAckResponse{OK: true})
}

// handleWALStream serves the replication stream: NDJSON api.WALEvent lines —
// records (the durable payload bytes, bit-exact), heartbeats while idle, and
// a terminal error event when the version chain cannot be continued. The
// "from" parameter is the caller's applied graph version; a caller older
// than the last checkpoint gets 410 Gone and must re-bootstrap from
// /v1/checkpoint, because the records it needs were truncated.
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET the stream")
		return
	}
	if s.role != RolePrimary {
		httpError(w, http.StatusServiceUnavailable, api.CodeUnavailable,
			"replicas do not serve the replication stream; connect to the primary")
		return
	}
	if s.dur == nil {
		httpError(w, http.StatusServiceUnavailable, api.CodeUnavailable,
			"replication requires a durable primary (start with -data-dir)")
		return
	}
	var from int64
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, api.CodeBadRequest, "bad from parameter %q", v)
			return
		}
		from = n
	}
	// Staleness pre-check: everything at or before the last checkpoint's
	// version has been truncated from the log, so a caller behind it can
	// never chain — tell it to re-bootstrap instead of letting the cursor
	// discover the gap record by record.
	var fromSeq uint64
	if m := s.lastCheckpoint.Load(); m != nil {
		if from < m.GraphVersion {
			httpError(w, http.StatusGone, api.CodeWALTruncated,
				"the log no longer holds versions %d..%d; re-bootstrap from /v1/checkpoint",
				from, m.GraphVersion)
			return
		}
		// Older segments hold only batches inside that checkpoint.
		fromSeq = m.WALSeq
	}
	// A caller ahead of the primary has state this log never produced
	// (a stale primary URL, a wiped data dir): it must also re-bootstrap.
	if v := s.system().GraphVersion(); from > v {
		httpError(w, http.StatusConflict, api.CodeWALGap,
			"from version %d is ahead of the primary's %d; re-bootstrap from /v1/checkpoint", from, v)
		return
	}

	cur := persist.OpenWALCursor(s.dur.Dir.WALDir(), fromSeq, from)
	defer cur.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	beat := func() bool {
		sys := s.system()
		err := enc.Encode(api.WALEvent{
			Heartbeat:  true,
			Generation: sys.Generation(),
			Version:    sys.GraphVersion(),
		})
		flush()
		return err == nil
	}
	if !beat() { // tell the replica where the primary is right away
		return
	}
	lastBeat := time.Now()
	for {
		rec, seq, err := s.nextWALRecord(cur)
		switch {
		case err == nil:
			if enc.Encode(api.WALEvent{Seq: seq, Record: rec.Encode()}) != nil {
				return // client gone
			}
			flush()
		case errors.Is(err, persist.ErrWALNoMore):
			select {
			case <-r.Context().Done():
				return
			case <-time.After(walStreamPoll):
			}
			if time.Since(lastBeat) >= walStreamHeartbeat {
				if !beat() {
					return
				}
				lastBeat = time.Now()
			}
		case errors.Is(err, persist.ErrWALGap):
			// A checkpoint truncated records the cursor had not read yet.
			_ = enc.Encode(api.WALEvent{Error: &api.Error{Code: api.CodeWALGap, Message: err.Error()}})
			flush()
			return
		default:
			slog.Warn("wal stream to replica failed", "err", err)
			_ = enc.Encode(api.WALEvent{Error: &api.Error{Code: api.CodeInternal, Message: err.Error()}})
			flush()
			return
		}
	}
}

// nextWALRecord is one step of the replication stream: the cursor's next
// record, ErrWALNoMore while it is idle at the head of the log, or an error
// that ends the stream. A checkpoint rotates the log — flushing every record
// at or below its version — before it is published, so a cursor that goes
// idle below the version of a checkpoint published before the read can only
// have stepped over segments that checkpoint truncated: the records it
// needs are gone, and it reports ErrWALGap instead of waiting for a write
// that may never come.
func (s *Server) nextWALRecord(cur *persist.WALCursor) (*persist.Record, uint64, error) {
	cp := s.lastCheckpoint.Load()
	rec, seq, err := cur.Next()
	if errors.Is(err, persist.ErrWALNoMore) && cp != nil && cur.Version() < cp.GraphVersion {
		return nil, 0, fmt.Errorf("%w: the stream is idle at version %d but checkpoint %d holds version %d and truncated the records between",
			persist.ErrWALGap, cur.Version(), cp.Sequence, cp.GraphVersion)
	}
	return rec, seq, err
}

// handleCheckpointArchive streams the newest checkpoint as a tar archive —
// the replica bootstrap path. If a concurrent checkpoint replaces the
// directory between resolving CURRENT and opening the files, the resolve is
// retried once; past the first body byte a failure can only truncate the
// stream (the client's unpack validates completeness).
func (s *Server) handleCheckpointArchive(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET the archive")
		return
	}
	if s.role != RolePrimary {
		httpError(w, http.StatusServiceUnavailable, api.CodeUnavailable,
			"replicas do not serve bootstrap archives; connect to the primary")
		return
	}
	if s.dur == nil {
		httpError(w, http.StatusServiceUnavailable, api.CodeUnavailable,
			"bootstrap archives require a durable primary (start with -data-dir)")
		return
	}
	cw := &countingWriter{w: w}
	for attempt := 0; ; attempt++ {
		cp, err := s.dur.Dir.LatestCheckpoint()
		if err != nil {
			httpError(w, http.StatusInternalServerError, api.CodeInternal, "resolving checkpoint: %v", err)
			return
		}
		if cp == nil {
			httpError(w, http.StatusServiceUnavailable, api.CodeUnavailable,
				"no checkpoint exists yet; try again after the boot checkpoint")
			return
		}
		w.Header().Set("Content-Type", "application/x-tar")
		err = cp.WriteArchive(cw)
		if err == nil {
			return
		}
		if cw.n == 0 && errors.Is(err, os.ErrNotExist) && attempt == 0 {
			continue // checkpoint replaced underneath us; re-resolve
		}
		if cw.n == 0 {
			httpError(w, http.StatusInternalServerError, api.CodeInternal, "archiving checkpoint: %v", err)
		} else {
			slog.Warn("checkpoint archive truncated mid-stream", "err", err)
		}
		return
	}
}

// countingWriter tracks whether any body byte has been written, so the
// archive handler knows if an error envelope is still possible.
type countingWriter struct {
	w http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// replicationStatsNow renders the /v1/stats replication section for either
// role. Callers hold the read lock.
func (s *Server) replicationStatsNow(sys *core.System) *api.ReplicationStats {
	if s.role == RoleReplica {
		return s.repl.statsNow(sys)
	}
	return &api.ReplicationStats{
		Role:     RolePrimary,
		Replicas: s.tracker.snapshot(sys.GraphVersion()),
	}
}

// replicaLag reports how many generations this server trails its primary
// (0 on a primary).
func (s *Server) replicaLag(sys *core.System) int64 {
	if s.repl == nil {
		return 0
	}
	return s.repl.lag(sys)
}
