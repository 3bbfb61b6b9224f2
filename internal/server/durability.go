package server

import (
	"log/slog"
	"net/http"
	"time"

	"sofos/internal/api"
	"sofos/internal/core"
	"sofos/internal/persist"
)

// Durability wires a server to its data directory: the open write-ahead log
// every committed /update batch is appended to before acknowledgement, the
// checkpoint directory, the dataset identity stamped into manifests, and the
// recovery stats of the boot that produced the served system (nil after a
// fresh, non-recovered boot). When Config.Durability is nil the server is
// memory-only — the pre-persistence behavior.
type Durability struct {
	Dir     *persist.Dir
	Log     *persist.Log
	Dataset string
	Scale   int
	Seed    int64

	// Recovery reports what boot-time restore did, surfaced via /stats.
	Recovery *core.RecoveryStats
}

// Checkpoint durably snapshots the published graph and catalog state,
// rotates the WAL, and truncates segments the checkpoint made redundant. It
// holds the chain's writer mutex: queries keep flowing against the published
// snapshot (readers never touch that mutex), writers stall until the
// snapshot is on disk, and two checkpoints never interleave. Serving layers
// call it on the -checkpoint-interval ticker; clients trigger it via POST
// /v1/admin/checkpoint.
func (s *Server) Checkpoint() (*persist.Manifest, error) {
	if s.dur == nil {
		return nil, errNoDurability
	}
	var m *persist.Manifest
	err := s.chain.Exclusive(func(st *core.GenerationState) error {
		var cperr error
		m, cperr = s.checkpointState(st.Sys)
		return cperr
	})
	return m, err
}

// errNoDurability distinguishes "not configured" from checkpoint failures.
var errNoDurability = &noDurabilityError{}

type noDurabilityError struct{}

func (*noDurabilityError) Error() string {
	return "server is memory-only: no data directory configured"
}

// checkpointState is Checkpoint under an already-held chain writer mutex:
// callers either run inside Chain.Exclusive (interval ticker,
// /admin/checkpoint) or inside an open writer transaction (the update path's
// healing and view-change checkpoints, which snapshot the pending fork
// before publishing it — durable before visible). Holding the writer mutex
// is what makes the snapshot sound: no writer can move the state or append
// to the WAL mid-checkpoint, while readers keep answering against the
// published pointer. Rotating the WAL first lets the manifest record exactly
// where replay resumes: every record in older segments is covered by the
// snapshot being written.
func (s *Server) checkpointState(sys *core.System) (*persist.Manifest, error) {
	seq, err := s.dur.Log.Rotate()
	if err != nil {
		return nil, err
	}
	// When the graph still matches the paged snapshot it was restored from
	// (read-mostly serving between checkpoints), the checkpoint hard-links
	// that file instead of re-serializing every run.
	src := persist.SnapshotSource{Write: sys.Graph.Save}
	src.LinkPath, _ = sys.Graph.PagedSource()
	cp, err := s.dur.Dir.WriteCheckpointFrom(persist.Manifest{
		Dataset:      s.dur.Dataset,
		Scale:        s.dur.Scale,
		Seed:         s.dur.Seed,
		GraphVersion: sys.GraphVersion(),
		Generation:   sys.Generation(),
		WALSeq:       seq,
		BaseTriples:  sys.Graph.Len(),
		Views:        len(sys.Catalog.Materialized()),
		CreatedUnix:  time.Now().Unix(),
	}, src, sys.Catalog.SaveState)
	if err != nil {
		return nil, err
	}
	// The freshly published snapshot is a faithful paged image of the current
	// content; future unchanged checkpoints can link it in turn.
	sys.Graph.AdoptPagedSource(cp.GraphPath())
	if _, err := s.dur.Log.TruncateBefore(seq); err != nil {
		// The checkpoint is complete and correct; stale segments only cost
		// disk until the next truncation succeeds.
		slog.Warn("checkpoint written but wal truncation failed",
			"checkpoint_seq", cp.Manifest.Sequence, "err", err)
	}
	s.lastCheckpoint.Store(&cp.Manifest)
	s.checkpoints.Add(1)
	return &cp.Manifest, nil
}

// persistViewChange checkpoints a catalog mutation that the WAL does not
// capture — view-set changes and manual refreshes — before it is published.
// Updates are replayed from the log; everything else becomes durable by
// snapshotting the pending state inside the writer transaction that produced
// it, so a crash at any point recovers a state the client was actually told
// about, and a state that failed to persist is never published at all. It
// reports whether the caller may publish and acknowledge; on failure it has
// already written the error response, and the caller aborts the transaction
// (nothing applied — the snapshot-chain advantage over the in-place model,
// which could only warn that the live change would not survive a restart).
func (s *Server) persistViewChange(w http.ResponseWriter, action string, sys *core.System) bool {
	if s.dur == nil {
		return true
	}
	if _, err := s.checkpointState(sys); err != nil {
		httpError(w, http.StatusInternalServerError, api.CodeInternal,
			"%s failed to reach a checkpoint: %v; the change was rolled back (nothing applied)",
			action, err)
		return false
	}
	return true
}

// handleAdminCheckpoint triggers a checkpoint on demand.
func (s *Server) handleAdminCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.rejectReplicaWrite(w) {
		return
	}
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "POST to checkpoint")
		return
	}
	start := time.Now()
	m, err := s.Checkpoint()
	if err == errNoDurability {
		httpError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "%v (start with -data-dir)", err)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, api.CodeInternal, "checkpoint failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, api.CheckpointResponse{
		Manifest:  m,
		ElapsedUS: time.Since(start).Microseconds(),
	})
}

// persistStatsNow snapshots the durability section, or nil when memory-only.
func (s *Server) persistStatsNow() *api.PersistStats {
	if s.dur == nil {
		return nil
	}
	ps := &api.PersistStats{
		DataDir:     s.dur.Dir.Path(),
		WAL:         s.dur.Log.Stats(),
		WALGap:      s.walGap.Load(),
		Checkpoints: s.checkpoints.Load(),
		Recovery:    s.dur.Recovery,
	}
	if m := s.lastCheckpoint.Load(); m != nil {
		ps.LastCheckpointSeq = m.Sequence
		ps.LastCheckpointGeneration = m.Generation
	}
	return ps
}
