package persist

import (
	"log/slog"
	"time"
)

// RecoveryStats reports what one recovery (core.Restore) did — surfaced
// through the server's /v1/stats endpoint and the boot log so operators can
// verify that recovery replayed only the WAL suffix, not the whole history.
// It lives here rather than in core so the API layer can reference it
// without importing the system builder.
type RecoveryStats struct {
	// Checkpoint identity and the state it restored directly.
	CheckpointSeq        uint64 `json:"checkpoint_seq"`
	CheckpointVersion    int64  `json:"checkpoint_graph_version"`
	CheckpointGeneration int64  `json:"checkpoint_generation"`
	RestoredViews        int    `json:"restored_views"`
	RestoredTriples      int    `json:"restored_triples"`

	// WAL replay outcome.
	ReplayedBatches int `json:"replayed_batches"`
	ReplayedTriples int `json:"replayed_triples"` // Σ|ΔG| over replayed batches
	SkippedBatches  int `json:"skipped_batches"`  // already inside the checkpoint
	// EagerRefreshes counts refresh runs, not eager records: replay folds a
	// run of consecutive eager records into one refresh (see core.Restore).
	EagerRefreshes int `json:"eager_refreshes"`
	// IncrementalRefreshes counts view refreshes, over all runs, that took
	// the incremental path.
	IncrementalRefreshes int  `json:"incremental_refreshes"`
	TornTail             bool `json:"torn_tail"` // final record cut by the crash; never acknowledged

	// Final state and cost.
	Generation     int64         `json:"generation"`
	GraphVersion   int64         `json:"graph_version"`
	SnapshotLoad   time.Duration `json:"-"`
	CatalogRestore time.Duration `json:"-"`
	Replay         time.Duration `json:"-"`
	// Elapsed is at least max(SnapshotLoad, CatalogRestore) + Replay: the
	// snapshot load and the catalog decode run side by side, each timed on
	// its own goroutine, so the three phases may sum past it.
	Elapsed time.Duration `json:"-"`

	// Microsecond mirrors for JSON consumers.
	SnapshotLoadUS   int64 `json:"snapshot_load_us"`
	CatalogRestoreUS int64 `json:"catalog_restore_us"`
	ReplayUS         int64 `json:"replay_us"`
	ElapsedUS        int64 `json:"elapsed_us"`
}

// LogRecovery writes a one-line replay summary to the structured logger —
// the boot-time progress line sofos-serve emits.
func (r *RecoveryStats) LogRecovery() {
	slog.Info("recovered checkpoint",
		"checkpoint_seq", r.CheckpointSeq,
		"generation", r.Generation,
		"triples", r.RestoredTriples,
		"views", r.RestoredViews,
		"wal_batches", r.ReplayedBatches,
		"wal_triples", r.ReplayedTriples,
		"wal_skipped", r.SkippedBatches,
		"refreshes", r.EagerRefreshes,
		"torn_tail", r.TornTail,
		"elapsed", r.Elapsed.Round(time.Millisecond),
		"snapshot_load", r.SnapshotLoad.Round(time.Millisecond),
		"catalog_restore", r.CatalogRestore.Round(time.Millisecond),
		"replay", r.Replay.Round(time.Millisecond))
}
