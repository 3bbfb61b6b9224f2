package core

import (
	"errors"
	"fmt"
	"time"

	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/persist"
	"sofos/internal/rewrite"
	"sofos/internal/store"
	"sofos/internal/views"
)

// RecoveryStats reports what one Restore did — surfaced through the server's
// /v1/stats endpoint and the boot log. The type lives in persist so the API
// layer can reference it without importing core; this alias keeps the
// historical name.
type RecoveryStats = persist.RecoveryStats

// Restore constructs a warm system from a data directory: it loads the
// newest checkpoint's graph snapshot and catalog state, reinstates the saved
// version and generation counters, and replays the WAL suffix through the
// catalog — each recovered batch takes the same incremental O(|ΔG|)
// maintenance path a live /update does, so recovery cost is O(snapshot +
// |Δ log suffix|), never a rematerialization. The facet must match the one
// the directory was written under (resolve it from the manifest's dataset).
func Restore(dir *persist.Dir, f *facet.Facet, opts Options) (*System, *RecoveryStats, error) {
	start := time.Now()
	cp, err := dir.LatestCheckpoint()
	if err != nil {
		return nil, nil, err
	}
	if cp == nil {
		return nil, nil, fmt.Errorf("core: data dir %s has no checkpoint to restore from", dir.Path())
	}
	stats := &RecoveryStats{
		CheckpointSeq:        cp.Manifest.Sequence,
		CheckpointVersion:    cp.Manifest.GraphVersion,
		CheckpointGeneration: cp.Manifest.Generation,
	}

	// Snapshot load: the base graph, with its saved version counter
	// reinstated so WAL version intervals line up across the restart. The
	// snapshot is mapped on unix: its pages are read once to check their
	// CRCs, then served from the OS page cache, never copied onto the heap.
	loadStart := time.Now()
	g, err := store.LoadFile(cp.GraphPath())
	if err != nil {
		return nil, nil, fmt.Errorf("core: loading graph snapshot: %w", err)
	}
	g.SetVersion(cp.Manifest.GraphVersion)
	stats.SnapshotLoad = time.Since(loadStart)
	stats.RestoredTriples = g.Len()

	// Catalog state: materialized views come back as their stored group
	// tables, not as recomputations of their defining queries.
	catalogStart := time.Now()
	cr, err := cp.OpenCatalog()
	if err != nil {
		return nil, nil, fmt.Errorf("core: opening catalog state: %w", err)
	}
	engOpts := engine.Options{Workers: opts.Workers}
	catalog, err := views.RestoreCatalog(g, f, engOpts, cr)
	cr.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("core: restoring catalog state: %w", err)
	}
	stats.RestoredViews = len(catalog.Materialized())
	stats.CatalogRestore = time.Since(catalogStart)

	l, err := facet.NewLattice(f)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	sys := &System{
		Graph:    g,
		Facet:    f,
		Lattice:  l,
		Catalog:  catalog,
		Rewriter: rewrite.New(catalog),
		Workers:  engOpts.EffectiveWorkers(),
	}

	// WAL replay: re-apply every batch past the checkpoint through the same
	// catalog path a live /update takes, maintenance included. The cursor
	// starts at the checkpoint's segment and version, so it passes over the
	// batches the snapshot already holds and checks the version chain.
	replayStart := time.Now()
	cur := persist.OpenWALCursor(dir.WALDir(), cp.Manifest.WALSeq, cp.Manifest.GraphVersion)
	defer cur.Close()
	for {
		rec, _, err := cur.Next()
		if errors.Is(err, persist.ErrWALNoMore) {
			break
		}
		if err == nil {
			err = ReplayRecord(sys, rec, stats)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("core: replaying wal: %w", err)
		}
	}
	stats.Replay = time.Since(replayStart)
	stats.SkippedBatches = cur.Skipped()
	stats.TornTail = cur.Torn()
	stats.Generation = sys.Generation()
	stats.GraphVersion = g.Version()
	stats.Elapsed = time.Since(start)
	stats.SnapshotLoadUS = stats.SnapshotLoad.Microseconds()
	stats.CatalogRestoreUS = stats.CatalogRestore.Microseconds()
	stats.ReplayUS = stats.Replay.Microseconds()
	stats.ElapsedUS = stats.Elapsed.Microseconds()
	return sys, stats, nil
}

// ReplayRecord re-applies one durably logged batch to a system: recovery
// uses it for the WAL suffix after a checkpoint load, and a replica's apply
// loop feeds it every record tailed from the primary's /v1/wal stream — the
// same incremental O(|ΔG|) maintenance path a live /update takes, landing on
// the exact generation the batch was acknowledged at. stats may be nil.
func ReplayRecord(sys *System, rec *persist.Record, stats *RecoveryStats) error {
	if stats == nil {
		stats = &RecoveryStats{}
	}
	g := sys.Graph
	// Both callers open their cursor past the version they hold, so a record
	// that does not start exactly there — one the graph already covers
	// included — means the log and the state diverged.
	if rec.FromVersion != g.Version() {
		return fmt.Errorf("wal gap: record spans versions %d→%d but the graph is at %d",
			rec.FromVersion, rec.ToVersion, g.Version())
	}
	if _, err := sys.Catalog.ApplyUpdate(rec.Inserts, rec.Deletes); err != nil {
		return fmt.Errorf("re-applying batch %d→%d: %w", rec.FromVersion, rec.ToVersion, err)
	}
	if g.Version() != rec.ToVersion {
		// A batch that inserted and deleted the same new triples moved the
		// version without a net delta; resume the recorded numbering. The
		// catalog's delta-log chain breaks at this point, so the next refresh
		// of any still-stale view falls back to a full recompute — correct,
		// just slower, and only for this rare shape.
		g.SetVersion(rec.ToVersion)
	}
	if rec.Eager {
		plan, err := sys.Catalog.PlanRefresh(sys.Workers)
		if err != nil {
			return fmt.Errorf("replaying eager refresh for batch %d→%d: %w", rec.FromVersion, rec.ToVersion, err)
		}
		if plan != nil {
			stats.IncrementalRefreshes += plan.Incremental()
		}
		if _, err := sys.Catalog.CommitRefresh(plan); err != nil {
			return fmt.Errorf("replaying eager refresh for batch %d→%d: %w", rec.FromVersion, rec.ToVersion, err)
		}
		stats.EagerRefreshes++
	}
	// Land on the exact generation the batch was acknowledged at, whatever
	// mix of lazy and eager maintenance produced it live.
	sys.Catalog.SetGeneration(rec.Generation)
	stats.ReplayedBatches++
	stats.ReplayedTriples += rec.Len()
	return nil
}
