package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"sofos/internal/algebra"
	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/persist"
	"sofos/internal/rdf"
	"sofos/internal/rewrite"
	"sofos/internal/sparql"
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
// catalog, so recovery cost is O(snapshot + |Δ log suffix|), never a
// rematerialization. The facet must match the one the directory was written
// under (resolve it from the manifest's dataset).
//
// The catalog state is read and decoded (views.ReadState) on a second
// goroutine while the snapshot loads on the caller's, since decoding group
// tables never touches the graph; the decoded state is bound to the loaded
// graph once both are done, and the decoder is always joined before Restore
// returns or replays anything. Each phase is timed on its own goroutine, so
// the snapshot-load and catalog-restore phases of RecoveryStats may overlap.
//
// Replay is deferred maintenance: each record's inserts and deletes are
// applied as they were live, but a run of consecutive eager records shares
// one refresh, run before the next lazy record and at the end of the log —
// one delta join over the run's net ΔG instead of one per record. Nothing
// is published until Restore returns, so no reader can tell the difference:
// every lazy record sees the views exactly as stale as they were live, and
// the run ends on the generation its last record was acknowledged at. The
// one thing a fold could change is floating-point rounding, since SUM and
// AVG add a run's values in a different order than the live refreshes did
// (and net an insert against a later delete of the same triple). A fold is
// therefore taken only while that arithmetic is exact: for SUM and AVG
// facets, every stored group total restored from the checkpoint and every
// numeric literal in the replayed records must be an integer, and their
// magnitudes together must stay below 2^53. From the first record that
// breaks the rule on, each eager record is replayed with its own refresh,
// as ReplayRecord does.
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

	// Catalog state: materialized views come back as their stored group
	// tables, not as recomputations of their defining queries, decoded on a
	// goroutine of its own while the snapshot loads on this one. The channel
	// is unbuffered, so a return that skipped the receive below would leak
	// the decoder.
	decoded := make(chan catalogState)
	go func() {
		start := time.Now()
		var d catalogState
		var raw []byte
		if raw, d.err = os.ReadFile(cp.CatalogPath()); d.err == nil {
			d.state, d.err = views.ReadState(f, raw)
		}
		d.took = time.Since(start)
		decoded <- d
	}()

	// Snapshot load: the base graph, with its saved version counter
	// reinstated so WAL version intervals line up across the restart. The
	// snapshot is mapped on unix: its pages are read once to check their
	// CRCs, then served from the OS page cache, never copied onto the heap.
	loadStart := time.Now()
	g, err := store.LoadFile(cp.GraphPath())
	stats.SnapshotLoad = time.Since(loadStart)
	cs := <-decoded
	if err != nil {
		return nil, nil, fmt.Errorf("core: loading graph snapshot: %w", err)
	}
	if cs.err != nil {
		return nil, nil, fmt.Errorf("core: restoring catalog state: %w", cs.err)
	}
	g.SetVersion(cp.Manifest.GraphVersion)
	stats.RestoredTriples = g.Len()

	bindStart := time.Now()
	engOpts := engine.Options{Workers: opts.Workers}
	catalog := cs.state.Catalog(g, engOpts)
	stats.RestoredViews = len(catalog.Materialized())
	stats.CatalogRestore = cs.took + time.Since(bindStart)

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

	// WAL replay. The cursor starts at the checkpoint's segment and version,
	// so it passes over the batches the snapshot already holds and checks the
	// version chain.
	replayStart := time.Now()
	cur := persist.OpenWALCursor(dir.WALDir(), cp.Manifest.WALSeq, cp.Manifest.GraphVersion)
	defer cur.Close()
	fold := newFoldRule(sys.Catalog)
	var deferred *persist.Record // last eager record whose refresh is pending
	flush := func() error {
		if deferred == nil {
			return nil
		}
		rec := deferred
		deferred = nil
		if err := replayRefresh(sys, rec, stats); err != nil {
			return err
		}
		sys.Catalog.SetGeneration(rec.Generation)
		return nil
	}
	for {
		rec, _, err := cur.Next()
		if errors.Is(err, persist.ErrWALNoMore) {
			break
		}
		if err == nil {
			if fold.admits(rec) && rec.Eager {
				if err = applyRecord(sys, rec, stats); err == nil {
					deferred = rec
				}
			} else if err = flush(); err == nil {
				err = ReplayRecord(sys, rec, stats)
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("core: replaying wal: %w", err)
		}
	}
	if err := flush(); err != nil {
		return nil, nil, fmt.Errorf("core: replaying wal: %w", err)
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

// catalogState is what Restore's decoder goroutine hands back: the decoded
// catalog state or the error that stopped it, and how long it took.
type catalogState struct {
	state *views.State
	err   error
	took  time.Duration
}

// ReplayRecord re-applies one durably logged batch to a system with its own
// maintenance: a replica's apply loop feeds it every record tailed from the
// primary's /v1/wal stream, and recovery uses it for each record it does not
// fold into a run (see Restore) — the same incremental O(|ΔG|) maintenance
// path a live /update takes, landing on the exact generation the batch was
// acknowledged at. stats may be nil.
func ReplayRecord(sys *System, rec *persist.Record, stats *RecoveryStats) error {
	if stats == nil {
		stats = &RecoveryStats{}
	}
	if err := applyRecord(sys, rec, stats); err != nil {
		return err
	}
	if rec.Eager {
		if err := replayRefresh(sys, rec, stats); err != nil {
			return err
		}
	}
	// Land on the exact generation the batch was acknowledged at, whatever
	// mix of lazy and eager maintenance produced it live.
	sys.Catalog.SetGeneration(rec.Generation)
	return nil
}

// applyRecord applies one logged batch's inserts and deletes to the base
// graph through the catalog, leaving the views stale. It does not touch the
// generation: the caller sets it once the batch's maintenance has run.
func applyRecord(sys *System, rec *persist.Record, stats *RecoveryStats) error {
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
	stats.ReplayedBatches++
	stats.ReplayedTriples += rec.Len()
	return nil
}

// replayRefresh runs one eager refresh of every stale view; rec is the last
// batch it covers, named in errors.
func replayRefresh(sys *System, rec *persist.Record, stats *RecoveryStats) error {
	plan, err := sys.Catalog.PlanRefresh(sys.Workers)
	if err == nil {
		_, err = sys.Catalog.CommitRefresh(plan)
	}
	if err != nil {
		return fmt.Errorf("replaying eager refresh for batch %d→%d: %w", rec.FromVersion, rec.ToVersion, err)
	}
	if plan != nil {
		stats.IncrementalRefreshes += plan.Incremental()
	}
	stats.EagerRefreshes++
	return nil
}

// foldRule decides which records Restore may fold into a shared refresh
// of a SUM or AVG facet: only while the sums stay exact integers (see
// Restore). COUNT, MIN and MAX results do not depend on the order values
// arrive in, so their rule is nil and admits every record.
type foldRule struct {
	unchecked *views.Catalog // restored catalog whose totals are not yet checked
	exact     bool
	budget    float64 // magnitude left before a sum could leave the exact range
}

// exactRange bounds the stored totals and, separately, the replayed values:
// two magnitudes below 10^15 sum to less than 2^53 ≈ 9.007·10^15, below
// which every float64 integer sum is exact in any order.
const exactRange = 1e15

func newFoldRule(c *views.Catalog) *foldRule {
	if agg := c.Facet().Agg; agg != sparql.AggSum && agg != sparql.AggAvg {
		return nil
	}
	return &foldRule{unchecked: c, budget: exactRange}
}

// admits reports whether rec may join a fold. It must see every replayed
// record, lazy ones included, because their values reach the sums too; a
// refusal is final, as the sums may no longer be integers. The restored
// totals are checked on the first record, so a restore with nothing to
// replay never scans them.
func (r *foldRule) admits(rec *persist.Record) bool {
	if r == nil {
		return true
	}
	if r.unchecked != nil {
		r.exact = exactTotals(r.unchecked)
		r.unchecked = nil
	}
	for _, ts := range [2][]rdf.Triple{rec.Inserts, rec.Deletes} {
		for _, t := range ts {
			if !r.exact {
				return false
			}
			if f, ok := algebra.NumericValue(t.O); ok {
				r.budget -= math.Abs(f)
				r.exact = exactInteger(f) && r.budget > 0
			}
		}
	}
	return r.exact
}

// exactTotals reports whether every group total of a SUM or AVG catalog is
// an integer inside the exact range.
func exactTotals(c *views.Catalog) bool {
	sum := c.Facet().Agg == sparql.AggSum
	exact := true
	for _, m := range c.Materialized() {
		m.Data.Each(func(g views.Group) bool {
			total := g.Sum // AVG keeps its running sum here
			if sum && g.Agg.Bound {
				total, _ = algebra.NumericValue(g.Agg.Term)
			}
			exact = exactInteger(total)
			return exact
		})
		if !exact {
			return false
		}
	}
	return true
}

// exactInteger reports whether f is an integer inside the exact range.
func exactInteger(f float64) bool {
	return f == math.Trunc(f) && math.Abs(f) < exactRange
}
