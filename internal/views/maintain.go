package views

import (
	"fmt"
	"time"

	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/store"
)

// Maintenance: materialized views become stale when the base graph changes.
// The catalog tracks the base graph's version at materialization time,
// retains the effective delta of every committed update batch (the delta
// log of incremental.go), and refreshes stale views either by replaying the
// missed deltas in O(|ΔG|) — the self-maintainable path — or by recomputing
// their group tables from the base graph.

// ApplyUpdate commits one batched update — inserts first, then deletes — to
// the base graph G only: the group tables are untouched, so base triples
// (even ones spelled in the sofos: vocabulary) can never reach a
// view-answered query.
// Materialized views turn stale, and the batch's effective delta ΔG is
// captured into the maintenance log so the next refresh can apply it without
// a full scan. Inserts are validated up front; an error means nothing was
// applied.
func (c *Catalog) ApplyUpdate(inserts, deletes []rdf.Triple) (store.Delta, error) {
	d, err := c.base.Apply(inserts, deletes)
	if err != nil {
		return store.Delta{}, fmt.Errorf("views: applying update to base: %w", err)
	}
	if d.FromVersion == d.ToVersion {
		return d, nil // true no-op: nothing moved, views stay fresh
	}
	// An empty delta whose version interval moved (a batch that inserted and
	// deleted the same triples) still gets recorded: the log chain stays
	// contiguous, and the next refresh replays it for free.
	c.log.record(d)
	c.log.prune(c.minBaseVersion())
	if !d.Empty() {
		c.bump()
	}
	return d, nil
}

// minBaseVersion is the oldest base version any materialized view still
// reflects — deltas at or before it can never be replayed again.
func (c *Catalog) minBaseVersion() int64 {
	min := c.base.Version()
	for _, m := range c.mats {
		if m.baseVersion < min {
			min = m.baseVersion
		}
	}
	return min
}

// staleState memoizes the stale-view scan for one catalog state, keyed on
// (generation, base version): /stats and refresh planning no longer rescan
// every materialized view — each scan re-reading the base version under its
// lock — on every call.
type staleState struct {
	generation  int64
	baseVersion int64
	views       []facet.View
	masks       map[facet.Mask]bool
}

// staleNow returns the memoized stale set, rebuilding it only after the
// catalog state moved. Concurrent readers may rebuild redundantly; they
// store identical values. Callers must not mutate the returned state.
func (c *Catalog) staleNow() *staleState {
	gen, bv := c.generation.Load(), c.base.Version()
	if s := c.staleMemo.Load(); s != nil && s.generation == gen && s.baseVersion == bv {
		return s
	}
	s := &staleState{generation: gen, baseVersion: bv, masks: make(map[facet.Mask]bool)}
	for _, mat := range c.Materialized() {
		if mat.baseVersion != bv {
			s.views = append(s.views, mat.View())
			s.masks[mat.View().Mask] = true
		}
	}
	c.staleMemo.Store(s)
	return s
}

// Stale reports whether a materialized view was computed against an older
// version of the base graph.
func (c *Catalog) Stale(m facet.Mask) bool {
	return c.staleNow().masks[m]
}

// StaleViews lists the currently stale materialized views. The returned
// slice is shared with the memo; callers must not mutate it.
func (c *Catalog) StaleViews() []facet.View {
	return c.staleNow().views
}

// applyRefresh is CommitRefresh's full-recompute step: it swaps freshly
// computed view contents in for the current materialization of v, which the
// caller has checked is present. baseVersion is the base graph's version
// the fresh contents were computed against; recording it (rather than the
// commit-time version) keeps a view correctly marked stale when the base
// advanced mid-refresh.
func (c *Catalog) applyRefresh(v facet.View, fresh *Data, start time.Time, baseVersion int64) {
	triples, bytes := encodingSize(fresh)
	c.mats[v.Mask] = &Materialized{
		Data:    fresh,
		Triples: triples,
		Bytes:   bytes,
		Elapsed: time.Since(start),
		Maint: Maintenance{
			Mode:     c.maintMode.String(),
			LastPath: "full",
			LastCost: time.Since(start),
		},
		baseVersion: baseVersion,
	}
	c.bump()
}
