// Package views implements view computation and materialization (§3.1 of
// the SOFOS paper). A view's contents are computed either directly from the
// base graph G or by rolling up an already-materialized finer view, and kept
// as a persistent group table. The paper encodes each view back into RDF as
// blank nodes carrying the aggregation values — a generalization of the
// MARVEL encoding — in a view graph V, with the expanded graph G+ = G ∪ V.
// Here G+ is the logical model: Encode renders that encoding, the catalog
// counts its size (Materialized.Triples, AddedTriples) by Encode's rule, and
// V itself is built from the tables only when asked for (ViewGraph,
// ExpandedEngine: the paper-fidelity star join, its tests and export). No
// answer, refresh or restore reads or writes V; G is never copied.
//
// The Catalog is the package's center: it tracks which views of a facet are
// materialized, holds each one's record, and routes each materialization
// through the cheapest source (base computation or ancestor roll-up). Every
// change to the records is a read-only plan and a serial commit:
// PlanMaterialize computes a batch's views on a bounded worker pool in
// cover-order waves (a view a finer batch member covers rolls up from that
// member's planned contents) and CommitMaterialize records them;
// PlanRefresh/CommitRefresh do the same for stale views. Materialize(v) and
// RefreshAllParallel only compose a plan with its commit. View answers read
// the group tables (package rewrite); base answers read G alone.
//
// Maintenance: ApplyUpdate, the only way to update, mutates G only,
// captures the batch's effective delta (store.Delta) into a per-catalog
// log, turning materialized views stale (the memoized Stale/StaleViews
// compare each record's base version against Graph.Version). A refresh
// brings each view up to date by the cheapest sound path: for
// self-maintainable facets (COUNT/SUM, AVG via the stored
// (Sum, Count) companions, MIN/MAX under insertion) whose staleness window
// the delta log covers, it evaluates the facet pattern on the delta only
// (once per staleness window for all views stale since the same version,
// seeds split across the workers), projects the solutions onto each view's
// dimensions and applies per-group deltas in place — O(|ΔG|), with group
// births and deaths decided by per-group contribution counts (Group.N) —
// falling back
// to a full recompute exactly when a delete touches a MIN/MAX extremum or
// the pattern/log is ineligible (see incremental.go and MaintenanceMode).
// A view's groups are a persistent table sorted by key in fixed-size chunks
// (grouptable.go): a refresh copies only the chunks its deltas touch and
// shares the rest with the record it replaces, so its cost follows |ΔG|, not
// the size of the view.
// Because planning only reads, a serving layer plans against a published
// snapshot while queries flow and serializes just the short commit.
// Generation counts every committed catalog mutation
// and, with ViewSetHash, gives caches an exact invalidation key.
package views
