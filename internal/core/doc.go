// Package core wires SOFOS together, implementing the architecture of
// Figure 2 of the paper: an offline module (view selection + view
// materialization) and an online module (query processing via rewriting,
// with performance comparison). It is the public face every example, CLI,
// benchmark, and the HTTP server drive.
//
// A System binds one knowledge graph G to one analytical facet F and owns
// the artifacts derived from them:
//
//   - the view lattice V(F) (facet.Lattice) — every granularity the facet
//     can be aggregated at;
//   - the catalog (views.Catalog) — the group tables of the currently
//     materialized views (the paper's expanded graph G+ is the logical union
//     G ∪ V, with the view graph V built from the tables on demand), plus
//     maintenance state;
//   - the rewriter (rewrite.Rewriter) — the online module answering queries
//     from the best usable view's group table, falling back to G;
//   - the cost-model suite (cost.Model) and the greedy selectors
//     (selection.Greedy / GreedyMemory) of the offline module.
//
// The usual lifecycle is New (or NewWithOptions to pin the worker count),
// SelectViews with a chosen cost model, Materialize, then Answer /
// RunWorkload; Refresh brings stale views up to date after ApplyUpdate
// batches. Generation, GraphVersion, and ViewSetHash expose the version
// counters a serving layer (internal/server) needs to key result caches and
// detect staleness without reaching into the catalog's internals.
package core
