// Package store implements the dictionary-encoded, fully indexed in-memory
// triple store that serves as SOFOS's RDF substrate. A Graph maintains
// three columnar permutation indexes (SPO, POS, OSP) — sorted runs with
// binary-search range lookup plus a small LSM-style delta overlay, itself
// three sorted key slices per side (inserts, tombstones) — so that every
// triple-pattern shape, any combination of bound and unbound components, is
// answered by one contiguous range of the runs merged with one contiguous
// range of the overlay. This is the layout
// of native RDF stores such as RDF-3X/HDT and is what the paper assumes of
// "any RDF triple store with SPARQL query processing". The runs are
// block-compressed (block.go); a fixed-width flat layout exists only as the
// oracle differential tests compare against (NewGraphWithCodec).
//
// Concurrency: a Graph is safe for concurrent readers, with writes
// serialized by an internal mutex. Reads are snapshot-isolated per scan —
// an Iterator captures the immutable runs plus the in-range sub-slices of
// the overlay, found by binary search and shared rather than copied, so it
// never holds the graph lock while yielding and stays valid (returning the
// same triples) across concurrent mutations. Nothing a reader can hold is
// ever written again: compaction and bulk loads replace the runs wholesale,
// and every write batch merges its edits into fresh overlay slices
// (copy-on-write, O(|overlay| + |batch|)). That is what makes the
// zero-coordination parallel scans of internal/engine and the
// serve-during-maintenance behaviour of internal/server possible, and why
// a read beside a writer costs what a read on compacted runs costs.
//
// Beyond point mutations (Add/Remove), the store offers batched bulk paths
// (LoadTriples/LoadEncoded/RemoveTriples, BuildFrom) that take the write
// lock once and sort-merge into the runs; Clone, an independent copy, and
// Fork, the MVCC successor, which share runs, overlay and base
// component counts by reference and copy only the count adjustments since
// the last compaction; exact pattern-cardinality Estimate for the
// planner, per-predicate statistics (Stats), one binary snapshot format —
// the paged v3 layout, read onto the heap from a stream (Load) or opened from
// a file (LoadFile, which maps it on unix), with every payload CRC checked at
// open — and Version — a mutation counter view catalogs compare to
// detect staleness. Apply commits a whole insert+delete batch under one
// lock and returns its effective Delta (the triples actually added and
// removed, tagged with the version interval) so writers capture ΔG at
// commit time for incremental view maintenance; OverlayWith builds an
// O(|overlay| + |Δ|) read-only union of the graph and extra triples —
// sharing the immutable runs — which maintenance uses to evaluate
// delete-side joins against the pre-update state. The package's tests check
// Graph against NestedMapGraph, a nested-map model defined in
// reference_test.go.
package store
