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
// Concurrency: a Graph has any number of readers, or one owner that writes
// while no one reads; it holds no lock. MVCC gets both at once by forking:
// Fork shares everything immutable with the receiver, the writer mutates
// only the fork, and the receiver, once published, is never written again
// (internal/core's Chain serializes the writers). Reads are
// snapshot-isolated per scan — an Iterator captures the immutable runs plus
// the in-range sub-slices of the overlay, found by binary search and shared
// rather than copied, so it never reads the Graph while yielding and stays
// valid (returning the same triples) after the owner writes again. Nothing a
// reader or a fork can hold is ever written again: compaction and bulk loads
// replace the runs wholesale, and every write batch merges its edits into
// fresh overlay slices (copy-on-write, O(|overlay| + |batch|)). The term
// dictionary is the one shared mutable part: it is append-only and
// synchronized inside, so a fork interning new terms changes no answer of
// its parent. That is what makes the zero-coordination parallel scans of
// internal/engine and the serve-during-maintenance behaviour of
// internal/server possible, and why a read beside a writer costs what a
// read on compacted runs costs.
//
// Writes go through Apply (below) or the bulk paths (LoadTriples,
// BuildFrom) that sort-merge a batch into the runs once. The store also
// offers Fork, the MVCC successor, which shares runs, overlay and base
// component counts by reference and copies only the count adjustments since
// the last compaction; exact pattern-cardinality Estimate for the
// planner, per-predicate statistics (Stats), one binary snapshot format —
// the paged v3 layout, read onto the heap from a stream (Load) or opened from
// a file (LoadFile, which maps it on unix), with every payload CRC checked at
// open — and Version — a mutation counter view catalogs compare to
// detect staleness. Apply commits a whole insert+delete batch as one write
// and returns its effective Delta (the triples actually added and
// removed, tagged with the version interval) so writers capture ΔG at
// commit time for incremental view maintenance; OverlayWith builds an
// O(|overlay| + |Δ|) read-only union of the graph and extra triples —
// sharing the immutable runs — which maintenance uses to evaluate
// delete-side joins against the pre-update state. The package's tests check
// Graph against NestedMapGraph, a nested-map model defined in
// reference_test.go.
package store
