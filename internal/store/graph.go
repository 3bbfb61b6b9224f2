package store

import (
	"fmt"

	"sofos/internal/rdf"
)

// compactMinDelta is the delta-overlay size below which compaction is never
// triggered automatically; above it, the overlay is merged once it reaches
// compactFraction of the base runs. Growing the threshold with the base
// keeps interleaved insert/delete workloads amortized near-linear, while
// compactMaxDelta caps the overlay absolutely: a scan finds its overlay
// entries by binary search, but every write re-merges the whole sorted overlay
// (copy-on-write) and every fork copies the counts it touched, so on very
// large graphs the fraction alone would let per-write cost grow with the base.
const (
	compactMinDelta = 1024
	compactFraction = 8 // compact when delta ≥ base/compactFraction
	compactMaxDelta = 1 << 16
)

// Graph is an in-memory RDF graph with dictionary encoding and full triple
// indexing. A Graph has any number of readers or one owner that writes while
// no one reads; it takes no lock. Concurrent serving gets both at once by
// forking: readers keep the published graph, which is never written again,
// and the writer mutates its private Fork. The triple data lives in three
// sorted permutation runs plus a delta overlay; see columnar.go for the
// layout and run.go/block.go for the run encodings.
type Graph struct {
	dict *rdf.Dict

	// codec encodes the immutable runs: block, or flat for the test oracle
	// (see Codec).
	codec runCodec

	// runs are the immutable sorted columnar runs, one per permutation, each
	// storing keys in that permutation's component order. Compaction and bulk
	// loads replace the runs wholesale, never mutate them in place, so live
	// Iterators stay valid across writes. A nil run is an empty index.
	runs [numPerms]run

	// ov is the delta overlay: triples inserted and run triples tombstoned
	// since the last compaction, as sorted slices that are immutable once
	// installed here (see overlay).
	ov overlay

	n int // live triple count: runs[permSPO].size() - |ov.dels| + |ov.adds|

	// version counts successful mutations; view catalogs compare it against
	// the version captured at materialization time to detect staleness.
	version int64

	// counts are the per-component occurrence counts behind the
	// distinct-component statistics, indexed subject, predicate, object and
	// updated incrementally.
	counts [3]idCounts

	// pages holds the paged snapshot image the runs slice into, when the
	// graph was loaded from a v3 snapshot; nil for built graphs.
	pages *pageImage

	// pagedPath is the on-disk v3 snapshot this graph was loaded from (or last
	// checkpointed to), and pagedDirty records whether the graph has logically
	// diverged from it. While clean, a checkpoint can hard-link the file
	// instead of re-serializing the runs; any successful mutation dirties it.
	// Compaction alone does not: it changes the physical layout, not the
	// triple set, and checkpoints capture logical content. Besides the
	// graph's own writes, only Fork, PagedSource and AdoptPagedSource touch
	// the two fields; a checkpoint adopts its file on the published graph,
	// so all three run under the MVCC chain's writer mutex (core.Chain).
	pagedPath  string
	pagedDirty bool
}

// Version returns a counter that increases on every successful mutation.
// Equal versions imply identical contents for a graph only mutated through
// Apply (the counter never repeats within one graph's lifetime).
func (g *Graph) Version() int64 { return g.version }

// SetVersion forces the mutation counter — the restore hook the persistence
// layer uses so a snapshot-loaded graph resumes the saved numbering and the
// version intervals of durably logged update batches stay aligned across
// restarts. Never lower the counter on a live graph: staleness tracking and
// delta-log chaining assume it never repeats.
func (g *Graph) SetVersion(v int64) { g.version = v }

// NewGraph returns an empty block-coded graph with a fresh dictionary.
func NewGraph() *Graph {
	return &Graph{dict: rdf.NewDict(), codec: blockCodec{}}
}

// BuildFrom constructs a compacted graph directly from a triple slice — the
// bulk-load fast path: one sort per permutation, no per-triple map
// allocations.
func BuildFrom(ts []rdf.Triple) (*Graph, error) {
	g := NewGraph()
	if _, err := g.LoadTriples(ts); err != nil {
		return nil, err
	}
	return g, nil
}

// Dict exposes the graph's term dictionary. It is append-only and
// synchronized inside, and every fork shares it, so interning a term never
// changes an answer of a graph that does not hold it; the engine only
// resolves IDs through it.
func (g *Graph) Dict() *rdf.Dict { return g.dict }

// Len returns the number of triples |G|.
func (g *Graph) Len() int { return g.n }

// inRuns reports whether the SPO-ordered key is in the base runs (ignoring
// tombstones).
func (g *Graph) inRuns(k rdf.EncodedTriple) bool {
	r := g.runs[permSPO]
	return r != nil && r.contains(k)
}

// lookup encodes a triple without interning; false means one of its terms
// is not in the dictionary, so no graph over it can hold the triple.
func (g *Graph) lookup(t rdf.Triple) (rdf.EncodedTriple, bool) {
	s, ok := g.dict.Lookup(t.S)
	if !ok {
		return rdf.EncodedTriple{}, false
	}
	p, ok := g.dict.Lookup(t.P)
	if !ok {
		return rdf.EncodedTriple{}, false
	}
	o, ok := g.dict.Lookup(t.O)
	return rdf.EncodedTriple{s, p, o}, ok
}

// Compact merges any pending delta overlay into the sorted runs. A scan whose
// range holds overlay entries merges them in triple by triple instead of
// serving whole decoded spans, and every write and fork pays for the
// overlay's size, so call it after a large batch of mutations and before a
// scan-heavy phase; bulk-load paths compact automatically. The count
// adjustments fold into fresh base maps; old runs, overlay slices and count
// maps are left untouched for live Iterators and forks.
func (g *Graph) Compact() {
	if g.ov.size() == 0 {
		return
	}
	for k := permKind(0); k < numPerms; k++ {
		g.runs[k] = mergeRuns(g.codec, g.runs[k], g.ov.adds[k], g.ov.dels[k])
	}
	g.ov = overlay{}
	g.foldCounts()
}

func (g *Graph) foldCounts() {
	for i := range g.counts {
		g.counts[i].fold()
	}
}

// Contains reports whether the triple is in the graph.
func (g *Graph) Contains(t rdf.Triple) bool {
	k, ok := g.lookup(t)
	return ok && g.keyState(k).present()
}

// Scan returns an Iterator over every triple matching the pattern, where
// rdf.NoID components are wildcards, in the chosen permutation's sorted
// order. The Iterator is a consistent snapshot: it holds the immutable runs
// and overlay slices, so it stays valid (and yields the same triples) after
// the graph's owner writes again.
func (g *Graph) Scan(s, p, o rdf.ID) (it Iterator) {
	g.scanInto(&it, s, p, o)
	return it
}

// ScanInto is Scan reusing the caller's Iterator value (its decode arena and
// merge buffers), for allocation-free scan loops on hot paths. The delta
// slices are dropped, never reused: they alias the shared overlay.
func (g *Graph) ScanInto(it *Iterator, s, p, o rdf.ID) {
	it.base, it.extra, it.dels = nil, nil, nil
	g.scanInto(it, s, p, o)
}

func (g *Graph) scanInto(it *Iterator, s, p, o rdf.ID) {
	kind, key, depth := choosePerm(s, p, o)
	g.scanPermInto(it, kind, key, depth)
}

// scanPermInto fills an Iterator with one permutation range: the base-run
// segment and the in-range overlay entries, each found by binary search and
// shared, not copied. It builds in place so the hot path copies no Iterator
// values.
func (g *Graph) scanPermInto(it *Iterator, kind permKind, key rdf.EncodedTriple, depth int) {
	if depth == 0 && g.pages != nil {
		// A full scan over a paged snapshot touches every payload page in
		// offset order; tell the kernel so readahead runs ahead of the scan.
		g.pages.adviseSequential()
	}
	lo, hi := rangeOf(g.runs[kind], key, depth)
	it.kind = kind
	it.base = g.runs[kind]
	it.lo, it.hi = lo, hi
	if it.a != nil {
		it.a.reset() // stale decoded span from a previous scan
	}
	if adds := g.ov.adds[kind]; len(adds) > 0 {
		it.extra = prefixRange(adds, key, depth)
	}
	if dels := g.ov.dels[kind]; len(dels) > 0 {
		it.dels = prefixRange(dels, key, depth)
	}
}

// Match invokes yield for every triple matching the pattern, where rdf.NoID
// components are wildcards. Iteration stops when yield returns false. The
// callback receives encoded IDs; resolve through Dict as needed. Match is
// implemented on top of Scan; prefer Scan on hot paths to avoid the callback
// indirection.
func (g *Graph) Match(s, p, o rdf.ID, yield func(s, p, o rdf.ID) bool) {
	it := g.Scan(s, p, o)
	for it.Next() {
		if !yield(it.Triple()) {
			return
		}
	}
}

// Estimate returns the exact number of triples matching the pattern, read
// off a permutation range length (corrected by the in-range delta overlay).
// For block runs the range endpoints come from fence searches, so interior
// blocks are counted without being decoded. Used by the planner for greedy
// join ordering.
func (g *Graph) Estimate(s, p, o rdf.ID) int {
	if s != rdf.NoID && p != rdf.NoID && o != rdf.NoID {
		if g.keyState(rdf.EncodedTriple{s, p, o}).present() {
			return 1
		}
		return 0
	}
	kind, key, depth := choosePerm(s, p, o)
	lo, hi := rangeOf(g.runs[kind], key, depth)
	return hi - lo +
		len(prefixRange(g.ov.adds[kind], key, depth)) -
		len(prefixRange(g.ov.dels[kind], key, depth))
}

// Triples returns all triples, decoded, in SPO-sorted ID order.
func (g *Graph) Triples() []rdf.Triple {
	it := g.Scan(rdf.NoID, rdf.NoID, rdf.NoID)
	out := make([]rdf.Triple, 0, g.n)
	for it.Next() {
		s, p, o := it.Triple()
		out = append(out, rdf.Triple{S: g.dict.Term(s), P: g.dict.Term(p), O: g.dict.Term(o)})
	}
	return out
}

// SortedTriples returns all triples in canonical term order (for
// deterministic serialization and tests).
func (g *Graph) SortedTriples() []rdf.Triple {
	ts := g.Triples()
	rdf.SortTriples(ts)
	return ts
}

// Fork returns a writable copy-on-write successor of the graph for MVCC
// commit chains: the term dictionary is shared by pointer (it is append-only
// and internally synchronized, so readers of the published snapshot and the
// writer preparing the next generation interleave safely), and the immutable
// runs, any paged snapshot image, the sorted overlay slices and the base
// count maps are shared too. The only thing copied is the count adjustment
// since the last compaction — O(IDs the overlay touched), never O(data),
// O(distinct terms) or O(dictionary). That matters for mmap-backed graphs,
// where copying the runs would pull the whole file resident. Fork carries the
// paged-snapshot provenance (pagedPath and dirtiness) so hard-link
// checkpoints keep working across generations.
//
// The receiver must be treated as frozen once it has been published: the fork
// is where all further mutation happens.
func (g *Graph) Fork() *Graph {
	c := g.shareData()
	c.pagedPath = g.pagedPath
	c.pagedDirty = g.pagedDirty
	return c
}

// shareData is the part Fork and OverlayWith share: a graph over the
// receiver's dictionary, runs, pages and overlay with its own count
// adjustments.
func (g *Graph) shareData() *Graph {
	c := &Graph{
		dict:    g.dict,
		codec:   g.codec,
		runs:    g.runs,
		ov:      g.ov,
		n:       g.n,
		version: g.version,
		pages:   g.pages,
	}
	for i := range g.counts {
		c.counts[i] = g.counts[i].fork()
	}
	return c
}

// DistinctNodes returns |I ∪ B ∪ L| — the number of distinct terms occurring
// in subject or object position. This is the "number of nodes" quantity of
// the paper's fourth cost model.
func (g *Graph) DistinctNodes() int {
	subjects, objects := &g.counts[0], &g.counts[2]
	n := subjects.distinct
	objects.each(func(id rdf.ID, _ int) {
		if subjects.get(id) == 0 {
			n++
		}
	})
	return n
}

// LoadTriples adds every triple in ts in one batch, sort-merged into the
// runs, returning the number actually new. On an invalid triple it loads the
// preceding prefix and returns an error.
func (g *Graph) LoadTriples(ts []rdf.Triple) (int, error) {
	valid := len(ts)
	var verr error
	for i, t := range ts {
		if err := t.Validate(); err != nil {
			valid, verr = i, fmt.Errorf("store: %w", err)
			break
		}
	}
	enc := make([]rdf.EncodedTriple, valid)
	for i, t := range ts[:valid] {
		enc[i] = rdf.EncodedTriple{g.dict.Intern(t.S), g.dict.Intern(t.P), g.dict.Intern(t.O)}
	}
	return g.loadEncoded(enc), verr
}

// loadEncoded bulk-inserts already-encoded triples (IDs from this graph's
// dictionary), merging the sorted batch directly into the runs and leaving
// the graph compacted; it returns the number actually new.
func (g *Graph) loadEncoded(ts []rdf.EncodedTriple) int {
	if len(ts) == 0 {
		return 0
	}
	// Fold any pending delta into the runs first so the batch merge below is
	// a clean two-way merge against the full base.
	g.Compact()
	batch := append([]rdf.EncodedTriple(nil), ts...)
	sortKeys(batch)
	fresh := batch[:0]
	var prev rdf.EncodedTriple
	for i, t := range batch {
		if i > 0 && t == prev {
			continue // duplicate within the batch
		}
		prev = t
		if g.inRuns(t) {
			continue // already present
		}
		fresh = append(fresh, t)
		for i, id := range t {
			g.counts[i].add(id, 1)
		}
	}
	if len(fresh) == 0 {
		return 0
	}
	g.foldCounts()
	for k := permKind(0); k < numPerms; k++ {
		ins := fresh
		if k != permSPO {
			ins = permuteSorted(k, fresh)
		}
		g.runs[k] = mergeRuns(g.codec, g.runs[k], ins, nil)
	}
	g.n += len(fresh)
	g.version += int64(len(fresh))
	g.pagedDirty = true
	return len(fresh)
}

// PagedSource returns the path of the on-disk paged (v3) snapshot whose
// logical content this graph still matches, if any. The persistence layer
// uses it to hard-link checkpoints instead of re-serializing unchanged runs.
func (g *Graph) PagedSource() (string, bool) {
	if g.pagedPath == "" || g.pagedDirty {
		return "", false
	}
	return g.pagedPath, true
}

// AdoptPagedSource records that the file at path is a paged snapshot of the
// graph's current logical content. The loader and the checkpoint writer call
// it; the path stays valid until the next mutation.
func (g *Graph) AdoptPagedSource(path string) {
	g.pagedPath = path
	g.pagedDirty = false
}
