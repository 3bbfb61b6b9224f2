package store

import (
	"fmt"
	"sync"

	"sofos/internal/rdf"
)

// compactMinDelta is the delta-overlay size below which compaction is never
// triggered automatically; above it, the overlay is merged once it reaches
// compactFraction of the base runs. Growing the threshold with the base
// keeps interleaved Add/Remove workloads amortized near-linear, while
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
// indexing. It is safe for concurrent reads; writes are serialized by an
// internal mutex (reads during writes are also safe). The triple data lives
// in three sorted permutation runs plus a mutable delta overlay; see
// columnar.go for the layout and run.go/block.go for the run encodings.
type Graph struct {
	mu   sync.RWMutex
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
	// triple set, and checkpoints capture logical content.
	pagedPath  string
	pagedDirty bool
}

// Version returns a counter that increases on every successful mutation.
// Equal versions imply identical contents for a graph only mutated through
// Add/Remove (the counter never repeats within one graph's lifetime).
func (g *Graph) Version() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.version
}

// SetVersion forces the mutation counter — the restore hook the persistence
// layer uses so a snapshot-loaded graph resumes the saved numbering and the
// version intervals of durably logged update batches stay aligned across
// restarts. Never lower the counter on a live graph: staleness tracking and
// delta-log chaining assume it never repeats.
func (g *Graph) SetVersion(v int64) {
	g.mu.Lock()
	g.version = v
	g.mu.Unlock()
}

// NewGraph returns an empty block-coded graph with a fresh dictionary.
func NewGraph() *Graph {
	return &Graph{dict: rdf.NewDict(), codec: blockCodec{}}
}

// BuildFrom constructs a compacted graph directly from a triple slice — the
// bulk-load fast path: one lock acquisition, one sort per permutation, no
// per-triple map allocations.
func BuildFrom(ts []rdf.Triple) (*Graph, error) {
	g := NewGraph()
	if _, err := g.LoadTriples(ts); err != nil {
		return nil, err
	}
	return g, nil
}

// Dict exposes the graph's term dictionary. Callers must not mutate it
// concurrently with graph writes; the engine only resolves IDs through it.
func (g *Graph) Dict() *rdf.Dict { return g.dict }

// Len returns the number of triples |G|.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.n
}

// Add inserts a triple, interning its terms. It reports whether the triple
// was new and returns an error for RDF-invalid triples.
func (g *Graph) Add(t rdf.Triple) (bool, error) {
	if err := t.Validate(); err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.dict.Intern(t.S)
	p := g.dict.Intern(t.P)
	o := g.dict.Intern(t.O)
	return g.addEncodedLocked(s, p, o), nil
}

// MustAdd is Add for construction code paths where the triple is known valid
// by construction; it panics on invalid triples.
func (g *Graph) MustAdd(t rdf.Triple) bool {
	ok, err := g.Add(t)
	if err != nil {
		panic(err)
	}
	return ok
}

// AddEncoded inserts an already-encoded triple. The IDs must come from this
// graph's dictionary.
func (g *Graph) AddEncoded(s, p, o rdf.ID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.addEncodedLocked(s, p, o)
}

// inRunsLocked reports whether the SPO-ordered key is in the base runs
// (ignoring tombstones).
func (g *Graph) inRunsLocked(k rdf.EncodedTriple) bool {
	r := g.runs[permSPO]
	return r != nil && r.contains(k)
}

func (g *Graph) containsLocked(s, p, o rdf.ID) bool {
	return g.keyStateLocked(rdf.EncodedTriple{s, p, o}).present()
}

func (g *Graph) addEncodedLocked(s, p, o rdf.ID) bool {
	b := batch{g: g}
	added := b.add(rdf.EncodedTriple{s, p, o})
	b.commit()
	return added
}

// Remove deletes a triple if present and reports whether it was.
func (g *Graph) Remove(t rdf.Triple) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.dict.Lookup(t.S)
	if !ok {
		return false
	}
	p, ok := g.dict.Lookup(t.P)
	if !ok {
		return false
	}
	o, ok := g.dict.Lookup(t.O)
	if !ok {
		return false
	}
	return g.removeEncodedLocked(s, p, o)
}

func (g *Graph) removeEncodedLocked(s, p, o rdf.ID) bool {
	b := batch{g: g}
	removed := b.remove(rdf.EncodedTriple{s, p, o})
	b.commit()
	return removed
}

// compactLocked merges pending inserts and tombstones into freshly built
// sorted runs, leaving the delta overlay empty, and folds the count
// adjustments into fresh base maps. Old runs, overlay slices and count maps
// are left untouched for live Iterators and forks.
func (g *Graph) compactLocked() {
	if g.ov.size() == 0 {
		return
	}
	for k := permKind(0); k < numPerms; k++ {
		g.runs[k] = mergeRuns(g.codec, g.runs[k], g.ov.adds[k], g.ov.dels[k])
	}
	g.ov = overlay{}
	g.foldCountsLocked()
}

func (g *Graph) foldCountsLocked() {
	for i := range g.counts {
		g.counts[i].fold()
	}
}

// Compact merges any pending delta overlay into the sorted runs. A scan whose
// range holds overlay entries merges them in triple by triple instead of
// serving whole decoded spans, and every write and fork pays for the
// overlay's size, so call it after a large batch of mutations and before a
// scan-heavy phase; bulk-load paths compact automatically.
func (g *Graph) Compact() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.compactLocked()
}

// Contains reports whether the triple is in the graph.
func (g *Graph) Contains(t rdf.Triple) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s, ok := g.dict.Lookup(t.S)
	if !ok {
		return false
	}
	p, ok := g.dict.Lookup(t.P)
	if !ok {
		return false
	}
	o, ok := g.dict.Lookup(t.O)
	if !ok {
		return false
	}
	return g.containsLocked(s, p, o)
}

// Scan returns an Iterator over every triple matching the pattern, where
// rdf.NoID components are wildcards, in the chosen permutation's sorted
// order. The Iterator is a consistent snapshot: it stays valid (and yields
// the same triples) regardless of concurrent mutations, and it does not hold
// the graph lock while the caller iterates.
func (g *Graph) Scan(s, p, o rdf.ID) (it Iterator) {
	g.mu.RLock()
	g.scanInto(&it, s, p, o)
	g.mu.RUnlock()
	return it
}

// ScanInto is Scan reusing the caller's Iterator value (its decode arena and
// merge buffers), for allocation-free scan loops on hot paths. The delta
// slices are dropped, never reused: they alias the shared overlay.
func (g *Graph) ScanInto(it *Iterator, s, p, o rdf.ID) {
	it.base, it.extra, it.dels = nil, nil, nil
	g.mu.RLock()
	g.scanInto(it, s, p, o)
	g.mu.RUnlock()
}

func (g *Graph) scanLocked(s, p, o rdf.ID) (it Iterator) {
	g.scanInto(&it, s, p, o)
	return it
}

func (g *Graph) scanInto(it *Iterator, s, p, o rdf.ID) {
	kind, key, depth := choosePerm(s, p, o)
	g.scanPermInto(it, kind, key, depth)
}

func (g *Graph) scanPermLocked(kind permKind, key rdf.EncodedTriple, depth int) (it Iterator) {
	g.scanPermInto(&it, kind, key, depth)
	return it
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
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.estimateLocked(s, p, o)
}

func (g *Graph) estimateLocked(s, p, o rdf.ID) int {
	if s != rdf.NoID && p != rdf.NoID && o != rdf.NoID {
		if g.containsLocked(s, p, o) {
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
	g.mu.RLock()
	defer g.mu.RUnlock()
	it := g.scanLocked(rdf.NoID, rdf.NoID, rdf.NoID)
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

// Clone returns an independent copy of the graph, including its dictionary.
// Everything immutable is shared by reference — the columnar runs, the sorted
// overlay slices and the base count maps are all replaced wholesale, never
// mutated in place — and so is the dictionary's loaded base, so cloning is
// O(dictionary tail), not O(data). That matters for mmap-backed graphs, where
// deep-copying the runs would pull the whole file resident; experiments and
// tests clone a graph to mutate the copy without disturbing the original.
func (g *Graph) Clone() *Graph {
	g.mu.RLock()
	defer g.mu.RUnlock()
	c := g.forkLocked()
	c.dict = g.dict.Clone()
	return c
}

// Fork returns a writable copy-on-write successor of the graph for MVCC
// commit chains: the term dictionary is shared by pointer (it is append-only
// and internally synchronized, so readers of the published snapshot and the
// writer preparing the next generation interleave safely), and the immutable
// runs, any paged snapshot image, the sorted overlay slices and the base
// count maps are shared too. The only thing copied is the count adjustment
// since the last compaction — O(IDs the overlay touched), never O(data),
// O(distinct terms) or O(dictionary). Unlike Clone, Fork carries the
// paged-snapshot provenance (pagedPath and dirtiness) so hard-link checkpoints
// keep working across generations.
//
// The receiver must be treated as frozen once it has been published: the fork
// is where all further mutation happens.
func (g *Graph) Fork() *Graph {
	g.mu.RLock()
	defer g.mu.RUnlock()
	c := g.forkLocked()
	c.pagedPath = g.pagedPath
	c.pagedDirty = g.pagedDirty
	return c
}

// forkLocked is the part Fork, Clone and OverlayWith share: a graph over the
// receiver's dictionary, runs, pages and overlay with its own count
// adjustments.
func (g *Graph) forkLocked() *Graph {
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
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.distinctNodesLocked()
}

func (g *Graph) distinctNodesLocked() int {
	subjects, objects := &g.counts[0], &g.counts[2]
	n := subjects.distinct
	objects.each(func(id rdf.ID, _ int) {
		if subjects.get(id) == 0 {
			n++
		}
	})
	return n
}

// DistinctPredicates returns the number of distinct predicates in use.
func (g *Graph) DistinctPredicates() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.counts[1].distinct
}

// LoadTriples adds every triple in ts in one batch — single lock
// acquisition, sort-and-merge into the runs — returning the number actually
// new. On an invalid triple it loads the preceding prefix and returns an
// error.
func (g *Graph) LoadTriples(ts []rdf.Triple) (int, error) {
	valid := len(ts)
	var verr error
	for i, t := range ts {
		if err := t.Validate(); err != nil {
			valid, verr = i, fmt.Errorf("store: %w", err)
			break
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	enc := make([]rdf.EncodedTriple, valid)
	for i, t := range ts[:valid] {
		enc[i] = rdf.EncodedTriple{g.dict.Intern(t.S), g.dict.Intern(t.P), g.dict.Intern(t.O)}
	}
	return g.loadEncodedLocked(enc), verr
}

// LoadEncoded bulk-inserts already-encoded triples (IDs from this graph's
// dictionary), returning the number actually new. Like LoadTriples, it takes
// the write lock once and merges sorted batches directly into the runs,
// leaving the graph compacted.
func (g *Graph) LoadEncoded(ts []rdf.EncodedTriple) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.loadEncodedLocked(ts)
}

func (g *Graph) loadEncodedLocked(ts []rdf.EncodedTriple) int {
	if len(ts) == 0 {
		return 0
	}
	// Fold any pending delta into the runs first so the batch merge below is
	// a clean two-way merge against the full base.
	g.compactLocked()
	batch := append([]rdf.EncodedTriple(nil), ts...)
	sortKeys(batch)
	fresh := batch[:0]
	var prev rdf.EncodedTriple
	for i, t := range batch {
		if i > 0 && t == prev {
			continue // duplicate within the batch
		}
		prev = t
		if g.inRunsLocked(t) {
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
	g.foldCountsLocked()
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
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.pagedPath == "" || g.pagedDirty {
		return "", false
	}
	return g.pagedPath, true
}

// AdoptPagedSource records that the file at path is a paged snapshot of the
// graph's current logical content. The loader and the checkpoint writer call
// it; the path stays valid until the next mutation.
func (g *Graph) AdoptPagedSource(path string) {
	g.mu.Lock()
	g.pagedPath = path
	g.pagedDirty = false
	g.mu.Unlock()
}

// RemoveTriples deletes every listed triple in one batch under a single lock
// acquisition, returning how many were actually present. The batch view-drop
// path in views.Catalog uses this.
func (g *Graph) RemoveTriples(ts []rdf.Triple) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := batch{g: g}
	removed := 0
	for _, t := range ts {
		s, ok := g.dict.Lookup(t.S)
		if !ok {
			continue
		}
		p, ok := g.dict.Lookup(t.P)
		if !ok {
			continue
		}
		o, ok := g.dict.Lookup(t.O)
		if !ok {
			continue
		}
		if b.remove(rdf.EncodedTriple{s, p, o}) {
			removed++
		}
	}
	b.commit()
	return removed
}
