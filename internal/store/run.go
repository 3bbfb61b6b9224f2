package store

import "sofos/internal/rdf"

// run is one immutable sorted sequence of permuted triple keys — the storage
// representation behind a permutation index. Two implementations exist: the
// original flat []rdf.EncodedTriple layout (flatRun) and the block-compressed
// layout (blockRun, see block.go). Runs are immutable once built; compaction
// and bulk loads replace a graph's runs wholesale through a runBuilder, so a
// live Iterator can keep reading a replaced run forever.
//
// Positions are global triple ordinals in [0, size()); both implementations
// answer the same searches over the same key order, so every layer above
// (scans, estimates, splits, the engine) is codec-oblivious.
type run interface {
	// size returns the number of keys in the run.
	size() int

	// memBytes returns the resident bytes of the representation itself
	// (excluding the dictionary), for memory accounting.
	memBytes() int64

	// mappedBytes returns the bytes of the representation backed by an
	// mmap'd snapshot region rather than the heap (0 for heap-resident runs).
	mappedBytes() int64

	// numBlocks returns the number of fixed-size blocks (0 for flat runs).
	numBlocks() int

	// search returns the first position in [from, size()] whose depth-prefix
	// is ≥ key's (upper=false) or > key's (upper=true) — the primitive under
	// range scans and exact estimates. depth 0 means "match everything":
	// lower bound is from, upper bound is size().
	search(from int, key rdf.EncodedTriple, depth int, upper bool) int

	// contains reports whether the exact key is present.
	contains(key rdf.EncodedTriple) bool

	// keyAt returns the key at a position. O(1) for flat runs and for block
	// fence positions (first/last key of a block); decodes one block
	// otherwise — callers use it for split boundaries, never per triple.
	keyAt(pos int) rdf.EncodedTriple

	// fill decodes a span starting at position lo (bounded by hi) into the
	// arena, setting a.idx so a.key(a.idx) is the key at lo. It decodes at
	// least one key; callers guarantee lo < hi ≤ size().
	fill(a *spanArena, lo, hi int)

	// alignSplit rounds a tentative split position down to the nearest cheap
	// boundary (a block start; flat runs return pos unchanged), so Split
	// partitions never force partial-block decodes at partition edges.
	alignSplit(pos int) int

	// clone returns an independent deep copy.
	clone() run
}

// runBuilder accumulates sorted keys and emits a run in the builder's codec.
// Compaction and bulk loads stream their merge output through one, so block
// runs are encoded directly — no intermediate flat materialization.
type runBuilder interface {
	add(k rdf.EncodedTriple)
	finish() run
}

// runCodec names a run representation and builds runs in it.
type runCodec interface {
	name() string
	newBuilder(sizeHint int) runBuilder
}

// buildRun encodes an already-sorted key slice through the codec.
func buildRun(c runCodec, sorted []rdf.EncodedTriple) run {
	b := c.newBuilder(len(sorted))
	for _, k := range sorted {
		b.add(k)
	}
	return b.finish()
}

// runSize is size() tolerating a nil run (an index never written to).
func runSize(r run) int {
	if r == nil {
		return 0
	}
	return r.size()
}

// spanArena is a per-iterator reusable decode buffer: one block (or flat
// chunk) at a time is decoded into SoA column slices, and iteration consumes
// [idx, n). Reusing the arena across refills and scans means steady-state
// iteration performs zero per-triple allocation for either codec.
//
// src/bi remember which block run and block index the columns currently hold,
// so block-codec refills and point lookups that land in the same block skip
// the decode — the common case for index-ordered probe streams like join
// bindings. Any path that overwrites the columns through grow invalidates the
// cache; only blockRun decode paths set it.
type spanArena struct {
	c0, c1, c2 []rdf.ID
	idx, n     int
	src        *blockRun
	bi         int
}

// grow ensures capacity for n decoded keys and resets the window to [0, n).
// The caller is about to overwrite the columns, so the block cache is
// invalidated.
func (a *spanArena) grow(n int) {
	if cap(a.c0) < n {
		a.c0 = make([]rdf.ID, n)
		a.c1 = make([]rdf.ID, n)
		a.c2 = make([]rdf.ID, n)
	}
	a.c0, a.c1, a.c2 = a.c0[:cap(a.c0)][:n], a.c1[:cap(a.c1)][:n], a.c2[:cap(a.c2)][:n]
	a.idx, a.n = 0, n
	a.src = nil
}

// key assembles the permuted key at arena index i.
func (a *spanArena) key(i int) rdf.EncodedTriple {
	return rdf.EncodedTriple{a.c0[i], a.c1[i], a.c2[i]}
}

// reset empties the window without releasing capacity.
func (a *spanArena) reset() { a.idx, a.n = 0, 0 }

// spanChunk is the flat codec's fill granularity, matching the block codec's
// block size so both codecs hand the engine comparable span widths.
const spanChunk = blockSize

// flatCodec is the original fixed-width representation: 12 bytes per key,
// binary-searchable in place. Only NewGraphWithCodec reaches it: it is the
// differential-test oracle and the zero-decode baseline.
type flatCodec struct{}

func (flatCodec) name() string { return "flat" }

func (flatCodec) newBuilder(sizeHint int) runBuilder {
	return &flatBuilder{keys: make([]rdf.EncodedTriple, 0, sizeHint)}
}

type flatBuilder struct{ keys []rdf.EncodedTriple }

func (b *flatBuilder) add(k rdf.EncodedTriple) { b.keys = append(b.keys, k) }

func (b *flatBuilder) finish() run { return flatRun(b.keys) }

// flatRun stores keys as a plain sorted slice.
type flatRun []rdf.EncodedTriple

func (r flatRun) size() int          { return len(r) }
func (r flatRun) memBytes() int64    { return int64(len(r)) * int64(3*4) }
func (r flatRun) mappedBytes() int64 { return 0 }
func (r flatRun) numBlocks() int     { return 0 }

func (r flatRun) search(from int, key rdf.EncodedTriple, depth int, upper bool) int {
	return searchPrefix(r, from, key, depth, upper)
}

func (r flatRun) contains(key rdf.EncodedTriple) bool {
	lo := searchPrefix(r, 0, key, 3, false)
	return lo < len(r) && r[lo] == key
}

func (r flatRun) keyAt(pos int) rdf.EncodedTriple { return r[pos] }

func (r flatRun) fill(a *spanArena, lo, hi int) {
	n := hi - lo
	if n > spanChunk {
		n = spanChunk
	}
	a.grow(n)
	for i, k := range r[lo : lo+n] {
		a.c0[i], a.c1[i], a.c2[i] = k[0], k[1], k[2]
	}
}

func (r flatRun) alignSplit(pos int) int { return pos }

func (r flatRun) clone() run {
	if len(r) == 0 {
		return flatRun(nil)
	}
	return flatRun(append([]rdf.EncodedTriple(nil), r...))
}
