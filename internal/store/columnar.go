package store

import (
	"slices"

	"sofos/internal/rdf"
)

// Columnar permutation-index layout.
//
// Each graph keeps three sorted runs — one per access permutation (SPO, POS,
// OSP) — with the triple components stored in that permutation's key order,
// so every bound-component prefix of a triple pattern maps to one contiguous
// run range found by binary search. Each run is a sequence of delta/varint-
// compressed blocks (run.go, block.go). On top of the immutable runs sits a
// small delta overlay (pending inserts and tombstones, overlay.go) — sorted
// per permutation like the runs, replaced copy-on-write by each write — that
// is merged into fresh runs once it exceeds a fraction of the base
// (LSM-style). Readers capture the run plus the in-range sub-slices of the
// overlay, so an Iterator never reads the Graph while yielding and a later
// write by the graph's owner never invalidates it.

// permKind selects one of the three sorted permutations.
type permKind uint8

const (
	permSPO permKind = iota
	permPOS
	permOSP
	numPerms
)

// key reorders an (s, p, o) triple into the permutation's key order.
func (k permKind) key(s, p, o rdf.ID) rdf.EncodedTriple {
	switch k {
	case permSPO:
		return rdf.EncodedTriple{s, p, o}
	case permPOS:
		return rdf.EncodedTriple{p, o, s}
	default: // permOSP
		return rdf.EncodedTriple{o, s, p}
	}
}

// spo recovers (s, p, o) from a key in this permutation's order.
func (k permKind) spo(t rdf.EncodedTriple) (s, p, o rdf.ID) {
	switch k {
	case permSPO:
		return t[0], t[1], t[2]
	case permPOS:
		return t[2], t[0], t[1]
	default: // permOSP
		return t[1], t[2], t[0]
	}
}

// cmpKeys orders permuted keys lexicographically.
func cmpKeys(a, b rdf.EncodedTriple) int {
	for i := 0; i < 3; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// cmpPrefix compares only the first depth components.
func cmpPrefix(a, b rdf.EncodedTriple, depth int) int {
	for i := 0; i < depth; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// sortKeys sorts permuted keys in place.
func sortKeys(ts []rdf.EncodedTriple) {
	slices.SortFunc(ts, cmpKeys)
}

// rangeOf binary-searches the half-open run range whose first depth key
// components equal key's. depth 0 returns the whole run; a nil run (an index
// never written to) is the empty range.
func rangeOf(r *blockRun, key rdf.EncodedTriple, depth int) (lo, hi int) {
	if r == nil {
		return 0, 0
	}
	return r.searchRange(key, depth)
}

// searchPrefix returns the first index in run[from:] ∪ {len(run)} whose
// depth-prefix is ≥ key's (upper=false) or > key's (upper=true). Depths 1
// and 2 reduce to a lower-bound search against a packed integer target
// (upper bound = lower bound of target+1), keeping the comparison loop
// branch-light. This is the search primitive over the delta-overlay slices.
func searchPrefix(run []rdf.EncodedTriple, from int, key rdf.EncodedTriple, depth int, upper bool) int {
	lo, hi := from, len(run)
	switch depth {
	case 1:
		target := uint64(key[0])
		if upper {
			target++
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if uint64(run[mid][0]) < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	case 2:
		target := uint64(key[0])<<32 | uint64(key[1])
		if upper {
			target++
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if uint64(run[mid][0])<<32|uint64(run[mid][1]) < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	default:
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			c := cmpPrefix(run[mid], key, depth)
			if c < 0 || (upper && c == 0) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	}
	return lo
}

// choosePerm picks the permutation whose key order turns the pattern's bound
// components into a prefix, so the matching triples form one run range.
func choosePerm(s, p, o rdf.ID) (kind permKind, key rdf.EncodedTriple, depth int) {
	sb, pb, ob := s != rdf.NoID, p != rdf.NoID, o != rdf.NoID
	switch {
	case sb && pb && ob:
		return permSPO, rdf.EncodedTriple{s, p, o}, 3
	case sb && pb:
		return permSPO, rdf.EncodedTriple{s, p, rdf.NoID}, 2
	case pb && ob:
		return permPOS, rdf.EncodedTriple{p, o, rdf.NoID}, 2
	case sb && ob:
		return permOSP, rdf.EncodedTriple{o, s, rdf.NoID}, 2
	case sb:
		return permSPO, rdf.EncodedTriple{s, rdf.NoID, rdf.NoID}, 1
	case pb:
		return permPOS, rdf.EncodedTriple{p, rdf.NoID, rdf.NoID}, 1
	case ob:
		return permOSP, rdf.EncodedTriple{o, rdf.NoID, rdf.NoID}, 1
	default:
		return permSPO, rdf.EncodedTriple{}, 0
	}
}

// mergeRuns three-way merges a base run with sorted inserts and sorted
// tombstones, streaming the result through a fresh blockBuilder, so the new
// run is encoded block by block with no intermediate flat materialization.
// Inserts are disjoint from base; tombstones are a subset of base.
func mergeRuns(base *blockRun, ins, del []rdf.EncodedTriple) *blockRun {
	n := base.size()
	b := newBlockBuilder(n + len(ins) - len(del))
	var a spanArena
	pos, j, k := 0, 0, 0
	for pos < n || j < len(ins) {
		if pos < n {
			if a.idx >= a.n {
				base.fill(&a, pos, n)
			}
			bk := a.key(a.idx)
			if j >= len(ins) || cmpKeys(bk, ins[j]) < 0 {
				pos++
				a.idx++
				for k < len(del) && cmpKeys(del[k], bk) < 0 {
					k++
				}
				if k < len(del) && del[k] == bk {
					k++
					continue
				}
				b.add(bk)
				continue
			}
		}
		b.add(ins[j])
		j++
	}
	return b.finish()
}

// permuteSorted returns a sorted copy of SPO-ordered triples rekeyed into the
// permutation's order.
func permuteSorted(kind permKind, ts []rdf.EncodedTriple) []rdf.EncodedTriple {
	if len(ts) == 0 {
		return nil
	}
	out := make([]rdf.EncodedTriple, len(ts))
	for i, t := range ts {
		out[i] = kind.key(t[0], t[1], t[2])
	}
	sortKeys(out)
	return out
}

// Iterator streams the triples matching one pattern in the permutation's
// sorted order. The base range is read block-at-a-time through a reusable
// decode arena, so iteration performs no per-triple allocation (the arena
// itself is allocated once, lazily, and survives ScanInto reuse).
//
// An Iterator is a consistent snapshot: concurrent writes to the graph do not
// affect triples it yields, and it must not be shared between goroutines.
type Iterator struct {
	kind   permKind
	base   *blockRun  // shared immutable run (nil for pure-delta ranges)
	lo, hi int        // remaining base positions [lo, hi)
	a      *spanArena // decoded span; a.key(a.idx) is the key at lo

	// extra and dels are the remaining in-range delta inserts and tombstones
	// (sorted). They alias the graph's shared overlay slices: an Iterator only
	// ever re-slices them, never writes or appends.
	extra []rdf.EncodedTriple
	dels  []rdf.EncodedTriple

	// ms/mp/mo are the merge buffers NextSpan fills when the delta overlay is
	// non-empty and spans cannot be served straight from the arena.
	ms, mp, mo []rdf.ID

	s, p, o rdf.ID // current triple
}

// headBase returns the key at base position lo, refilling the arena if the
// decoded span is exhausted. Callers guarantee lo < hi.
func (it *Iterator) headBase() rdf.EncodedTriple {
	a := it.a
	if a == nil {
		a = new(spanArena)
		it.a = a
	}
	if a.idx >= a.n {
		it.base.fill(a, it.lo, it.hi)
	}
	return a.key(a.idx)
}

// Next advances to the next matching triple, reporting whether one exists.
func (it *Iterator) Next() bool {
	for {
		var t rdf.EncodedTriple
		switch {
		case it.lo >= it.hi && len(it.extra) == 0:
			return false
		case len(it.extra) == 0 || (it.lo < it.hi && cmpKeys(it.headBase(), it.extra[0]) < 0):
			t = it.headBase()
			it.lo++
			it.a.idx++
			for len(it.dels) > 0 && cmpKeys(it.dels[0], t) < 0 {
				it.dels = it.dels[1:]
			}
			if len(it.dels) > 0 && it.dels[0] == t {
				it.dels = it.dels[1:]
				continue // tombstoned base triple
			}
		default:
			t = it.extra[0]
			it.extra = it.extra[1:]
		}
		it.s, it.p, it.o = it.kind.spo(t)
		return true
	}
}

// NextSpan yields the next decoded span as parallel SoA component slices
// (already in s, p, o order) and consumes it, returning empty slices once the
// iterator is exhausted. When the delta overlay is empty — the common state
// after a bulk load or compaction — the slices alias the iterator's decode
// arena directly: one block decode per call, zero copying, zero allocation.
// The slices are valid only until the next NextSpan or Next call.
//
// NextSpan and Next may be interleaved; both consume the same sequence.
func (it *Iterator) NextSpan() (s, p, o []rdf.ID) {
	if len(it.extra) == 0 && len(it.dels) == 0 {
		if it.lo >= it.hi {
			return nil, nil, nil
		}
		a := it.a
		if a == nil {
			a = new(spanArena)
			it.a = a
		}
		if a.idx >= a.n {
			it.base.fill(a, it.lo, it.hi)
		}
		c0, c1, c2 := a.c0[a.idx:a.n], a.c1[a.idx:a.n], a.c2[a.idx:a.n]
		it.lo += a.n - a.idx
		a.idx = a.n
		switch it.kind {
		case permSPO:
			return c0, c1, c2
		case permPOS:
			return c2, c0, c1
		default: // permOSP
			return c1, c2, c0
		}
	}
	// Delta overlay in range: merge through Next into reusable buffers, sized
	// to what is left — a point scan beside a writer must not pay for a
	// full-span buffer.
	chunk := min(blockSize, it.hi-it.lo+len(it.extra))
	if cap(it.ms) < chunk {
		it.ms = make([]rdf.ID, 0, chunk)
		it.mp = make([]rdf.ID, 0, chunk)
		it.mo = make([]rdf.ID, 0, chunk)
	}
	it.ms, it.mp, it.mo = it.ms[:0], it.mp[:0], it.mo[:0]
	for len(it.ms) < chunk && it.Next() {
		it.ms = append(it.ms, it.s)
		it.mp = append(it.mp, it.p)
		it.mo = append(it.mo, it.o)
	}
	return it.ms, it.mp, it.mo
}

// Triple returns the current triple's encoded components. Valid only after a
// Next call that returned true.
func (it *Iterator) Triple() (s, p, o rdf.ID) { return it.s, it.p, it.o }

// Remaining returns the exact number of triples Next has yet to yield.
// Tombstones are discounted lazily — only those falling inside the remaining
// base range [lo, hi) cancel anything — so partitioned iterators whose
// tombstone slices over-cover their key range (block-aligned splits) still
// report exact counts.
func (it *Iterator) Remaining() int {
	n := (it.hi - it.lo) + len(it.extra)
	if len(it.dels) == 0 || it.lo >= it.hi {
		// Tombstones only ever cancel base triples; with no base left they
		// cancel nothing.
		return n
	}
	first := it.base.keyAt(it.lo)
	last := it.base.keyAt(it.hi - 1)
	dlo := searchPrefix(it.dels, 0, first, 3, false)
	dhi := searchPrefix(it.dels, dlo, last, 3, true)
	return n - (dhi - dlo)
}

// Split partitions the iterator's remaining triples into at most n
// sub-iterators covering contiguous, disjoint key ranges, such that running
// the sub-iterators in order yields exactly the sequence the receiver would
// have yielded. The receiver is not consumed. Each part shares the immutable
// base run (and so stays a consistent snapshot) and reads a disjoint slice of
// the shared delta overlay, so the parts may be iterated from different
// goroutines concurrently — every part gets its own decode arena, lazily.
// Partition boundaries are aligned to block starts so no part ever decodes a
// partial block at its edges. This is the data-parallel scan primitive: the
// engine splits a leading pattern range into per-worker sub-ranges.
func (it *Iterator) Split(n int) []Iterator {
	if n <= 1 || it.Remaining() == 0 {
		p := *it
		p.a, p.ms, p.mp, p.mo = nil, nil, nil, nil
		return []Iterator{p}
	}
	if it.lo >= it.hi {
		// Pure-delta range: chunk the sorted inserts evenly. Tombstones only
		// ever cancel base triples, so none can be pending here.
		return splitExtras(it.kind, it.extra, n)
	}
	total := it.hi - it.lo
	parts := make([]Iterator, 0, n)
	prevPos, prevExtra, prevDel := it.lo, 0, 0
	for i := 0; i < n; i++ {
		p := Iterator{kind: it.kind, base: it.base, lo: prevPos}
		if i == n-1 {
			p.hi = it.hi
			p.extra = it.extra[prevExtra:]
			p.dels = it.dels[prevDel:]
		} else {
			// Tentative even cut, rounded down to a block boundary. The cut
			// stays strictly below hi (integer division plus round-down), so
			// keyAt(end) is always valid.
			end := it.base.alignSplit(it.lo + (i+1)*total/n)
			if end < prevPos {
				end = prevPos
			}
			p.hi = end
			// Delta entries below the next part's first key belong here
			// (lower-bound search: first key ≥ the boundary).
			boundary := it.base.keyAt(end)
			extraHi := searchPrefix(it.extra, prevExtra, boundary, 3, false)
			delHi := searchPrefix(it.dels, prevDel, boundary, 3, false)
			p.extra = it.extra[prevExtra:extraHi]
			p.dels = it.dels[prevDel:delHi]
			prevPos, prevExtra, prevDel = end, extraHi, delHi
		}
		parts = append(parts, p)
	}
	return parts
}

// splitExtras chunks a sorted insert-only sequence into n sub-iterators.
func splitExtras(kind permKind, extra []rdf.EncodedTriple, n int) []Iterator {
	parts := make([]Iterator, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(extra)/n, (i+1)*len(extra)/n
		parts = append(parts, Iterator{kind: kind, extra: extra[lo:hi]})
	}
	return parts
}
