package store

import "sofos/internal/rdf"

// overlay is a graph's delta overlay: adds holds the triples inserted since
// the last compaction (disjoint from the runs), dels the tombstones of run
// triples removed since then. Like the runs, each set is kept once per
// permutation, sorted in that permutation's key order, so the overlay entries
// matching a pattern are one contiguous sub-slice found by binary search.
//
// The slices are immutable once installed on a graph: a write merges its net
// edit into fresh slices (copy-on-write, see batch) and replaces the overlay
// value on the graph it owns. Iterators, forks and OverlayWith graphs
// therefore share them by reference, and nothing ever appends to or writes
// through a slice taken from here.
type overlay struct {
	adds, dels [numPerms][]rdf.EncodedTriple
}

// size is the number of overlay entries, inserts plus tombstones.
func (ov *overlay) size() int { return len(ov.adds[permSPO]) + len(ov.dels[permSPO]) }

// newOverlay builds an overlay from SPO-sorted insert and tombstone keys,
// taking ownership of both slices.
func newOverlay(adds, dels []rdf.EncodedTriple) overlay {
	var ov overlay
	ov.adds[permSPO], ov.dels[permSPO] = adds, dels
	for k := permPOS; k < numPerms; k++ {
		ov.adds[k], ov.dels[k] = permuteSorted(k, adds), permuteSorted(k, dels)
	}
	return ov
}

// containsKey reports whether the sorted key slice holds exactly k.
func containsKey(keys []rdf.EncodedTriple, k rdf.EncodedTriple) bool {
	i := searchPrefix(keys, 0, k, 3, false)
	return i < len(keys) && keys[i] == k
}

// prefixRange returns the sub-slice of sorted keys whose first depth
// components equal key's, sharing the backing array. Its capacity is clipped
// so that an append by the holder could never write into the shared array.
func prefixRange(keys []rdf.EncodedTriple, key rdf.EncodedTriple, depth int) []rdf.EncodedTriple {
	lo, hi := 0, len(keys)
	if depth > 0 {
		lo = searchPrefix(keys, 0, key, depth, false)
		if lo == len(keys) || cmpPrefix(keys[lo], key, depth) != 0 {
			return nil
		}
		hi = searchPrefix(keys, lo, key, depth, true)
	}
	return keys[lo:hi:hi]
}

// mergeKeys returns (base ∪ ins) \ del as a fresh sorted slice, or base itself
// when there is nothing to merge. All three are sorted in the same order; ins
// is disjoint from base and del is a subset of it. Each edit is located by
// binary search and the stretches of base between edits are copied in bulk, so
// a small batch against a large overlay costs little more than the copy.
func mergeKeys(base, ins, del []rdf.EncodedTriple) []rdf.EncodedTriple {
	if len(ins) == 0 && len(del) == 0 {
		return base
	}
	n := len(base) + len(ins) - len(del)
	if n == 0 {
		return nil
	}
	out := make([]rdf.EncodedTriple, 0, n)
	i := 0 // base[:i] is merged
	for len(ins) > 0 || len(del) > 0 {
		if len(del) == 0 || (len(ins) > 0 && cmpKeys(ins[0], del[0]) < 0) {
			pos := searchPrefix(base, i, ins[0], 3, false)
			out = append(append(out, base[i:pos]...), ins[0])
			i, ins = pos, ins[1:]
		} else {
			pos := searchPrefix(base, i, del[0], 3, false)
			out = append(out, base[i:pos]...)
			i, del = pos+1, del[1:] // base[pos] is the tombstoned key
		}
	}
	return append(out, base[i:]...)
}

// keyState is where one triple stands relative to the runs and the overlay.
type keyState uint8

const (
	stAbsent keyState = iota // in neither the runs nor adds
	stAdded                  // in adds
	stLive                   // in the runs, not tombstoned
	stTomb                   // in the runs, tombstoned by dels
)

func (st keyState) present() bool { return st == stAdded || st == stLive }

// keyState classifies the SPO-ordered key against the installed overlay
// and the runs.
func (g *Graph) keyState(k rdf.EncodedTriple) keyState {
	switch {
	case containsKey(g.ov.adds[permSPO], k):
		return stAdded
	case containsKey(g.ov.dels[permSPO], k):
		return stTomb
	case g.inRuns(k):
		return stLive
	}
	return stAbsent
}

// batch is one write against a graph: one Apply. Triple
// count, version and component counts move as each operation lands; the
// overlay edits collect in pending and are merged into the overlay once, by
// flush, so a write costs O(|overlay| + |batch|) however many triples it
// carries and the installed slices are never written to.
type batch struct {
	g *Graph
	// pending maps each SPO key whose state the batch changed to its state
	// before the batch and its state now.
	pending map[rdf.EncodedTriple][2]keyState
	// grown is the net number of overlay entries pending would add.
	grown int
}

func (b *batch) state(k rdf.EncodedTriple) [2]keyState {
	if e, ok := b.pending[k]; ok {
		return e
	}
	st := b.g.keyState(k)
	return [2]keyState{st, st}
}

func (b *batch) set(k rdf.EncodedTriple, e [2]keyState, now keyState, sign int) {
	if b.pending == nil {
		b.pending = make(map[rdf.EncodedTriple][2]keyState)
	}
	e[1] = now
	b.pending[k] = e
	g := b.g
	g.n += sign
	g.version++
	g.pagedDirty = true
	for i, id := range k {
		g.counts[i].add(id, sign)
	}
}

// add inserts the encoded triple, reporting whether it was new.
func (b *batch) add(k rdf.EncodedTriple) bool {
	e := b.state(k)
	switch e[1] {
	case stAbsent:
		b.set(k, e, stAdded, +1)
		b.grown++
	case stTomb: // resurrect the still-present run entry
		b.set(k, e, stLive, +1)
		b.grown--
	default:
		return false
	}
	return true
}

// remove deletes the encoded triple, reporting whether it was present.
func (b *batch) remove(k rdf.EncodedTriple) bool {
	e := b.state(k)
	switch e[1] {
	case stAdded:
		b.set(k, e, stAbsent, -1)
		b.grown--
	case stLive:
		b.set(k, e, stTomb, -1)
		b.grown++
	default:
		return false
	}
	return true
}

// flush merges the pending edits into fresh overlay slices and installs them.
func (b *batch) flush() {
	if len(b.pending) == 0 {
		return
	}
	var addIn, addOut, delIn, delOut []rdf.EncodedTriple
	for k, e := range b.pending {
		if e[0] == e[1] {
			continue // changed and changed back
		}
		switch e[0] {
		case stAdded:
			addOut = append(addOut, k)
		case stTomb:
			delOut = append(delOut, k)
		}
		switch e[1] {
		case stAdded:
			addIn = append(addIn, k)
		case stTomb:
			delIn = append(delIn, k)
		}
	}
	clear(b.pending)
	b.grown = 0
	ov := &b.g.ov
	for k := permKind(0); k < numPerms; k++ {
		ov.adds[k] = mergeKeys(ov.adds[k], permuteSorted(k, addIn), permuteSorted(k, addOut))
		ov.dels[k] = mergeKeys(ov.dels[k], permuteSorted(k, delIn), permuteSorted(k, delOut))
	}
}

// maybeCompact merges the overlay, pending edits included, into the runs once
// it has reached the size threshold (see compactMinDelta).
func (b *batch) maybeCompact() {
	g := b.g
	delta := g.ov.size() + b.grown
	if delta >= compactMinDelta &&
		(delta >= compactMaxDelta || delta*compactFraction >= g.runs[permSPO].size()) {
		b.flush()
		g.Compact()
	}
}

// commit ends the batch: applies the compaction policy and installs whatever
// edits it left pending.
func (b *batch) commit() {
	b.maybeCompact()
	b.flush()
}
