package views

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"sofos/internal/algebra"
)

// groupChunkMax is the most groups one chunk of a groupTable holds. A refresh
// copies every chunk a delta touches (~14 KB each at 112 bytes a group) plus
// the table's chunk and fence slices (48 bytes a chunk), so the constant
// balances the two at view sizes of ~10⁴–10⁵ groups.
const groupChunkMax = 128

// groupChunkMin is the fewest groups a chunk holds when the table has more
// than one chunk: a refresh that leaves a chunk smaller folds it into a
// neighbour, so deaths cannot fragment the table into tiny chunks.
const groupChunkMin = groupChunkMax / 4

// groupTable is a view's groups as a persistent sorted table: groups in
// compareKeys order, cut into chunks of at most groupChunkMax groups. Chunks
// are immutable once a table is published; update builds a successor that
// copies only the chunks a delta touches and shares every other chunk with
// its predecessor, so a refresh costs O(touched chunks + number of chunks),
// not O(groups).
type groupTable struct {
	chunks [][]Group
	fences [][]algebra.Value // fences[i] is the key of chunks[i][0]
	n      int               // total groups
}

// compareValues orders two group-key values: unbound first, then by term
// kind, lexical value, datatype and language tag.
func compareValues(a, b algebra.Value) int {
	if a.Bound != b.Bound {
		if a.Bound {
			return 1
		}
		return -1
	}
	if !a.Bound {
		return 0
	}
	if c := cmp.Compare(a.Term.Kind, b.Term.Kind); c != 0 {
		return c
	}
	if c := strings.Compare(a.Term.Value, b.Term.Value); c != 0 {
		return c
	}
	if c := strings.Compare(a.Term.Datatype, b.Term.Datatype); c != 0 {
		return c
	}
	return strings.Compare(a.Term.Lang, b.Term.Lang)
}

// compareKeys is the table order of group keys, value by value. Two keys
// compare equal exactly when every value agrees in every field — the
// identity binaryGroupKey renders for blank-node labels. It allocates
// nothing.
func compareKeys(a, b []algebra.Value) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := compareValues(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// sortGroups sorts groups with distinct keys into table order.
func sortGroups(groups []Group) []Group {
	slices.SortFunc(groups, func(a, b Group) int { return compareKeys(a.Key, b.Key) })
	return groups
}

// newGroupTable builds a table over groups in table order with distinct
// keys; the table takes ownership of the slice.
func newGroupTable(sorted []Group) groupTable {
	var t groupTable
	t.appendRun(sorted)
	return t
}

// appendRun appends groups — sorted, and all above the table's last key — as
// evenly sized chunks of at most groupChunkMax. The chunks alias groups with
// their capacity clipped, so no later append can write across a chunk
// boundary.
func (t *groupTable) appendRun(groups []Group) {
	n := len(groups)
	k := (n + groupChunkMax - 1) / groupChunkMax
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		t.chunks = append(t.chunks, groups[lo:hi:hi])
		t.fences = append(t.fences, groups[lo].Key)
	}
	t.n += n
}

// share appends chunks of a published table, by pointer.
func (t *groupTable) share(chunks [][]Group, fences [][]algebra.Value) {
	t.chunks = append(t.chunks, chunks...)
	t.fences = append(t.fences, fences...)
	for _, c := range chunks {
		t.n += len(c)
	}
}

// chunkFor returns the index of the chunk whose key range holds key: the
// last chunk whose fence is not above it, or 0 for a key below every fence.
func (t *groupTable) chunkFor(key []algebra.Value) int {
	i := sort.Search(len(t.fences), func(i int) bool { return compareKeys(t.fences[i], key) > 0 })
	return max(i-1, 0)
}

// each calls fn on every group in table order until fn returns false.
func (t *groupTable) each(fn func(Group) bool) {
	for _, c := range t.chunks {
		for _, g := range c {
			if !fn(g) {
				return
			}
		}
	}
}

// groupChange applies one group's delta: old is the stored group under d's
// key, nil for a birth. It returns the group to store and whether it lives
// on; ok false abandons the update.
type groupChange func(old *Group, d *groupDelta) (g Group, live, ok bool)

// update returns the successor table with every delta applied by fn. deltas
// must be sorted by key with no key repeated. Each delta's chunk is found by
// binary search over the fences and its group by binary search within the
// chunk; the touched chunks are copied with births, updates and deaths
// applied, re-cut when they outgrow groupChunkMax, and folded into a
// neighbour when they shrink below groupChunkMin. Every other chunk is
// shared with t, which is left unchanged. ok is false when fn abandons the
// update.
func (t *groupTable) update(deltas []groupDelta, fn groupChange) (groupTable, bool) {
	out := groupTable{
		chunks: make([][]Group, 0, len(t.chunks)+1),
		fences: make([][]algebra.Value, 0, len(t.chunks)+1),
	}
	// pending holds merged groups not yet cut into chunks: a touched chunk
	// that came out below groupChunkMin waits here to absorb the next one.
	var pending []Group
	ci, di := 0, 0 // next chunk of t and next delta not yet consumed
	for di < len(deltas) || (pending != nil && ci < len(t.chunks)) {
		next := ci
		if pending == nil {
			next = max(ci, t.chunkFor(deltas[di].key))
			out.share(t.chunks[ci:next], t.fences[ci:next])
		}
		var chunk []Group
		end := len(deltas)
		if next < len(t.chunks) {
			chunk = t.chunks[next]
			if next+1 < len(t.chunks) {
				bound := t.fences[next+1]
				end = di + sort.Search(len(deltas)-di, func(i int) bool { return compareKeys(deltas[di+i].key, bound) >= 0 })
			}
		}
		var ok bool
		if pending, ok = mergeChunk(pending, chunk, deltas[di:end], fn); !ok {
			return groupTable{}, false
		}
		ci, di = next+1, end
		switch {
		case len(pending) >= groupChunkMin:
			out.appendRun(pending)
			pending = nil
		case len(pending) == 0:
			pending = nil // every group died: nothing to carry
		}
	}
	if len(pending) > 0 {
		if last := len(out.chunks) - 1; last >= 0 {
			// A short tail joins the chunk before it.
			prev := out.chunks[last]
			out.chunks, out.fences, out.n = out.chunks[:last], out.fences[:last], out.n-len(prev)
			pending = append(append(make([]Group, 0, len(prev)+len(pending)), prev...), pending...)
		}
		out.appendRun(pending)
	}
	if ci < len(t.chunks) {
		out.share(t.chunks[ci:], t.fences[ci:])
	}
	return out, true
}

// mergeChunk appends to pending the groups of chunk with deltas — all within
// the chunk's key range — applied by fn, in key order.
func mergeChunk(pending, chunk []Group, deltas []groupDelta, fn groupChange) ([]Group, bool) {
	if pending == nil {
		pending = make([]Group, 0, len(chunk)+len(deltas))
	}
	gi := 0
	for i := range deltas {
		d := &deltas[i]
		rest := chunk[gi:]
		p := gi + sort.Search(len(rest), func(j int) bool { return compareKeys(rest[j].Key, d.key) >= 0 })
		pending = append(pending, chunk[gi:p]...)
		var old *Group
		if p < len(chunk) && compareKeys(chunk[p].Key, d.key) == 0 {
			old = &chunk[p]
			p++
		}
		g, live, ok := fn(old, d)
		if !ok {
			return nil, false
		}
		if live {
			pending = append(pending, g)
		}
		gi = p
	}
	return append(pending, chunk[gi:]...), true
}

// restoreOrder puts groups read from saved state into table order. SaveState
// writes key order, which is only checked; state written in engine order,
// before views kept key order, is sorted once. Two groups with one key would
// encode onto one blank node, so they are rejected by input position.
func restoreOrder(groups []Group) ([]Group, error) {
	sorted := true
	for i := 1; i < len(groups); i++ {
		switch c := compareKeys(groups[i-1].Key, groups[i].Key); {
		case c == 0:
			return nil, fmt.Errorf("group %d repeats the key of group %d", i, i-1)
		case c > 0:
			sorted = false
		}
	}
	if sorted {
		return groups, nil
	}
	pos := make([]int, len(groups))
	for i := range pos {
		pos[i] = i
	}
	slices.SortStableFunc(pos, func(a, b int) int { return compareKeys(groups[a].Key, groups[b].Key) })
	out := make([]Group, len(groups))
	for i, p := range pos {
		if i > 0 && compareKeys(groups[pos[i-1]].Key, groups[p].Key) == 0 {
			return nil, fmt.Errorf("group %d repeats the key of group %d", p, pos[i-1])
		}
		out[i] = groups[p]
	}
	return out, nil
}
