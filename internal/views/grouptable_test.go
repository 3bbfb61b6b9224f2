package views

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sofos/internal/algebra"
	"sofos/internal/rdf"
)

// tableGroups lists a table's groups in order.
func tableGroups(t *groupTable) []Group {
	var out []Group
	t.each(func(g Group) bool {
		out = append(out, g)
		return true
	})
	return out
}

// sameGroups compares two group lists by key and contribution count, the
// fields TestGroupTableProperty sets.
func sameGroups(a, b []Group) bool {
	return slices.EqualFunc(a, b, func(x, y Group) bool { return compareKeys(x.Key, y.Key) == 0 && x.N == y.N })
}

// checkTableShape asserts the structural invariants of a group table: keys
// strictly increasing, fences equal to each chunk's first key, chunk sizes
// within bounds, capacities clipped to lengths, and a correct group count.
func checkTableShape(t *testing.T, label string, tbl *groupTable) {
	t.Helper()
	if len(tbl.fences) != len(tbl.chunks) {
		t.Fatalf("%s: %d fences for %d chunks", label, len(tbl.fences), len(tbl.chunks))
	}
	n := 0
	var prev []algebra.Value
	for i, c := range tbl.chunks {
		if len(c) == 0 || len(c) > groupChunkMax || (len(tbl.chunks) > 1 && len(c) < groupChunkMin) {
			t.Fatalf("%s: chunk %d of %d holds %d groups", label, i, len(tbl.chunks), len(c))
		}
		if cap(c) != len(c) {
			t.Fatalf("%s: chunk %d has capacity %d beyond its %d groups", label, i, cap(c), len(c))
		}
		if !reflect.DeepEqual(tbl.fences[i], c[0].Key) {
			t.Fatalf("%s: fence %d is %v, chunk starts at %v", label, i, tbl.fences[i], c[0].Key)
		}
		for _, g := range c {
			if prev != nil && compareKeys(prev, g.Key) >= 0 {
				t.Fatalf("%s: key %v does not follow %v", label, g.Key, prev)
			}
			prev = g.Key
			n++
		}
	}
	if n != tbl.n {
		t.Fatalf("%s: table counts %d groups, holds %d", label, tbl.n, n)
	}
}

// TestGroupTableProperty drives random batches of births, updates and deaths
// through groupTable.update against a map model. After every batch the new
// table must be sorted, unique, within its chunk bounds and equal to the
// model; every chunk whose neighbourhood no delta touched must be shared by
// pointer with the previous version; and the previous version must be
// unchanged. Batches that fn abandons must report failure.
func TestGroupTableProperty(t *testing.T) {
	keys := make([][]algebra.Value, 4000)
	for i := range keys {
		second := algebra.Unbound // some keys carry an unbound value
		if i%7 != 0 {
			second = algebra.Bind(rdf.NewInteger(int64(i % 7)))
		}
		keys[i] = []algebra.Value{algebra.Bind(rdf.NewLiteral(fmt.Sprintf("k%d", i/7))), second}
	}
	key := func(i int) []algebra.Value { return keys[i] }
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			model := map[int]int64{} // key index -> N
			var tbl groupTable
			for batch := 0; batch < 200; batch++ {
				// Mostly small batches, now and then a large one that splits
				// chunks or empties whole runs of them.
				size := 1 + rng.Intn(8)
				if rng.Intn(10) == 0 {
					size = 1 + rng.Intn(600)
				}
				picked := map[int]bool{}
				for len(picked) < size {
					picked[rng.Intn(len(keys))] = true
				}
				// Now and then kill a contiguous run of live groups, emptying
				// or shrinking whole chunks.
				kill := map[int]bool{}
				if rng.Intn(8) == 0 && len(model) > 0 {
					live := make([]int, 0, len(model))
					for i := range model {
						live = append(live, i)
					}
					slices.SortFunc(live, func(a, b int) int { return compareKeys(key(a), key(b)) })
					from := rng.Intn(len(live))
					for _, i := range live[from:min(len(live), from+1+rng.Intn(3*groupChunkMax))] {
						picked[i], kill[i] = true, true
					}
				}
				idxs := make([]int, 0, size)
				for i := range picked {
					idxs = append(idxs, i)
				}
				slices.SortFunc(idxs, func(a, b int) int { return compareKeys(key(a), key(b)) })
				deltas := make([]groupDelta, len(idxs))
				for j, i := range idxs {
					d := groupDelta{key: key(i)}
					n, exists := model[i]
					switch {
					case !exists:
						d.ins = make([]algebra.Value, 1+rng.Intn(3))
					case kill[i] || rng.Intn(3) == 0: // death
						d.del = make([]algebra.Value, n)
					default:
						d.ins = make([]algebra.Value, rng.Intn(3))
						d.del = make([]algebra.Value, rng.Intn(int(n)))
					}
					deltas[j] = d
				}
				abandonAt := -1
				if rng.Intn(20) == 0 {
					abandonAt = rng.Intn(len(deltas))
				}
				prev := tbl
				prevGroups := tableGroups(&prev)
				calls := 0
				next, ok := prev.update(deltas, func(old *Group, d *groupDelta) (Group, bool, bool) {
					if calls == abandonAt {
						return Group{}, false, false
					}
					calls++
					g := Group{Key: d.key}
					if old != nil {
						g = *old
					}
					g.N += int64(len(d.ins) - len(d.del))
					return g, g.N > 0, true
				})
				label := fmt.Sprintf("batch %d", batch)
				if got := tableGroups(&prev); !sameGroups(got, prevGroups) {
					t.Fatalf("%s: update changed the previous version", label)
				}
				if abandonAt >= 0 {
					if ok {
						t.Fatalf("%s: abandoned update reported success", label)
					}
					continue
				}
				if !ok {
					t.Fatalf("%s: update failed", label)
				}
				for j, i := range idxs {
					if model[i] += int64(len(deltas[j].ins) - len(deltas[j].del)); model[i] == 0 {
						delete(model, i)
					}
				}
				checkTableShape(t, label, &next)
				var want []Group
				for i, n := range model {
					want = append(want, Group{Key: key(i), N: n})
				}
				slices.SortFunc(want, func(a, b Group) int { return compareKeys(a.Key, b.Key) })
				if got := tableGroups(&next); !sameGroups(got, want) {
					t.Fatalf("%s: table holds %d groups, model %d", label, len(got), len(want))
				}
				touched := make([]bool, len(prev.chunks)+2) // padded by one on each side
				for _, d := range deltas {
					touched[prev.chunkFor(d.key)+1] = true
				}
				shared := map[*Group]bool{}
				for _, c := range next.chunks {
					shared[&c[0]] = true
				}
				for i, c := range prev.chunks {
					if !touched[i] && !touched[i+1] && !touched[i+2] && !shared[&c[0]] {
						t.Fatalf("%s: untouched chunk %d of %d was copied", label, i, len(prev.chunks))
					}
				}
				tbl = next
			}
			if len(tbl.chunks) < 4 {
				t.Fatalf("the table never grew past %d chunks", len(tbl.chunks))
			}
		})
	}
}
