package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sofos/internal/rdf"
)

// collect drains an iterator into SPO triples.
func collect(it Iterator) []rdf.EncodedTriple {
	var out []rdf.EncodedTriple
	for it.Next() {
		s, p, o := it.Triple()
		out = append(out, rdf.EncodedTriple{s, p, o})
	}
	return out
}

// splitGraph builds a graph with a compacted bulk load plus an uncompacted
// delta overlay (inserts and tombstones), so Split must route delta entries.
func splitGraph(t *testing.T, n int, rng *rand.Rand) *Graph {
	t.Helper()
	g := NewGraph()
	enc := make([]rdf.EncodedTriple, n)
	for i := range enc {
		enc[i] = rdf.EncodedTriple{
			rdf.ID(1 + rng.Intn(n/4+1)),
			rdf.ID(1 + rng.Intn(8)),
			rdf.ID(1 + rng.Intn(n/2+1)),
		}
	}
	g.loadEncoded(enc)
	// Tombstone some run triples and add fresh delta inserts, staying below
	// the compaction threshold so the overlay survives.
	for i := 0; i < 50 && i < len(enc); i += 3 {
		g.removeEncoded(enc[i][0], enc[i][1], enc[i][2])
	}
	for i := 0; i < 50; i++ {
		g.addEncoded(rdf.ID(1+rng.Intn(n/4+1)), rdf.ID(9+rng.Intn(4)), rdf.ID(1+rng.Intn(n/2+1)))
	}
	return g
}

// TestSplitConcatenationIdentity checks the core contract: for every pattern
// shape and every n, running the parts in order yields exactly the serial
// iteration, and part Remaining counts sum to the whole.
func TestSplitConcatenationIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := splitGraph(t, 2000, rng)
	shapes := []struct {
		name    string
		s, p, o rdf.ID
	}{
		{"all", rdf.NoID, rdf.NoID, rdf.NoID},
		{"p", rdf.NoID, 3, rdf.NoID},
		{"s", 5, rdf.NoID, rdf.NoID},
		{"delta-only-p", rdf.NoID, 10, rdf.NoID}, // predicate existing only in the delta
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			serial := collect(g.Scan(sh.s, sh.p, sh.o))
			for _, n := range []int{1, 2, 3, 4, 7, 16, 1000} {
				it := g.Scan(sh.s, sh.p, sh.o)
				parts := it.Split(n)
				if len(parts) > n {
					t.Fatalf("Split(%d) returned %d parts", n, len(parts))
				}
				total := 0
				var merged []rdf.EncodedTriple
				for _, p := range parts {
					total += p.Remaining()
					merged = append(merged, collect(p)...)
				}
				if total != it.Remaining() {
					t.Errorf("n=%d: Remaining sum = %d, want %d", n, total, it.Remaining())
				}
				if fmt.Sprint(merged) != fmt.Sprint(serial) {
					t.Errorf("n=%d: concatenation differs from serial scan\ngot  %v\nwant %v",
						n, merged, serial)
				}
			}
		})
	}
}

// TestSplitEmptyAndTiny covers degenerate inputs.
func TestSplitEmptyAndTiny(t *testing.T) {
	g := NewGraph()
	it := g.Scan(rdf.NoID, rdf.NoID, rdf.NoID)
	parts := it.Split(4)
	if len(parts) != 1 || parts[0].Next() {
		t.Errorf("empty split = %d parts", len(parts))
	}
	addOne(g, tr("s1", "p1", "o1"))
	g.Compact()
	it = g.Scan(rdf.NoID, rdf.NoID, rdf.NoID)
	var got []rdf.EncodedTriple
	for _, p := range it.Split(8) {
		got = append(got, collect(p)...)
	}
	if len(got) != 1 {
		t.Errorf("single-triple split yielded %d triples", len(got))
	}
}

// TestSplitConcurrentIteration iterates all parts from separate goroutines
// while the graph's owner writes again, asserting the snapshot property per
// part: the parts hold only immutable runs and overlay slices, never the
// graph (run under -race in CI).
func TestSplitConcurrentIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := splitGraph(t, 4000, rng)
	it := g.Scan(rdf.NoID, rdf.NoID, rdf.NoID)
	want := it.Remaining()
	parts := it.Split(8)
	counts := make([]int, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			counts[i] = len(collect(parts[i]))
		}(i)
	}
	// Concurrent writers must not affect the captured parts.
	for i := 0; i < 200; i++ {
		g.addEncoded(rdf.ID(1+i), rdf.ID(20), rdf.ID(1+i))
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != want {
		t.Errorf("concurrent split yielded %d triples, want %d", total, want)
	}
}
