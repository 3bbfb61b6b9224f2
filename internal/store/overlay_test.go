package store

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"sofos/internal/rdf"
)

// checkOverlayInvariants asserts what every reader of the overlay relies on:
// each permutation's slices are strictly sorted rekeyings of the same two
// sets, inserts are absent from the runs and tombstones present in them, and
// the triple count and the distinct-ID counts equal what they summarize.
func checkOverlayInvariants(t *testing.T, g *Graph) {
	t.Helper()
	for side, perms := range [][numPerms][]rdf.EncodedTriple{g.ov.adds, g.ov.dels} {
		for k := permKind(0); k < numPerms; k++ {
			keys := perms[k]
			if !slices.IsSortedFunc(keys, cmpKeys) || len(slices.Compact(slices.Clone(keys))) != len(keys) {
				t.Fatalf("overlay side %d perm %d is not strictly sorted", side, k)
			}
			if len(keys) != len(perms[permSPO]) {
				t.Fatalf("overlay side %d: perm %d holds %d keys, SPO %d", side, k, len(keys), len(perms[permSPO]))
			}
			for _, key := range keys {
				s, p, o := k.spo(key)
				spo := rdf.EncodedTriple{s, p, o}
				if !containsKey(perms[permSPO], spo) {
					t.Fatalf("overlay side %d perm %d holds %v, SPO does not", side, k, spo)
				}
				if k != permSPO {
					continue // same set as SPO, checked there in run order
				}
				if inRuns, tomb := g.inRuns(spo), side == 1; inRuns != tomb {
					t.Fatalf("overlay side %d holds %v, in runs: %v", side, spo, inRuns)
				}
			}
		}
	}
	if want := g.runs[permSPO].size() - len(g.ov.dels[permSPO]) + len(g.ov.adds[permSPO]); g.n != want {
		t.Fatalf("n = %d, runs and overlay hold %d", g.n, want)
	}
	for i := range g.counts {
		c := &g.counts[i]
		distinct, total := 0, 0
		c.each(func(id rdf.ID, n int) {
			if n != c.get(id) || n <= 0 {
				t.Fatalf("count %d: each yields %d for id %d, get says %d", i, n, id, c.get(id))
			}
			distinct++
			total += n
		})
		if distinct != c.distinct || total != g.n {
			t.Fatalf("count %d: %d distinct ids summing to %d, recorded %d over %d triples", i, distinct, total, c.distinct, g.n)
		}
		for id, d := range c.delta {
			if d == 0 || c.base[id]+d < 0 {
				t.Fatalf("count %d: adjustment %d for id %d over base %d", i, d, id, c.base[id])
			}
		}
	}
}

// TestScanIntoReuseAcrossGenerations is the MVCC read path under -race:
// readers scan published generations through one reused Iterator each while a
// writer forks, applies and compacts the next ones. Iterators hold sub-slices
// of overlay slices that generations share, so a reader that recycled them as
// scratch space would write into what others read; every generation, however
// old, must keep answering what it answered when it was published.
func TestScanIntoReuseAcrossGenerations(t *testing.T) {
	type generation struct {
		g    *Graph
		want [][]rdf.EncodedTriple // per subject pattern, then the full scan
	}
	const subjects, generations, readers = 12, 40, 4
	subject := func(i int) rdf.Term { return iri(fmt.Sprintf("s%d", i)) }
	obs := func(s, v int) rdf.Triple {
		return rdf.Triple{S: subject(s), P: iri("p"), O: rdf.NewInteger(int64(v))}
	}
	var boot []rdf.Triple
	for s := 0; s < subjects; s++ {
		for v := 0; v < 40; v++ {
			boot = append(boot, obs(s, v))
		}
	}
	g0, err := BuildFrom(boot)
	if err != nil {
		t.Fatal(err)
	}
	patterns := make([]rdf.ID, subjects+1) // NoID last: the full scan
	for s := 0; s < subjects; s++ {
		patterns[s], _ = g0.Dict().Lookup(subject(s))
	}
	scan := func(it *Iterator, g *Graph, s rdf.ID) []rdf.EncodedTriple {
		var out []rdf.EncodedTriple
		g.ScanInto(it, s, rdf.NoID, rdf.NoID)
		for it.Next() {
			s, p, o := it.Triple()
			out = append(out, rdf.EncodedTriple{s, p, o})
		}
		return out
	}
	publish := func(g *Graph) *generation {
		gen := &generation{g: g}
		for _, s := range patterns {
			gen.want = append(gen.want, scan(new(Iterator), g, s))
		}
		return gen
	}

	var mu sync.Mutex
	history := []*generation{publish(g0)}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			var it Iterator
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				gen := history[rng.Intn(len(history))]
				mu.Unlock()
				i := rng.Intn(len(patterns))
				if got := scan(&it, gen.g, patterns[i]); !slices.Equal(got, gen.want[i]) {
					t.Errorf("generation at version %d answers pattern %d with %d triples, published with %d",
						gen.g.Version(), i, len(got), len(gen.want[i]))
					return
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(99))
	cur := g0
	for n := 1; n <= generations; n++ {
		next := cur.Fork()
		var ins, del []rdf.Triple
		for i := 0; i < 20; i++ {
			ins = append(ins, obs(rng.Intn(subjects), 40+rng.Intn(400)))
			del = append(del, obs(rng.Intn(subjects), rng.Intn(440)))
		}
		if _, err := next.Apply(ins, del); err != nil {
			t.Fatal(err)
		}
		if n%8 == 0 {
			next.Compact()
		}
		gen := publish(next)
		mu.Lock()
		history = append(history, gen)
		mu.Unlock()
		cur = next
	}
	close(done)
	wg.Wait()
}

// overlaidGraph returns a 120k-triple graph (subjects 1..20000, six triples
// each) carrying n overlay inserts on subjects of their own, beyond the base
// subjects: no overlay entry is in range of a base-subject point scan.
func overlaidGraph(n int) *Graph {
	base := make([]rdf.EncodedTriple, 0, 120_000)
	for s := rdf.ID(1); s <= 20_000; s++ {
		for p := rdf.ID(1); p <= 6; p++ {
			base = append(base, rdf.EncodedTriple{s, p, s%977 + p})
		}
	}
	g := NewGraph()
	g.loadEncoded(base)
	b := batch{g: g}
	for i := 0; i < n; i++ {
		b.add(rdf.EncodedTriple{rdf.ID(30_000 + i), 1 + rdf.ID(i%6), rdf.ID(1 + i%977)})
	}
	b.flush() // not commit: the 16384-entry overlay must survive
	return g
}

// TestPointScanOverOverlayBudget holds the read path beside a writer to its
// budget: a point scan that finds nothing of the overlay in its range
// allocates nothing, and costs about the same however large the overlay is.
func TestPointScanOverOverlayBudget(t *testing.T) {
	pointScans := func(g *Graph, it *Iterator) {
		for s := rdf.ID(1); s <= 20_000; s += 7 {
			g.ScanInto(it, s, 3, rdf.NoID)
			if !it.Next() || it.Next() {
				t.Fatalf("point scan of subject %d does not yield exactly one triple", s)
			}
		}
	}
	var it Iterator
	g := overlaidGraph(1024)
	pointScans(g, &it) // warm-up: the iterator allocates its decode arena once
	if allocs := testing.AllocsPerRun(5, func() { pointScans(g, &it) }); allocs != 0 && !raceEnabled {
		t.Errorf("point scans over a 1024-entry overlay allocate %v times per pass, want 0", allocs)
	}
	if testing.Short() || raceEnabled {
		return // timing below means nothing here
	}
	// Fastest of several passes each: the box's noise only ever adds time.
	fastest := func(g *Graph) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 15; i++ {
			start := time.Now()
			pointScans(g, &it)
			best = min(best, time.Since(start))
		}
		return best
	}
	empty, large := fastest(overlaidGraph(0)), fastest(overlaidGraph(16384))
	if large > 2*empty {
		t.Errorf("point scans over a 16384-entry overlay take %v per pass, %v with no overlay: more than 2x", large, empty)
	}
}
