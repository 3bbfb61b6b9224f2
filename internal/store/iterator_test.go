package store

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"sofos/internal/rdf"
)

func TestIteratorAllShapes(t *testing.T) {
	g := NewGraph()
	triples := []rdf.Triple{
		tr("s1", "p1", "o1"), tr("s1", "p1", "o2"), tr("s1", "p2", "o1"),
		tr("s2", "p1", "o1"), tr("s2", "p2", "o3"),
	}
	for _, x := range triples {
		addOne(g, x)
	}
	id := func(s string) rdf.ID {
		v, ok := g.Dict().Lookup(iri(s))
		if !ok {
			t.Fatalf("term %s not interned", s)
		}
		return v
	}
	cases := []struct {
		name    string
		s, p, o rdf.ID
		want    int
	}{
		{"spo hit", id("s1"), id("p1"), id("o1"), 1},
		{"spo miss", id("s1"), id("p2"), id("o3"), 0},
		{"sp", id("s1"), id("p1"), rdf.NoID, 2},
		{"so", id("s1"), rdf.NoID, id("o1"), 2},
		{"po", rdf.NoID, id("p1"), id("o1"), 2},
		{"s", id("s1"), rdf.NoID, rdf.NoID, 3},
		{"p", rdf.NoID, id("p1"), rdf.NoID, 3},
		{"o", rdf.NoID, rdf.NoID, id("o1"), 3},
		{"all", rdf.NoID, rdf.NoID, rdf.NoID, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			it := g.Scan(tc.s, tc.p, tc.o)
			if got := it.Remaining(); got != tc.want {
				t.Errorf("Remaining = %d, want %d", got, tc.want)
			}
			n := 0
			for it.Next() {
				s, p, o := it.Triple()
				if tc.s != rdf.NoID && s != tc.s {
					t.Errorf("yielded subject %d, pattern wants %d", s, tc.s)
				}
				if tc.p != rdf.NoID && p != tc.p {
					t.Errorf("yielded predicate %d, pattern wants %d", p, tc.p)
				}
				if tc.o != rdf.NoID && o != tc.o {
					t.Errorf("yielded object %d, pattern wants %d", o, tc.o)
				}
				if !g.Contains(rdf.Triple{S: g.Dict().Term(s), P: g.Dict().Term(p), O: g.Dict().Term(o)}) {
					t.Errorf("yielded non-member triple (%d,%d,%d)", s, p, o)
				}
				n++
			}
			if n != tc.want {
				t.Errorf("iterated %d triples, want %d", n, tc.want)
			}
		})
	}
}

// TestIteratorSortedOrder asserts the documented permutation-sorted yield
// order — the property the engine's range joins and Snapshot's grouped
// statistics rely on.
func TestIteratorSortedOrder(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(11)), 400)
	for _, pat := range [][3]rdf.ID{
		{rdf.NoID, rdf.NoID, rdf.NoID},
		{2, rdf.NoID, rdf.NoID},
		{rdf.NoID, 3, rdf.NoID},
	} {
		it := g.Scan(pat[0], pat[1], pat[2])
		var prev rdf.EncodedTriple
		first := true
		for it.Next() {
			s, p, o := it.Triple()
			cur := it.kind.key(s, p, o)
			if !first && cmpKeys(prev, cur) >= 0 {
				t.Fatalf("pattern %v: out-of-order yield %v after %v", pat, cur, prev)
			}
			prev, first = cur, false
		}
	}
}

// TestIteratorSnapshotSemantics: an Iterator obtained before mutations must
// yield exactly the pre-mutation triples.
func TestIteratorSnapshotSemantics(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 10; i++ {
		addOne(g, tr("s", "p", fmt.Sprintf("o%d", i)))
	}
	it := g.Scan(rdf.NoID, rdf.NoID, rdf.NoID)
	addOne(g, tr("s", "p", "onew"))
	removeOne(g, tr("s", "p", "o0"))
	g.Compact()
	n := 0
	for it.Next() {
		n++
	}
	if n != 10 {
		t.Errorf("snapshot iterator yielded %d triples, want the 10 pre-mutation ones", n)
	}
	if g.Len() != 10 {
		t.Errorf("graph Len = %d after mutations, want 10", g.Len())
	}
}

// TestConcurrentReadersWriters runs Match/Estimate/Scan readers against a
// writer the way the server's MVCC chain does: the writer applies updates
// to a private fork and publishes each generation; readers take whichever
// generation is published and never see it written. Run with -race; the
// assertions are internal-consistency ones (a reader sees only well-formed
// triples, Remaining matches what a Scan yields, and the callback and
// iterator APIs agree on one generation).
func TestConcurrentReadersWriters(t *testing.T) {
	g := NewGraph()
	var subj, pred, obj []rdf.ID
	for i := 0; i < 30; i++ {
		subj = append(subj, g.Dict().Intern(rdf.NewIRI(fmt.Sprintf("http://ex.org/cs%d", i))))
	}
	for i := 0; i < 5; i++ {
		pred = append(pred, g.Dict().Intern(rdf.NewIRI(fmt.Sprintf("http://ex.org/cp%d", i))))
	}
	for i := 0; i < 30; i++ {
		obj = append(obj, g.Dict().Intern(rdf.NewIRI(fmt.Sprintf("http://ex.org/co%d", i))))
	}
	seedRNG := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		g.addEncoded(subj[seedRNG.Intn(len(subj))], pred[seedRNG.Intn(len(pred))], obj[seedRNG.Intn(len(obj))])
	}
	var published atomic.Pointer[Graph]
	published.Store(g)

	const readers, ops, batch = 4, 1500, 25
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(100))
		w := published.Load().Fork()
		for i := 1; i <= 2*ops; i++ {
			s := subj[rng.Intn(len(subj))]
			p := pred[rng.Intn(len(pred))]
			o := obj[rng.Intn(len(obj))]
			if rng.Intn(3) == 0 {
				w.removeEncoded(s, p, o)
			} else {
				w.addEncoded(s, p, o)
			}
			if i%batch == 0 {
				published.Store(w)
				w = w.Fork()
			}
		}
	}()
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				var s, p, o rdf.ID
				if rng.Intn(2) == 0 {
					s = subj[rng.Intn(len(subj))]
				}
				if rng.Intn(2) == 0 {
					p = pred[rng.Intn(len(pred))]
				}
				if rng.Intn(2) == 0 {
					o = obj[rng.Intn(len(obj))]
				}
				gen := published.Load()
				switch i % 3 {
				case 0: // callback API, checked against the iterator on the same generation
					n := 0
					bad := false
					gen.Match(s, p, o, func(ms, mp, mo rdf.ID) bool {
						if (s != rdf.NoID && ms != s) || (p != rdf.NoID && mp != p) || (o != rdf.NoID && mo != o) {
							errs <- fmt.Errorf("Match yielded (%d,%d,%d) for pattern (%d,%d,%d)", ms, mp, mo, s, p, o)
							bad = true
							return false
						}
						n++
						return true
					})
					if bad {
						return
					}
					if it := gen.Scan(s, p, o); it.Remaining() != n {
						errs <- fmt.Errorf("Match yielded %d on one generation, Scan promised %d", n, it.Remaining())
						return
					}
				case 1: // iterator API; Remaining must equal yielded count
					it := gen.Scan(s, p, o)
					want := it.Remaining()
					n := 0
					for it.Next() {
						n++
					}
					if n != want {
						errs <- fmt.Errorf("Scan yielded %d, Remaining promised %d", n, want)
						return
					}
				default:
					if est := gen.Estimate(s, p, o); est < 0 {
						errs <- fmt.Errorf("negative estimate %d", est)
						return
					}
				}
			}
		}(int64(r + 200))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if published.Load() == g {
		t.Fatal("the writer never published a generation")
	}
}

// TestConcurrentSnapshotAndCompact covers the statistics and compaction
// paths under -race: one writer adds to and compacts successive forks,
// publishing each, while readers take Snapshot, Len and Estimate on
// whichever generation is published.
func TestConcurrentSnapshotAndCompact(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(13)), 500)
	var published atomic.Pointer[Graph]
	published.Store(g)
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		w := g.Fork()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			addOne(w, tr(fmt.Sprintf("ws%d", i%50), "wp", fmt.Sprintf("wo%d", i%40)))
			if i%97 == 0 {
				w.Compact()
			}
			published.Store(w)
			w = w.Fork()
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				gen := published.Load()
				st := gen.Snapshot()
				if st.Triples != gen.Len() || len(st.Predicates) == 0 {
					t.Errorf("implausible snapshot: %d triples on a generation of %d", st.Triples, gen.Len())
					return
				}
				if i%50 == 0 && gen.Len() != gen.Estimate(rdf.NoID, rdf.NoID, rdf.NoID) {
					t.Error("generation Len/Estimate mismatch")
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	<-writerDone
}
