package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"sofos/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }

func tr(s, p, o string) rdf.Triple {
	return rdf.Triple{S: iri(s), P: iri(p), O: iri(o)}
}

// addOne inserts x as a one-triple Apply, the write path updates take,
// reporting whether it was new. It panics on an invalid triple.
func addOne(g *Graph, x rdf.Triple) bool {
	d, err := g.Apply([]rdf.Triple{x}, nil)
	if err != nil {
		panic(err)
	}
	return len(d.Inserted) == 1
}

// removeOne deletes x as a one-triple Apply, reporting whether it was
// present.
func removeOne(g *Graph, x rdf.Triple) bool {
	d, _ := g.Apply(nil, []rdf.Triple{x}) // Apply validates inserts only
	return len(d.Deleted) == 1
}

func TestGraphAddContainsLen(t *testing.T) {
	g := NewGraph()
	if g.Len() != 0 {
		t.Fatalf("empty Len = %d", g.Len())
	}
	if !addOne(g, tr("s", "p", "o")) {
		t.Fatal("insert of a new triple reported not new")
	}
	if !g.Contains(tr("s", "p", "o")) {
		t.Error("Contains after insert = false")
	}
	if addOne(g, tr("s", "p", "o")) {
		t.Error("duplicate insert reported new")
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
	if g.Contains(tr("s", "p", "x")) {
		t.Error("Contains of absent triple = true")
	}
}

func TestGraphAddInvalid(t *testing.T) {
	g := NewGraph()
	_, err := g.Apply([]rdf.Triple{{S: rdf.NewLiteral("s"), P: iri("p"), O: iri("o")}}, nil)
	if err == nil {
		t.Error("literal subject accepted")
	}
	_, err = g.Apply([]rdf.Triple{tr("s", "p", "o"), {S: iri("s"), P: rdf.NewBlank("p"), O: iri("o")}}, nil)
	if err == nil {
		t.Error("blank predicate accepted")
	}
	if g.Len() != 0 || g.Version() != 0 {
		t.Errorf("a rejected batch changed the graph: Len %d, Version %d", g.Len(), g.Version())
	}
}

func TestGraphRemove(t *testing.T) {
	g := NewGraph()
	addOne(g, tr("s", "p", "o"))
	addOne(g, tr("s", "p", "o2"))
	if !removeOne(g, tr("s", "p", "o")) {
		t.Fatal("delete of present triple reported absent")
	}
	if removeOne(g, tr("s", "p", "o")) {
		t.Error("second delete reported present")
	}
	if removeOne(g, tr("never", "seen", "terms")) {
		t.Error("delete of unknown terms reported present")
	}
	if g.Len() != 1 || g.Contains(tr("s", "p", "o")) || !g.Contains(tr("s", "p", "o2")) {
		t.Error("graph state wrong after delete")
	}
}

// matchAll collects every decoded triple matching a pattern where empty
// strings are wildcards.
func matchAll(g *Graph, s, p, o rdf.Term) []rdf.Triple {
	lookup := func(t rdf.Term) rdf.ID {
		if t.Value == "" {
			return rdf.NoID
		}
		id, ok := g.Dict().Lookup(t)
		if !ok {
			return rdf.ID(1 << 30) // unknown term: impossible ID
		}
		return id
	}
	var out []rdf.Triple
	sid, pid, oid := lookup(s), lookup(p), lookup(o)
	if sid == 1<<30 || pid == 1<<30 || oid == 1<<30 {
		return nil
	}
	g.Match(sid, pid, oid, func(a, b, c rdf.ID) bool {
		out = append(out, rdf.Triple{S: g.Dict().Term(a), P: g.Dict().Term(b), O: g.Dict().Term(c)})
		return true
	})
	return out
}

func TestGraphMatchAllShapes(t *testing.T) {
	g := NewGraph()
	triples := []rdf.Triple{
		tr("s1", "p1", "o1"), tr("s1", "p1", "o2"), tr("s1", "p2", "o1"),
		tr("s2", "p1", "o1"), tr("s2", "p2", "o3"),
	}
	for _, x := range triples {
		addOne(g, x)
	}
	var none rdf.Term
	cases := []struct {
		name    string
		s, p, o rdf.Term
		want    int
	}{
		{"spo hit", iri("s1"), iri("p1"), iri("o1"), 1},
		{"spo miss", iri("s1"), iri("p2"), iri("o3"), 0},
		{"sp", iri("s1"), iri("p1"), none, 2},
		{"so", iri("s1"), none, iri("o1"), 2},
		{"po", none, iri("p1"), iri("o1"), 2},
		{"s", iri("s1"), none, none, 3},
		{"p", none, iri("p1"), none, 3},
		{"o", none, none, iri("o1"), 3},
		{"all", none, none, none, 5},
		{"unknown term", iri("zzz"), none, none, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := matchAll(g, tc.s, tc.p, tc.o)
			if len(got) != tc.want {
				t.Errorf("match returned %d triples, want %d: %v", len(got), tc.want, got)
			}
			for _, tri := range got {
				if !g.Contains(tri) {
					t.Errorf("match produced non-member triple %s", tri)
				}
			}
		})
	}
}

func TestGraphMatchEarlyStop(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 10; i++ {
		addOne(g, tr("s", "p", fmt.Sprintf("o%d", i)))
	}
	n := 0
	g.Match(rdf.NoID, rdf.NoID, rdf.NoID, func(_, _, _ rdf.ID) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d, want 3", n)
	}
}

func TestGraphEstimate(t *testing.T) {
	g := NewGraph()
	addOne(g, tr("s1", "p1", "o1"))
	addOne(g, tr("s1", "p1", "o2"))
	addOne(g, tr("s2", "p1", "o1"))
	addOne(g, tr("s2", "p2", "o1"))
	d := g.Dict()
	id := func(s string) rdf.ID {
		v, ok := d.Lookup(iri(s))
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
		{"exact hit", id("s1"), id("p1"), id("o1"), 1},
		{"exact miss", id("s1"), id("p2"), id("o1"), 0},
		{"sp", id("s1"), id("p1"), rdf.NoID, 2},
		{"po", rdf.NoID, id("p1"), id("o1"), 2},
		{"so", id("s1"), rdf.NoID, id("o1"), 1},
		{"s only", id("s1"), rdf.NoID, rdf.NoID, 2},
		{"p only", rdf.NoID, id("p1"), rdf.NoID, 3},
		{"o only", rdf.NoID, rdf.NoID, id("o1"), 3},
		{"all", rdf.NoID, rdf.NoID, rdf.NoID, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := g.Estimate(tc.s, tc.p, tc.o); got != tc.want {
				t.Errorf("Estimate = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestGraphEstimateMatchesMatchCount(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 500)
	d := g.Dict()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		var s, p, o rdf.ID
		if rng.Intn(2) == 0 {
			s = rdf.ID(rng.Intn(d.Len()) + 1)
		}
		if rng.Intn(2) == 0 {
			p = rdf.ID(rng.Intn(d.Len()) + 1)
		}
		if rng.Intn(2) == 0 {
			o = rdf.ID(rng.Intn(d.Len()) + 1)
		}
		n := 0
		g.Match(s, p, o, func(_, _, _ rdf.ID) bool { n++; return true })
		if est := g.Estimate(s, p, o); est != n {
			t.Fatalf("Estimate(%d,%d,%d) = %d but Match found %d", s, p, o, est, n)
		}
	}
}

// randomGraph builds a graph of about n random triples over a small term
// universe so patterns hit often.
func randomGraph(rng *rand.Rand, n int) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("s%d", rng.Intn(20))
		p := fmt.Sprintf("p%d", rng.Intn(6))
		o := fmt.Sprintf("o%d", rng.Intn(30))
		addOne(g, tr(s, p, o))
	}
	return g
}

func TestGraphFork(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), 200)
	c := g.Fork()
	if c.Len() != g.Len() {
		t.Fatalf("fork Len %d != %d", c.Len(), g.Len())
	}
	for _, x := range g.Triples() {
		if !c.Contains(x) {
			t.Fatalf("fork missing %s", x)
		}
	}
	// A fork is independent in both directions, though the MVCC chain only
	// ever writes the fork.
	addOne(c, tr("new", "p", "o"))
	if g.Contains(tr("new", "p", "o")) {
		t.Error("fork write leaked into original")
	}
	addOne(g, tr("orig", "p", "o"))
	if c.Contains(tr("orig", "p", "o")) {
		t.Error("original write leaked into fork")
	}
}

func TestGraphTriplesAndSorted(t *testing.T) {
	g := NewGraph()
	addOne(g, tr("b", "p", "o"))
	addOne(g, tr("a", "p", "o"))
	ts := g.SortedTriples()
	if len(ts) != 2 || ts[0].S.Value != "http://ex.org/a" {
		t.Errorf("SortedTriples = %v", ts)
	}
}

func TestDistinctNodesAndPredicates(t *testing.T) {
	g := NewGraph()
	addOne(g, tr("s1", "p1", "o1"))
	addOne(g, tr("s1", "p2", "o2"))
	addOne(g, rdf.Triple{S: iri("s1"), P: iri("p1"), O: rdf.NewInteger(5)})
	// Nodes: s1, o1, o2, "5" -> 4. Predicates p1, p2 are NOT nodes here.
	if got := g.DistinctNodes(); got != 4 {
		t.Errorf("DistinctNodes = %d, want 4", got)
	}
	if got := g.Snapshot().DistinctPredicates; got != 2 {
		t.Errorf("DistinctPredicates = %d, want 2", got)
	}
	// A predicate also used as subject/object counts as a node.
	addOne(g, rdf.Triple{S: iri("p1"), P: iri("p2"), O: rdf.NewLiteral("meta")})
	if got := g.DistinctNodes(); got != 6 {
		t.Errorf("DistinctNodes after meta-triple = %d, want 6", got)
	}
}

func TestLoadTriples(t *testing.T) {
	g := NewGraph()
	n, err := g.LoadTriples([]rdf.Triple{tr("a", "p", "b"), tr("a", "p", "b"), tr("c", "p", "d")})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || g.Len() != 2 {
		t.Errorf("LoadTriples added %d (len %d), want 2", n, g.Len())
	}
	_, err = g.LoadTriples([]rdf.Triple{{S: rdf.NewLiteral("x"), P: iri("p"), O: iri("y")}})
	if err == nil {
		t.Error("LoadTriples accepted invalid triple")
	}
}

// TestAddRemoveInvariantProperty: after any sequence of adds and removes, the
// graph's Len, Contains, and all three indexes agree with a reference
// map-based implementation.
func TestAddRemoveInvariantProperty(t *testing.T) {
	type op struct {
		Add     bool
		S, P, O uint8
	}
	prop := func(ops []op) bool {
		g := NewGraph()
		ref := make(map[rdf.Triple]bool)
		for _, o := range ops {
			x := tr(fmt.Sprintf("s%d", o.S%8), fmt.Sprintf("p%d", o.P%4), fmt.Sprintf("o%d", o.O%8))
			if o.Add {
				if addOne(g, x) == ref[x] {
					return false // added must be true iff not already present
				}
				ref[x] = true
			} else {
				removed := removeOne(g, x)
				if removed != ref[x] {
					return false
				}
				delete(ref, x)
			}
		}
		if g.Len() != len(ref) {
			return false
		}
		for x := range ref {
			if !g.Contains(x) {
				return false
			}
		}
		// Full scan must produce exactly ref.
		got := g.Triples()
		if len(got) != len(ref) {
			return false
		}
		for _, x := range got {
			if !ref[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotStats(t *testing.T) {
	g := NewGraph()
	addOne(g, tr("s1", "p1", "o1"))
	addOne(g, tr("s2", "p1", "o1"))
	addOne(g, tr("s1", "p2", "o2"))
	st := g.Snapshot()
	if st.Triples != 3 {
		t.Errorf("Triples = %d", st.Triples)
	}
	if st.DistinctSubjects != 2 || st.DistinctPredicates != 2 || st.DistinctObjects != 2 {
		t.Errorf("distinct S/P/O = %d/%d/%d", st.DistinctSubjects, st.DistinctPredicates, st.DistinctObjects)
	}
	if st.DistinctNodes != 4 {
		t.Errorf("DistinctNodes = %d, want 4", st.DistinctNodes)
	}
	if len(st.Predicates) != 2 {
		t.Fatalf("Predicates = %v", st.Predicates)
	}
	// Sorted by count descending: p1 (2) before p2 (1).
	if st.Predicates[0].Predicate.Value != "http://ex.org/p1" || st.Predicates[0].Count != 2 {
		t.Errorf("top predicate = %+v", st.Predicates[0])
	}
	if st.Predicates[0].DistinctSubjects != 2 || st.Predicates[0].DistinctObjects != 1 {
		t.Errorf("p1 distinct S/O = %d/%d", st.Predicates[0].DistinctSubjects, st.Predicates[0].DistinctObjects)
	}
	if st.PredicateCount("http://ex.org/p2") != 1 {
		t.Errorf("PredicateCount(p2) = %d", st.PredicateCount("http://ex.org/p2"))
	}
	if st.PredicateCount("http://ex.org/absent") != 0 {
		t.Error("PredicateCount of absent predicate != 0")
	}
}

// TestConcurrentReaders pins the fork contract the server's MVCC chain rests
// on: readers of a frozen graph take no lock, and one writer applying
// batches and compacting successive forks of it never changes what they
// see — not even by interning new terms in the dictionary the forks share.
// Run under -race, it also fails on any write to memory a fork shares.
func TestConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var ts []rdf.Triple
	for i := 0; i < 3000; i++ {
		ts = append(ts, tr(fmt.Sprintf("s%d", rng.Intn(300)), fmt.Sprintf("p%d", rng.Intn(8)), fmt.Sprintf("o%d", rng.Intn(400))))
	}
	parent, err := BuildFrom(ts)
	if err != nil {
		t.Fatal(err)
	}
	// Leave an uncompacted overlay so the forks share its slices and copy
	// its count adjustments.
	var added []rdf.Triple
	for i := 0; i < 60; i++ {
		added = append(added, tr(fmt.Sprintf("ps%d", i), "p0", fmt.Sprintf("o%d", i)))
		addOne(parent, added[i])
		removeOne(parent, ts[i])
	}
	unseen := rdf.ID(parent.Dict().Len() + 1) // the writer interns it below

	patterns := [][3]rdf.ID{{}, {unseen, rdf.NoID, rdf.NoID}, {rdf.NoID, unseen, rdf.NoID}}
	for _, x := range ts[:40] {
		s, _ := parent.Dict().Lookup(x.S)
		p, _ := parent.Dict().Lookup(x.P)
		o, _ := parent.Dict().Lookup(x.O)
		patterns = append(patterns, [3]rdf.ID{s, rdf.NoID, rdf.NoID}, [3]rdf.ID{rdf.NoID, p, o}, [3]rdf.ID{s, p, o})
	}
	estimates := func() []int {
		out := make([]int, len(patterns))
		for i, pt := range patterns {
			out[i] = parent.Estimate(pt[0], pt[1], pt[2])
		}
		return out
	}
	// The dictionary is shared and grows with the writer's terms; every
	// other part of the footprint belongs to the frozen parent.
	memStats := func() MemStats {
		ms := parent.MemStats()
		ms.DictBytes, ms.TotalBytes = 0, 0
		return ms
	}
	all := func() []rdf.EncodedTriple { return collect(parent.Scan(rdf.NoID, rdf.NoID, rdf.NoID)) }
	split := func() []rdf.EncodedTriple {
		it := parent.Scan(rdf.NoID, rdf.NoID, rdf.NoID)
		var out []rdf.EncodedTriple
		for _, part := range it.Split(4) {
			out = append(out, collect(part)...)
		}
		return out
	}
	wantLen, wantAll, wantEst := parent.Len(), all(), estimates()
	wantStats, wantMem := parent.Snapshot(), memStats()
	if !reflect.DeepEqual(split(), wantAll) {
		t.Fatal("split scan disagrees with the full scan before any write")
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3 || !done.Load(); i++ {
				switch {
				case parent.Len() != wantLen:
					t.Errorf("parent Len moved to %d, want %d", parent.Len(), wantLen)
				case !reflect.DeepEqual(all(), wantAll):
					t.Error("parent full scan changed")
				case !reflect.DeepEqual(split(), wantAll):
					t.Error("parent split scan changed")
				case !reflect.DeepEqual(estimates(), wantEst):
					t.Error("parent estimates changed")
				case !reflect.DeepEqual(parent.Snapshot(), wantStats):
					t.Error("parent statistics changed")
				case !reflect.DeepEqual(memStats(), wantMem):
					t.Error("parent storage footprint changed")
				default:
					continue
				}
				return
			}
		}()
	}

	w := parent.Fork()
	wrng := rand.New(rand.NewSource(10))
	for round := 0; round < 40; round++ {
		// New triples grow the overlay; deleting the parent's overlay
		// inserts and re-adding its tombstoned triples shrink it. Even
		// rounds, the first included, only shrink the slices a fork shares.
		var ins, del []rdf.Triple
		for i := 0; i < 50 && round%2 == 1; i++ {
			ins = append(ins, tr(fmt.Sprintf("new%d", wrng.Intn(2000)), fmt.Sprintf("p%d", wrng.Intn(9)), fmt.Sprintf("o%d", wrng.Intn(400))))
		}
		for i := 0; i < 10; i++ {
			ins = append(ins, ts[wrng.Intn(80)])
		}
		for i := 0; i < 20; i++ {
			del = append(del, ts[wrng.Intn(len(ts))], added[wrng.Intn(len(added))])
		}
		if _, err := w.Apply(ins, del); err != nil {
			t.Error(err)
			break
		}
		if round%7 == 6 {
			w.Compact()
		}
		w = w.Fork() // publish this generation; keep writing its successor
	}
	done.Store(true)
	wg.Wait()
	if w.Len() == wantLen || w.Estimate(unseen, rdf.NoID, rdf.NoID) == 0 {
		t.Fatalf("writer's forks hold %d triples and none with the first new subject; the writes never landed", w.Len())
	}
}
