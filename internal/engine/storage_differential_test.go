package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sofos/internal/rdf"
	"sofos/internal/store"
)

// TestEngineDifferentialHeapVsMmap opens the same paged (v3) snapshot through
// both entry points — store.Load from a reader (the oracle, every page a heap
// copy) and store.LoadFile (the file mapped, pages served from the OS page
// cache) — and requires bit-identical answers for random BGP queries and a
// battery of aggregates across every lifecycle stage: the initial load, a
// live delta overlay, a checkpoint + reopen, and a final compaction. The
// re-saved snapshots themselves must also be byte-identical, so the two
// entry points cannot drift even in what they persist.
func TestEngineDifferentialHeapVsMmap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))

	// Build the seed graph with the same vocabulary the flat-vs-block
	// differential uses: a tiny dense core randomBGPQuery knows about plus a
	// wide subject space so runs span many blocks and pages.
	seed := store.NewGraphWithCodec(store.CodecBlock)
	addRandomTo := func(g *store.Graph, n int) {
		for i := 0; i < n; i++ {
			s := rdf.NewIRI(fmt.Sprintf("http://n%d", rng.Intn(6)))
			p := rdf.NewIRI(fmt.Sprintf("http://p%d", rng.Intn(3)))
			var o rdf.Term
			if rng.Intn(2) == 0 {
				o = rdf.NewIRI(fmt.Sprintf("http://n%d", rng.Intn(6)))
			} else {
				o = rdf.NewInteger(int64(rng.Intn(8)))
			}
			g.MustAdd(rdf.Triple{S: s, P: p, O: o})
		}
	}
	addWideTo := func(g *store.Graph, n int) {
		for i := 0; i < n; i++ {
			g.MustAdd(rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("http://wide/s%d", rng.Intn(4000))),
				P: rdf.NewIRI(fmt.Sprintf("http://p%d", rng.Intn(3))),
				O: rdf.NewIRI(fmt.Sprintf("http://n%d", rng.Intn(6))),
			})
		}
	}
	addRandomTo(seed, 40)
	addWideTo(seed, 3000)

	const pageSize = 16 << 10
	dir := t.TempDir()
	writeSnap := func(name string, g *store.Graph) string {
		t.Helper()
		var buf bytes.Buffer
		if err := g.SavePaged(&buf, pageSize); err != nil {
			t.Fatalf("SavePaged: %v", err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("write snapshot: %v", err)
		}
		return path
	}
	loadPair := func(path string) (heap, mm *store.Graph) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read snapshot: %v", err)
		}
		if heap, err = store.Load(bytes.NewReader(data)); err != nil {
			t.Fatalf("Load: %v", err)
		}
		if mm, err = store.LoadFile(path); err != nil {
			t.Fatalf("LoadFile: %v", err)
		}
		if got := mm.MemStats(); got.Storage != "mmap" || got.MappedBytes == 0 {
			t.Fatalf("mmap graph stats = %+v, want storage=mmap with mapped bytes", got)
		}
		return heap, mm
	}

	heap, mm := loadPair(writeSnap("seed.snap", seed))

	// Aggregates have no random generator; a fixed battery parameterized by
	// the rng covers COUNT/SUM/AVG/MIN/MAX, GROUP BY, and grouped counts over
	// both the dense and wide vocabularies.
	aggQueries := func() []string {
		p := rng.Intn(3)
		return []string{
			"SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p ORDER BY ?p",
			fmt.Sprintf("SELECT (COUNT(?o) AS ?n) WHERE { ?s <http://p%d> ?o . }", p),
			fmt.Sprintf("SELECT ?o (COUNT(?s) AS ?n) WHERE { ?s <http://p%d> ?o . } GROUP BY ?o", p),
			fmt.Sprintf("SELECT (SUM(?o) AS ?t) (AVG(?o) AS ?a) (MIN(?o) AS ?mn) (MAX(?o) AS ?mx) "+
				"WHERE { <http://n%d> ?p ?o . FILTER(?o >= %d) }", rng.Intn(6), rng.Intn(4)),
			fmt.Sprintf("SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p <http://n%d> . } GROUP BY ?s", rng.Intn(6)),
		}
	}

	checkStage := func(stage string, trials int) {
		t.Helper()
		if heap.Len() != mm.Len() {
			t.Fatalf("%s: Len %d (heap) != %d (mmap)", stage, heap.Len(), mm.Len())
		}
		for trial := 0; trial < trials; trial++ {
			q := randomBGPQuery(rng)
			hres, herr := New(heap).Execute(q)
			mres, merr := New(mm).Execute(q)
			if (herr == nil) != (merr == nil) {
				t.Fatalf("%s trial %d: errors diverged: heap=%v mmap=%v\n%s", stage, trial, herr, merr, q)
			}
			if herr != nil {
				continue
			}
			hs, ms := hres.Sorted(), mres.Sorted()
			if !reflect.DeepEqual(hs, ms) {
				t.Fatalf("%s trial %d: results diverged on\n%s\nheap: %v\nmmap: %v", stage, trial, q, hs, ms)
			}
		}
		for _, src := range aggQueries() {
			hres, herr := New(heap).ExecuteString(src)
			mres, merr := New(mm).ExecuteString(src)
			if (herr == nil) != (merr == nil) {
				t.Fatalf("%s aggregate: errors diverged: heap=%v mmap=%v\n%s", stage, herr, merr, src)
			}
			if herr != nil {
				continue
			}
			hs, ms := hres.Sorted(), mres.Sorted()
			if !reflect.DeepEqual(hs, ms) {
				t.Fatalf("%s aggregate diverged on\n%s\nheap: %v\nmmap: %v", stage, src, hs, ms)
			}
		}
	}

	checkStage("initial", 12)

	// Churn both loaded graphs in lockstep so a live delta overlay sits on
	// top of the shared paged runs.
	all := heap.Triples()
	for i := 0; i < 400; i++ {
		tr := all[rng.Intn(len(all))]
		if heap.Remove(tr) != mm.Remove(tr) {
			t.Fatalf("Remove(%v) return values diverged", tr)
		}
	}
	for i := 0; i < 30; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://n%d", rng.Intn(6)))
		p := rdf.NewIRI(fmt.Sprintf("http://p%d", rng.Intn(3)))
		o := rdf.NewInteger(int64(rng.Intn(8)))
		tr := rdf.Triple{S: s, P: p, O: o}
		hok, herr := heap.Add(tr)
		mok, merr := mm.Add(tr)
		if hok != mok || (herr == nil) != (merr == nil) {
			t.Fatalf("Add(%v) return values diverged", tr)
		}
	}
	checkStage("overlay", 12)

	// Mid-test checkpoint + reopen: both graphs must serialize to the very
	// same bytes, and the reloaded pair must still agree.
	var hbuf, mbuf bytes.Buffer
	if err := heap.SavePaged(&hbuf, pageSize); err != nil {
		t.Fatalf("heap SavePaged: %v", err)
	}
	if err := mm.SavePaged(&mbuf, pageSize); err != nil {
		t.Fatalf("mmap SavePaged: %v", err)
	}
	if !bytes.Equal(hbuf.Bytes(), mbuf.Bytes()) {
		t.Fatalf("re-saved snapshots differ: heap %d bytes, mmap %d bytes", hbuf.Len(), mbuf.Len())
	}
	reopened := filepath.Join(dir, "reopened.snap")
	if err := os.WriteFile(reopened, hbuf.Bytes(), 0o644); err != nil {
		t.Fatalf("write reopened snapshot: %v", err)
	}
	heap, mm = loadPair(reopened)
	checkStage("reopened", 12)

	heap.Compact()
	mm.Compact()
	checkStage("compacted", 12)
}
