package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sofos/internal/rdf"
	"sofos/internal/store"
)

// TestEngineDifferentialBlockVsRefEval runs random BGP workloads over a graph
// large enough that its runs span many blocks, so the vectorized NextSpan
// path is the one the executor exercises, and requires the brute-force
// evaluator's answers. Interleaved updates keep a live delta overlay in play,
// and a final compaction retests everything on pure multi-block runs.
func TestEngineDifferentialBlockVsRefEval(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	g := store.NewGraph()
	apply := func(ins, del []rdf.Triple) {
		if _, err := g.Apply(ins, del); err != nil {
			t.Fatal(err)
		}
	}

	addRandom := func(n int) {
		for i := 0; i < n; i++ {
			s := rdf.NewIRI(fmt.Sprintf("http://n%d", rng.Intn(6)))
			p := rdf.NewIRI(fmt.Sprintf("http://p%d", rng.Intn(3)))
			var o rdf.Term
			if rng.Intn(2) == 0 {
				o = rdf.NewIRI(fmt.Sprintf("http://n%d", rng.Intn(6)))
			} else {
				o = rdf.NewInteger(int64(rng.Intn(8)))
			}
			apply([]rdf.Triple{{S: s, P: p, O: o}}, nil)
		}
	}
	// The tiny vocabulary above saturates quickly; widen the subject space so
	// runs grow well past one block.
	addWide := func(n int) {
		for i := 0; i < n; i++ {
			apply([]rdf.Triple{{
				S: rdf.NewIRI(fmt.Sprintf("http://wide/s%d", rng.Intn(4000))),
				P: rdf.NewIRI(fmt.Sprintf("http://p%d", rng.Intn(3))),
				O: rdf.NewIRI(fmt.Sprintf("http://n%d", rng.Intn(6))),
			}}, nil)
		}
	}

	checkQueries := func(stage string, trials int) {
		t.Helper()
		for trial := 0; trial < trials; trial++ {
			q := randomBGPQuery(rng)
			res, err := New(g).Execute(q)
			if err != nil {
				t.Fatalf("%s trial %d: engine error: %v\n%s", stage, trial, err, q)
			}
			got, want := sortedRows(res), refEval(g, q)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: engine %d rows, reference %d rows on\n%s\nfirst difference: %s",
					stage, trial, len(got), len(want), q, firstDifference(got, want))
			}
		}
	}

	addRandom(40)
	addWide(3000)
	checkQueries("initial", 12)

	// Churn: deletes and re-inserts leave the graph with a live overlay.
	all := g.Triples()
	for i := 0; i < 400; i++ {
		apply(nil, []rdf.Triple{all[rng.Intn(len(all))]})
	}
	addRandom(30)
	addWide(200)
	checkQueries("overlay", 12)

	g.Compact()
	checkQueries("compacted", 12)
}

// firstDifference renders the first position where two sorted row lists
// disagree.
func firstDifference(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d: engine %q, reference %q", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("one list ends at row %d", min(len(got), len(want)))
}
