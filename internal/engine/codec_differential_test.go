package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sofos/internal/rdf"
	"sofos/internal/store"
)

// TestEngineDifferentialFlatVsBlock runs identical random BGP workloads over
// a flat-codec and a block-codec graph and requires bit-identical answers.
// Unlike the brute-force reference tests this uses graphs large enough that
// the block runs really span many blocks and the vectorized NextSpan path is
// the one the executor exercises — the flat codec is the oracle. Interleaved
// updates keep a live delta overlay in play, and a final compaction retests
// everything on pure multi-block runs.
func TestEngineDifferentialFlatVsBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	flat := store.NewGraphWithCodec(store.CodecFlat)
	block := store.NewGraphWithCodec(store.CodecBlock)

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
			tr := rdf.Triple{S: s, P: p, O: o}
			fd, ferr := flat.Apply([]rdf.Triple{tr}, nil)
			bd, berr := block.Apply([]rdf.Triple{tr}, nil)
			if len(fd.Inserted) != len(bd.Inserted) || (ferr == nil) != (berr == nil) {
				t.Fatalf("insert of %v diverged", tr)
			}
		}
	}
	// The tiny vocabulary above saturates quickly; widen the subject space so
	// runs grow well past one block.
	addWide := func(n int) {
		for i := 0; i < n; i++ {
			tr := rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("http://wide/s%d", rng.Intn(4000))),
				P: rdf.NewIRI(fmt.Sprintf("http://p%d", rng.Intn(3))),
				O: rdf.NewIRI(fmt.Sprintf("http://n%d", rng.Intn(6))),
			}
			fd, ferr := flat.Apply([]rdf.Triple{tr}, nil)
			bd, berr := block.Apply([]rdf.Triple{tr}, nil)
			if len(fd.Inserted) != len(bd.Inserted) || (ferr == nil) != (berr == nil) {
				t.Fatalf("insert of %v diverged", tr)
			}
		}
	}

	checkQueries := func(stage string, trials int) {
		t.Helper()
		if flat.Len() != block.Len() {
			t.Fatalf("%s: Len %d (flat) != %d (block)", stage, flat.Len(), block.Len())
		}
		for trial := 0; trial < trials; trial++ {
			q := randomBGPQuery(rng)
			fres, ferr := New(flat).Execute(q)
			bres, berr := New(block).Execute(q)
			if (ferr == nil) != (berr == nil) {
				t.Fatalf("%s trial %d: errors diverged: flat=%v block=%v\n%s", stage, trial, ferr, berr, q)
			}
			if ferr != nil {
				continue
			}
			fs, bs := sortedRows(fres), sortedRows(bres)
			if !reflect.DeepEqual(fs, bs) {
				t.Fatalf("%s trial %d: results diverged on\n%s\nflat:  %v\nblock: %v", stage, trial, q, fs, bs)
			}
		}
	}

	addRandom(40)
	addWide(3000)
	checkQueries("initial", 12)

	// Churn: deletes and re-inserts leave both graphs with live overlays.
	all := flat.Triples()
	for i := 0; i < 400; i++ {
		tr := all[rng.Intn(len(all))]
		fd, _ := flat.Apply(nil, []rdf.Triple{tr})
		bd, _ := block.Apply(nil, []rdf.Triple{tr})
		if len(fd.Deleted) != len(bd.Deleted) {
			t.Fatalf("delete of %v diverged", tr)
		}
	}
	addRandom(30)
	addWide(200)
	checkQueries("overlay", 12)

	flat.Compact()
	block.Compact()
	checkQueries("compacted", 12)
}
