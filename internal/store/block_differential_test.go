package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sofos/internal/rdf"
)

// TestDifferentialBlockVsNestedMap drives a graph and the nested-map model
// side by side through a randomized insert/delete workload large enough that
// the compacted runs span several blocks, and checks every read API the
// engine consumes — Match, Estimate, Contains, Scan order, NextSpan,
// Remaining, and Split — against the model, both with a live delta overlay
// and freshly compacted.
func TestDifferentialBlockVsNestedMap(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	g := NewGraph()
	ref := NewNestedMapGraph()

	// Pre-intern a fixed term universe so the drawn IDs all have terms.
	nS, nP, nO := 40, 6, 50
	for i := 0; i < nS+nP+nO; i++ {
		g.dict.Intern(rdf.NewIRI(fmt.Sprintf("http://ex.org/t%d", i)))
	}
	randS := func() rdf.ID { return rdf.ID(1 + rng.Intn(nS)) }
	randP := func() rdf.ID { return rdf.ID(1 + nS + rng.Intn(nP)) }
	randO := func() rdf.ID { return rdf.ID(1 + nS + nP + rng.Intn(nO)) }

	checkPattern := func(step int, s, p, o rdf.ID) {
		t.Helper()
		if got, want := g.Estimate(s, p, o), ref.Estimate(s, p, o); got != want {
			t.Fatalf("step %d: Estimate(%d,%d,%d) = %d, reference %d", step, s, p, o, got, want)
		}
		if got, want := collectMatches(g.Match, s, p, o), collectMatches(ref.Match, s, p, o); got != want {
			t.Fatalf("step %d: Match(%d,%d,%d) diverged:\n graph:     %s\n reference: %s", step, s, p, o, got, want)
		}
		// Scan yields the model's matches in its permutation's order.
		it := g.Scan(s, p, o)
		want := sortedMatches(ref, s, p, o)
		slices.SortFunc(want, it.kind.cmpSPO)
		if it.Remaining() != len(want) {
			t.Fatalf("step %d: Remaining %d, reference %d", step, it.Remaining(), len(want))
		}
		if got := collect(it); !slices.Equal(got, want) {
			t.Fatalf("step %d: Scan(%d,%d,%d) yields %v, reference %v", step, s, p, o, got, want)
		}
		// NextSpan must flatten to the same sequence.
		if got := collectSpans(g.Scan(s, p, o)); !slices.Equal(got, want) {
			t.Fatalf("step %d: NextSpan diverged for (%d,%d,%d)", step, s, p, o)
		}
		// Split: concatenated parts must reproduce the sequence, and part
		// Remaining sums must be exact.
		for _, n := range []int{2, 3, 7} {
			var cat []rdf.EncodedTriple
			sum := 0
			whole := g.Scan(s, p, o)
			for _, part := range whole.Split(n) {
				sum += part.Remaining()
				cat = append(cat, collect(part)...)
			}
			if !slices.Equal(cat, want) {
				t.Fatalf("step %d: Split(%d) concatenation diverged for (%d,%d,%d)", step, n, s, p, o)
			}
			if sum != len(want) {
				t.Fatalf("step %d: Split(%d) Remaining sums %d, want %d", step, n, sum, len(want))
			}
		}
	}

	check := func(step int) {
		t.Helper()
		if g.Len() != ref.Len() {
			t.Fatalf("step %d: Len %d, reference %d", step, g.Len(), ref.Len())
		}
		for trial := 0; trial < 25; trial++ {
			var s, p, o rdf.ID
			if rng.Intn(2) == 0 {
				s = randS()
			}
			if rng.Intn(2) == 0 {
				p = randP()
			}
			if rng.Intn(2) == 0 {
				o = randO()
			}
			checkPattern(step, s, p, o)
		}
		checkPattern(step, rdf.NoID, rdf.NoID, rdf.NoID)
	}

	// Bulk-load a base so compacted runs span many blocks' worth of keys,
	// then churn with interleaved adds/removes.
	var batch []rdf.EncodedTriple
	added := 0
	for i := 0; i < 6000; i++ {
		k := rdf.EncodedTriple{randS(), randP(), randO()}
		batch = append(batch, k)
		if ref.Add(k[0], k[1], k[2]) {
			added++
		}
	}
	if n := g.loadEncoded(batch); n != added {
		t.Fatalf("bulk load added %d, reference %d", n, added)
	}
	check(0)
	for step := 1; step <= 2400; step++ {
		s, p, o := randS(), randP(), randO()
		if rng.Intn(3) == 0 {
			if g.removeEncoded(s, p, o) != ref.Remove(s, p, o) {
				t.Fatalf("step %d: Remove(%d,%d,%d) disagrees with the reference", step, s, p, o)
			}
		} else {
			if g.addEncoded(s, p, o) != ref.Add(s, p, o) {
				t.Fatalf("step %d: Add(%d,%d,%d) disagrees with the reference", step, s, p, o)
			}
		}
		if rng.Intn(2) == 0 {
			k := rdf.EncodedTriple{randS(), randP(), randO()}
			q := rdf.Triple{S: g.dict.Term(k[0]), P: g.dict.Term(k[1]), O: g.dict.Term(k[2])}
			if g.Contains(q) != (ref.Estimate(k[0], k[1], k[2]) == 1) {
				t.Fatalf("step %d: Contains(%v) disagrees with the reference", step, k)
			}
		}
		if step%400 == 399 {
			check(step)
		}
	}
	g.Compact()
	check(2401)
}

// collectSpans flattens NextSpan batches into SPO triples.
func collectSpans(it Iterator) []rdf.EncodedTriple {
	var out []rdf.EncodedTriple
	for {
		s, p, o := it.NextSpan()
		if len(s) == 0 {
			return out
		}
		for i := range s {
			out = append(out, rdf.EncodedTriple{s[i], p[i], o[i]})
		}
	}
}

// TestMemStats checks the per-index accounting and that block compression
// actually shrinks resident bytes on a compacted graph, against the 12 bytes
// per key a fixed-width layout takes.
func TestMemStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var batch []rdf.EncodedTriple
	g := NewGraph()
	for i := 0; i < 20000; i++ {
		batch = append(batch, rdf.EncodedTriple{
			rdf.ID(1 + rng.Intn(2000)), rdf.ID(1 + rng.Intn(10)), rdf.ID(1 + rng.Intn(4000))})
	}
	g.loadEncoded(batch)
	ms := g.MemStats()
	if ms.Triples != g.Len() {
		t.Fatal("MemStats triple count diverges from Len")
	}
	if ms.SPO.Keys != ms.Triples {
		t.Fatal("SPO key count diverges from triple count")
	}
	if want := (ms.SPO.Keys + blockSize - 1) / blockSize; ms.SPO.Blocks != want {
		t.Fatalf("block run reports %d blocks, want %d", ms.SPO.Blocks, want)
	}
	flat := int64(12 * ms.SPO.Keys)
	if ms.IndexBytes >= 3*flat {
		t.Fatalf("index bytes %d not smaller than the fixed-width %d", ms.IndexBytes, 3*flat)
	}
	// The headline claim: ≥2x smaller runs than the fixed-width layout for
	// realistic ID distributions.
	if 2*ms.SPO.Bytes > flat {
		t.Fatalf("SPO run %d B vs fixed-width %d B: less than 2x reduction", ms.SPO.Bytes, flat)
	}
}
