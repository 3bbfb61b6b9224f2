package store

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"sofos/internal/rdf"
)

// TestDifferentialFlatVsBlock drives a flat-codec graph and a block-codec
// graph side by side through a randomized insert/delete workload and asserts
// bit-identical results for every read API the engine consumes — Match,
// Estimate, Contains, Scan, NextSpan, Remaining, and Split — including
// states with a live delta overlay and freshly compacted states. The flat
// codec is the differential oracle: any divergence is a block-codec bug.
func TestDifferentialFlatVsBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	flat := NewGraphWithCodec(CodecFlat)
	block := NewGraphWithCodec(CodecBlock)

	// Pre-intern a fixed term universe so both graphs speak the same IDs.
	nS, nP, nO := 40, 6, 50
	for i := 0; i < nS+nP+nO; i++ {
		term := rdf.NewIRI(fmt.Sprintf("http://ex.org/t%d", i))
		if flat.dict.Intern(term) != block.dict.Intern(term) {
			t.Fatal("dictionaries diverged during setup")
		}
	}
	randS := func() rdf.ID { return rdf.ID(1 + rng.Intn(nS)) }
	randP := func() rdf.ID { return rdf.ID(1 + nS + rng.Intn(nP)) }
	randO := func() rdf.ID { return rdf.ID(1 + nS + nP + rng.Intn(nO)) }

	checkPattern := func(step int, s, p, o rdf.ID) {
		t.Helper()
		if got, want := block.Estimate(s, p, o), flat.Estimate(s, p, o); got != want {
			t.Fatalf("step %d: Estimate(%d,%d,%d) = %d (block), %d (flat)", step, s, p, o, got, want)
		}
		bm := collectMatches(block.Match, s, p, o)
		fm := collectMatches(flat.Match, s, p, o)
		if bm != fm {
			t.Fatalf("step %d: Match(%d,%d,%d) diverged:\n block: %s\n flat:  %s", step, s, p, o, bm, fm)
		}
		// Scan order must be identical, not just set-equal.
		bit, fit := block.Scan(s, p, o), flat.Scan(s, p, o)
		if bit.Remaining() != fit.Remaining() {
			t.Fatalf("step %d: Remaining %d (block) != %d (flat)", step, bit.Remaining(), fit.Remaining())
		}
		for {
			bn, fn := bit.Next(), fit.Next()
			if bn != fn {
				t.Fatalf("step %d: Scan(%d,%d,%d) lengths diverged", step, s, p, o)
			}
			if !bn {
				break
			}
			bs, bp, bo := bit.Triple()
			fs, fp, fo := fit.Triple()
			if bs != fs || bp != fp || bo != fo {
				t.Fatalf("step %d: Scan yielded (%d,%d,%d) block vs (%d,%d,%d) flat",
					step, bs, bp, bo, fs, fp, fo)
			}
		}
		// NextSpan must flatten to the same sequence as Next.
		bspan := collectSpans(block.Scan(s, p, o))
		fspan := collectSpans(flat.Scan(s, p, o))
		if renderTriples(bspan) != renderTriples(fspan) {
			t.Fatalf("step %d: NextSpan diverged for (%d,%d,%d)", step, s, p, o)
		}
		// Split: concatenated parts must reproduce the serial sequence for
		// both codecs, and part Remaining sums must be exact.
		for _, n := range []int{2, 3, 7} {
			bit, fit := block.Scan(s, p, o), flat.Scan(s, p, o)
			bparts, fparts := bit.Split(n), fit.Split(n)
			var bcat, fcat []rdf.EncodedTriple
			bsum, fsum := 0, 0
			for i := range bparts {
				bsum += bparts[i].Remaining()
				bcat = append(bcat, collect(bparts[i])...)
			}
			for i := range fparts {
				fsum += fparts[i].Remaining()
				fcat = append(fcat, collect(fparts[i])...)
			}
			serial := collect(flat.Scan(s, p, o))
			if fmt.Sprint(bcat) != fmt.Sprint(serial) || fmt.Sprint(fcat) != fmt.Sprint(serial) {
				t.Fatalf("step %d: Split(%d) concatenation diverged for (%d,%d,%d)", step, n, s, p, o)
			}
			if bsum != len(serial) || fsum != len(serial) {
				t.Fatalf("step %d: Split(%d) Remaining sums %d (block) / %d (flat), want %d",
					step, n, bsum, fsum, len(serial))
			}
		}
	}

	check := func(step int) {
		t.Helper()
		if flat.Len() != block.Len() {
			t.Fatalf("step %d: Len %d (flat) != %d (block)", step, flat.Len(), block.Len())
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

	// Bulk-load a shared base so compacted runs span many blocks' worth of
	// keys, then churn with interleaved adds/removes.
	var batch []rdf.EncodedTriple
	for i := 0; i < 6000; i++ {
		batch = append(batch, rdf.EncodedTriple{randS(), randP(), randO()})
	}
	if flat.loadEncoded(batch) != block.loadEncoded(batch) {
		t.Fatal("bulk load counts diverged")
	}
	check(0)
	for step := 1; step <= 2400; step++ {
		s, p, o := randS(), randP(), randO()
		if rng.Intn(3) == 0 {
			if flat.removeEncoded(s, p, o) != block.removeEncoded(s, p, o) {
				t.Fatalf("step %d: Remove(%d,%d,%d) return values diverged", step, s, p, o)
			}
		} else {
			if flat.addEncoded(s, p, o) != block.addEncoded(s, p, o) {
				t.Fatalf("step %d: Add(%d,%d,%d) return values diverged", step, s, p, o)
			}
		}
		if rng.Intn(2) == 0 {
			k := rdf.EncodedTriple{randS(), randP(), randO()}
			q := rdf.Triple{S: flat.dict.Term(k[0]), P: flat.dict.Term(k[1]), O: flat.dict.Term(k[2])}
			if flat.Contains(q) != block.Contains(q) {
				t.Fatalf("step %d: Contains(%v) diverged", step, k)
			}
		}
		if step%400 == 399 {
			check(step)
		}
	}
	flat.Compact()
	block.Compact()
	check(2401)
	// The oracle has no snapshot form: only block runs are ever persisted.
	if err := flat.Save(io.Discard); err == nil {
		t.Fatal("flat-codec graph saved a snapshot")
	}
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
// actually shrinks resident bytes on a compacted graph.
func TestMemStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var batch []rdf.EncodedTriple
	flat := NewGraphWithCodec(CodecFlat)
	block := NewGraphWithCodec(CodecBlock)
	for i := 0; i < 20000; i++ {
		batch = append(batch, rdf.EncodedTriple{
			rdf.ID(1 + rng.Intn(2000)), rdf.ID(1 + rng.Intn(10)), rdf.ID(1 + rng.Intn(4000))})
	}
	flat.loadEncoded(batch)
	block.loadEncoded(batch)
	fs, bs := flat.MemStats(), block.MemStats()
	if fs.Codec != "flat" || bs.Codec != "block" {
		t.Fatalf("codec names: %q / %q", fs.Codec, bs.Codec)
	}
	if fs.Triples != flat.Len() || bs.Triples != block.Len() {
		t.Fatal("MemStats triple counts diverge from Len")
	}
	if fs.SPO.Keys != fs.Triples || bs.SPO.Keys != bs.Triples {
		t.Fatal("SPO key counts diverge from triple count")
	}
	if fs.SPO.Blocks != 0 {
		t.Fatalf("flat run reports %d blocks", fs.SPO.Blocks)
	}
	if want := (bs.SPO.Keys + blockSize - 1) / blockSize; bs.SPO.Blocks != want {
		t.Fatalf("block run reports %d blocks, want %d", bs.SPO.Blocks, want)
	}
	if bs.IndexBytes >= fs.IndexBytes {
		t.Fatalf("block index bytes %d not smaller than flat %d", bs.IndexBytes, fs.IndexBytes)
	}
	// The headline claim: ≥2x smaller runs under the block codec for
	// realistic ID distributions.
	if 2*bs.SPO.Bytes > fs.SPO.Bytes {
		t.Fatalf("block SPO run %d B vs flat %d B: less than 2x reduction", bs.SPO.Bytes, fs.SPO.Bytes)
	}
}
