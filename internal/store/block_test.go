package store

import (
	"math/rand"
	"testing"

	"sofos/internal/rdf"
)

// sortedRandomKeys builds a strictly increasing key sequence with realistic
// clustering (small leading-column deltas, scattered trailing columns).
func sortedRandomKeys(rng *rand.Rand, n int) []rdf.EncodedTriple {
	set := make(map[rdf.EncodedTriple]struct{}, n)
	for len(set) < n {
		set[rdf.EncodedTriple{
			rdf.ID(1 + rng.Intn(n/3+1)),
			rdf.ID(1 + rng.Intn(16)),
			rdf.ID(1 + rng.Intn(n)),
		}] = struct{}{}
	}
	keys := make([]rdf.EncodedTriple, 0, n)
	for k := range set {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

// buildBlockRun encodes an already-sorted key slice as one run.
func buildBlockRun(sorted []rdf.EncodedTriple) *blockRun {
	b := newBlockBuilder(len(sorted))
	for _, k := range sorted {
		b.add(k)
	}
	return b.finish()
}

// TestBlockRunAgainstSortedKeys checks the block encoding's primitives
// against the sorted key slice it was built from, searched with
// searchPrefix: keyAt and contains at every position, searchRange at every
// depth for every key and for random probes, contains for misses, fill
// windows that must tile the sequence from any start, and alignSplit.
func TestBlockRunAgainstSortedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 2, blockSize - 1, blockSize, blockSize + 1, 3*blockSize + 17} {
		keys := sortedRandomKeys(rng, n)
		br := buildBlockRun(keys)
		if br.size() != n {
			t.Fatalf("n=%d: size %d", n, br.size())
		}
		// Fence overhead dominates below a block; compression only pays off
		// once runs actually span blocks.
		if n >= blockSize && br.memBytes() >= int64(12*n) {
			t.Errorf("n=%d: block run %d B not smaller than fixed-width %d B", n, br.memBytes(), 12*n)
		}
		for pos, k := range keys {
			if got := br.keyAt(pos); got != k {
				t.Fatalf("n=%d: keyAt(%d) = %v, want %v", n, pos, got, k)
			}
			if !br.contains(k) {
				t.Fatalf("n=%d: contains misses the key at %d", n, pos)
			}
		}
		checkProbe := func(probe rdf.EncodedTriple) {
			t.Helper()
			at := searchPrefix(keys, 0, probe, 3, false)
			if got, want := br.contains(probe), at < n && keys[at] == probe; got != want {
				t.Fatalf("n=%d: contains(%v) = %v, want %v", n, probe, got, want)
			}
			for depth := 0; depth <= 3; depth++ {
				wantLo := searchPrefix(keys, 0, probe, depth, false)
				wantHi := searchPrefix(keys, wantLo, probe, depth, true)
				if gotLo, gotHi := br.searchRange(probe, depth); gotLo != wantLo || gotHi != wantHi {
					t.Fatalf("n=%d: searchRange(%v, %d) = [%d,%d), want [%d,%d)",
						n, probe, depth, gotLo, gotHi, wantLo, wantHi)
				}
			}
		}
		for _, k := range keys {
			checkProbe(k)
		}
		for trial := 0; trial < 300; trial++ {
			checkProbe(rdf.EncodedTriple{
				rdf.ID(rng.Intn(n + 2)), rdf.ID(rng.Intn(20)), rdf.ID(rng.Intn(n + 2))})
		}
		// Successive fills from any start must reproduce the key sequence up
		// to hi, each decoding at least one key.
		var a spanArena
		for lo := 0; lo < n; lo += 1 + rng.Intn(blockSize/2+1) {
			hi := lo + 1 + rng.Intn(n-lo)
			for pos := lo; pos < hi; {
				br.fill(&a, pos, hi)
				if a.idx >= a.n {
					t.Fatalf("n=%d: fill(%d, %d) decoded no key", n, pos, hi)
				}
				for i := a.idx; i < a.n; i++ {
					if pos >= hi || a.key(i) != keys[pos] {
						t.Fatalf("n=%d: fill from %d wrong at position %d", n, lo, pos)
					}
					pos++
				}
			}
		}
		for pos := 0; pos <= n; pos++ {
			ap := br.alignSplit(pos)
			if ap > pos || pos-ap >= blockSize || ap%blockSize != 0 && ap != n {
				t.Fatalf("n=%d: alignSplit(%d) = %d", n, pos, ap)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// FuzzBlockDecode hammers the raw in-block decoder with arbitrary payload
// bytes and fence metadata: every outcome must be a clean error or a decode
// whose keys are in range — never a panic, never an out-of-bounds read.
func FuzzBlockDecode(f *testing.F) {
	keys := sortedRandomKeys(rand.New(rand.NewSource(5)), 600)
	valid := appendBlockPayload(nil, keys)
	f.Add(uint16(len(keys)), uint32(keys[0][0]), uint32(keys[0][1]), uint32(keys[0][2]), valid)
	f.Add(uint16(1), uint32(1), uint32(1), uint32(1), []byte{})
	f.Add(uint16(3), uint32(7), uint32(9), uint32(2), []byte{0x01, 0x01, 0x02, 0x02, 0x03, 0x03})
	f.Fuzz(func(t *testing.T, count uint16, min0, min1, min2 uint32, payload []byte) {
		if count == 0 {
			return
		}
		r := &blockRun{
			meta: []blockMeta{{
				off:   0,
				plen:  uint32(len(payload)),
				count: uint32(count),
				min:   rdf.EncodedTriple{rdf.ID(min0), rdf.ID(min1), rdf.ID(min2)},
				max:   rdf.EncodedTriple{^rdf.ID(0), ^rdf.ID(0), ^rdf.ID(0)},
			}},
			data: payload,
			n:    int(count),
		}
		var a spanArena
		a.grow(int(count))
		if err := r.decodeBlock(0, a.c0, a.c1, a.c2); err != nil {
			return
		}
		// A successful decode must yield exactly count keys starting at min.
		if a.key(0) != r.meta[0].min {
			t.Fatal("decode did not start at the fence min key")
		}
	})
}

// TestIteratorRemainingLazyDeletions is the regression test for the eager
// Remaining accounting: tombstones outside the iterator's base range must
// not be subtracted. The old formula reported base+extra-len(dels)
// unconditionally, under-counting whenever a partition's tombstone slice
// over-covers its key range.
func TestIteratorRemainingLazyDeletions(t *testing.T) {
	keys := sortedRandomKeys(rand.New(rand.NewSource(17)), 4*blockSize)
	r := buildBlockRun(keys)
	// An iterator restricted to the middle of the run whose tombstone
	// slice also names keys before, inside, and after its range.
	lo, hi := blockSize, 3*blockSize
	dels := []rdf.EncodedTriple{
		keys[0], keys[5], // before the range: must not count
		keys[lo+10], keys[lo+20], keys[hi-1], // inside: must count
		keys[hi], keys[len(keys)-1], // after the range: must not count
	}
	it := Iterator{kind: permSPO, base: r, lo: lo, hi: hi, dels: dels}
	want := (hi - lo) - 3
	if got := it.Remaining(); got != want {
		t.Fatalf("Remaining = %d, want %d", got, want)
	}
	// The count must stay exact as iteration consumes the range.
	n := 0
	for it.Next() {
		n++
		if got := it.Remaining(); got != want-n {
			t.Fatalf("after %d yields Remaining = %d, want %d", n, got, want-n)
		}
	}
	if n != want {
		t.Fatalf("iterator yielded %d, want %d", n, want)
	}
	// With no base left, pending tombstones cancel nothing.
	empty := Iterator{kind: permSPO, base: r, lo: hi, hi: hi,
		extra: []rdf.EncodedTriple{{1, 1, 1}}, dels: dels}
	if got := empty.Remaining(); got != 1 {
		t.Fatalf("exhausted-base Remaining = %d, want 1", got)
	}
}
