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

// TestBlockRunAgainstFlat checks every run-interface primitive of the block
// encoding against the flat oracle over the same keys: search at every
// depth/bound, contains for hits and misses, keyAt at every position, fill
// windows, and alignSplit monotonicity.
func TestBlockRunAgainstFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 2, blockSize - 1, blockSize, blockSize + 1, 3*blockSize + 17} {
		keys := sortedRandomKeys(rng, n)
		br := buildRun(blockCodec{}, keys)
		fr := buildRun(flatCodec{}, keys)
		if br.size() != n || fr.size() != n {
			t.Fatalf("n=%d: sizes %d/%d", n, br.size(), fr.size())
		}
		// Fence overhead dominates below a block; compression only pays off
		// once runs actually span blocks.
		if n >= blockSize && br.memBytes() >= fr.memBytes() {
			t.Errorf("n=%d: block run %d B not smaller than flat %d B", n, br.memBytes(), fr.memBytes())
		}
		for pos := 0; pos < n; pos++ {
			if br.keyAt(pos) != fr.keyAt(pos) {
				t.Fatalf("n=%d: keyAt(%d) = %v, want %v", n, pos, br.keyAt(pos), fr.keyAt(pos))
			}
		}
		for trial := 0; trial < 300; trial++ {
			var probe rdf.EncodedTriple
			if n > 0 && trial%2 == 0 {
				probe = keys[rng.Intn(n)] // existing key
			} else {
				probe = rdf.EncodedTriple{
					rdf.ID(rng.Intn(n + 2)), rdf.ID(rng.Intn(20)), rdf.ID(rng.Intn(n + 2))}
			}
			if got, want := br.contains(probe), fr.contains(probe); got != want {
				t.Fatalf("n=%d: contains(%v) = %v, want %v", n, probe, got, want)
			}
			for depth := 0; depth <= 3; depth++ {
				for _, upper := range []bool{false, true} {
					from := 0
					if n > 0 && rng.Intn(3) == 0 {
						from = rng.Intn(n)
					}
					got := br.search(from, probe, depth, upper)
					want := fr.search(from, probe, depth, upper)
					if got != want {
						t.Fatalf("n=%d: search(%d, %v, %d, %v) = %d, want %d",
							n, from, probe, depth, upper, got, want)
					}
				}
				wantLo := fr.search(0, probe, depth, false)
				wantHi := fr.search(wantLo, probe, depth, true)
				gotLo, gotHi := br.(*blockRun).searchRange(probe, depth)
				if gotLo != wantLo || gotHi != wantHi {
					t.Fatalf("n=%d: searchRange(%v, %d) = [%d,%d), want [%d,%d)",
						n, probe, depth, gotLo, gotHi, wantLo, wantHi)
				}
			}
		}
		// fill must reproduce the key sequence from any start position.
		var a spanArena
		for lo := 0; lo < n; lo += 1 + rng.Intn(blockSize/2+1) {
			br.fill(&a, lo, n)
			if a.key(a.idx) != keys[lo] {
				t.Fatalf("n=%d: fill(%d) decodes %v at idx, want %v", n, lo, a.key(a.idx), keys[lo])
			}
			for i := a.idx; i < a.n; i++ {
				if a.key(i) != keys[lo+i-a.idx] {
					t.Fatalf("n=%d: fill(%d) wrong at offset %d", n, lo, i-a.idx)
				}
			}
		}
		for pos := 0; pos <= n; pos++ {
			ap := br.alignSplit(pos)
			if ap > pos || ap%blockSize != 0 && ap != n {
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
	for _, codec := range []runCodec{flatCodec{}, blockCodec{}} {
		r := buildRun(codec, keys)
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
			t.Fatalf("%s: Remaining = %d, want %d", codec.name(), got, want)
		}
		// The count must stay exact as iteration consumes the range.
		n := 0
		for it.Next() {
			n++
			if got := it.Remaining(); got != want-n {
				t.Fatalf("%s: after %d yields Remaining = %d, want %d", codec.name(), n, got, want-n)
			}
		}
		if n != want {
			t.Fatalf("%s: iterator yielded %d, want %d", codec.name(), n, want)
		}
		// With no base left, pending tombstones cancel nothing.
		empty := Iterator{kind: permSPO, base: r, lo: hi, hi: hi,
			extra: []rdf.EncodedTriple{{1, 1, 1}}, dels: dels}
		if got := empty.Remaining(); got != 1 {
			t.Fatalf("%s: exhausted-base Remaining = %d, want 1", codec.name(), got)
		}
	}
}
