package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"sofos/internal/rdf"
)

// Block-compressed run layout.
//
// A blockRun chops the sorted key sequence into fixed-size blocks of up to
// blockSize keys. Each block stores its first and last key uncompressed in a
// fence entry (blockMeta) and its remaining keys in a compact byte payload:
//
//	payload := c0-section c1-section c2-section        (count-1 entries each)
//	c0-section: uvarint(c0[i] - c0[i-1])               (leading column, sorted:
//	                                                    deltas are non-negative)
//	c1-section: zigzag-varint(c1[i] - min[1])          (unsorted columns encode
//	c2-section: zigzag-varint(c2[i] - min[2])           against per-block bases)
//
// Key 0 is the fence's min key, so a one-key block has an empty payload. The
// sections are column-contiguous (SoA on the wire), so a decode is three tight
// varint loops into the arena's column slices.
//
// The fences double as a pruning index: searches binary-search the fence
// array and decode at most one block; estimates count interior blocks by
// their fence metadata alone and only decode the two boundary blocks.

// blockSize is the maximum number of keys encoded per block. 1024 keys keep
// a decoded block (3 SoA columns, 12 KiB) inside L1/L2 while amortizing the
// per-block fence and decode-loop setup.
const blockSize = 1024

// maxBlockCount bounds the per-block key count accepted from snapshots, so a
// corrupt count cannot demand an unbounded arena allocation.
const maxBlockCount = 1 << 16

// blockMeta is one block's fence entry: where its payload lives, how many
// keys it holds, which global position it starts at, and its first/last key.
// Payload extent is explicit (off, plen) rather than derived from the next
// block's offset, because paged snapshots leave alignment padding between
// payloads.
type blockMeta struct {
	off      uint32 // payload start offset in blockRun.data
	plen     uint32 // payload length in bytes
	count    uint32 // keys in the block (1..blockSize; snapshots up to maxBlockCount)
	start    int    // global position of the block's first key
	min, max rdf.EncodedTriple
}

// blockRun is the block-compressed run representation.
type blockRun struct {
	meta []blockMeta
	// max0 mirrors meta[i].max[0] as a flat array: fence searches narrow by
	// the leading component through this cache-dense slice before touching
	// the 64-byte-stride meta entries.
	max0 []rdf.ID
	data []byte
	n    int // total keys

	// mapped marks data as a view into an mmap'd file region rather than the
	// Go heap, so memory accounting reports it as mapped, not resident.
	mapped bool

	// psz is the page size the run's payload region is packed with when it
	// was loaded from a paged (v3) snapshot, 0 otherwise. alignSplit uses it
	// to round partition cuts down to page-run boundaries, so parallel scan
	// workers touch disjoint pages.
	psz int
}

// fenceInit (re)builds the max0 fence mirror from meta; called after a run is
// assembled by the builder or a snapshot load.
func (r *blockRun) fenceInit() {
	r.max0 = make([]rdf.ID, len(r.meta))
	for i := range r.meta {
		r.max0[i] = r.meta[i].max[0]
	}
}

// blockCodec builds block-compressed runs.
type blockCodec struct{}

func (blockCodec) name() string { return "block" }

func (blockCodec) newBuilder(sizeHint int) runBuilder {
	b := &blockBuilder{}
	if sizeHint > 0 {
		b.r.meta = make([]blockMeta, 0, (sizeHint+blockSize-1)/blockSize)
		// Size the payload buffer assuming ~4 bytes per key; it grows if the
		// data is less compressible.
		b.r.data = make([]byte, 0, sizeHint*4)
	}
	return b
}

// blockBuilder accumulates sorted keys and flushes a block every blockSize.
type blockBuilder struct {
	r    blockRun
	pend []rdf.EncodedTriple
}

func (b *blockBuilder) add(k rdf.EncodedTriple) {
	if b.pend == nil {
		b.pend = make([]rdf.EncodedTriple, 0, blockSize)
	}
	b.pend = append(b.pend, k)
	if len(b.pend) == blockSize {
		b.flush()
	}
}

func (b *blockBuilder) flush() {
	if len(b.pend) == 0 {
		return
	}
	keys := b.pend
	off := len(b.r.data)
	b.r.data = appendBlockPayload(b.r.data, keys)
	b.r.meta = append(b.r.meta, blockMeta{
		off:   uint32(off),
		plen:  uint32(len(b.r.data) - off),
		count: uint32(len(keys)),
		start: b.r.n,
		min:   keys[0],
		max:   keys[len(keys)-1],
	})
	b.r.n += len(keys)
	b.pend = b.pend[:0]
}

func (b *blockBuilder) finish() run {
	b.flush()
	r := b.r
	b.r = blockRun{}
	r.fenceInit()
	return &r
}

// appendBlockPayload encodes keys[1:] against keys[0] in the column-sectioned
// block format.
func appendBlockPayload(dst []byte, keys []rdf.EncodedTriple) []byte {
	prev := keys[0][0]
	for _, k := range keys[1:] {
		dst = binary.AppendUvarint(dst, uint64(k[0]-prev))
		prev = k[0]
	}
	for c := 1; c < 3; c++ {
		base := int64(keys[0][c])
		for _, k := range keys[1:] {
			dst = binary.AppendVarint(dst, int64(k[c])-base)
		}
	}
	return dst
}

// payloadEnd returns the end offset of block bi's payload.
func (r *blockRun) payloadEnd(bi int) int {
	m := &r.meta[bi]
	return int(m.off) + int(m.plen)
}

// decodeBlock expands block bi into the three column slices (each at least
// count long), validating the payload as it goes: every varint must be
// well-formed and in-bounds, every decoded component must fit an rdf.ID, and
// the payload must be consumed exactly. The error is precise because this is
// the load-time corruption gate for snapshots (see snapshot.go); in-process
// blocks built by blockBuilder always decode cleanly.
func (r *blockRun) decodeBlock(bi int, c0, c1, c2 []rdf.ID) error {
	m := &r.meta[bi]
	if int(m.off) > len(r.data) || r.payloadEnd(bi) > len(r.data) {
		return fmt.Errorf("block %d: payload offsets out of range", bi)
	}
	p := r.data[m.off:r.payloadEnd(bi)]
	cnt := int(m.count)
	c0[0], c1[0], c2[0] = m.min[0], m.min[1], m.min[2]
	pos := 0
	acc := uint64(m.min[0])
	for i := 1; i < cnt; i++ {
		// Single-byte fast path: leading-column deltas are almost always tiny.
		var v uint64
		if pos < len(p) && p[pos] < 0x80 {
			v = uint64(p[pos])
			pos++
		} else {
			var w int
			v, w = binary.Uvarint(p[pos:])
			if w <= 0 {
				return fmt.Errorf("block %d: truncated c0 varint at entry %d", bi, i)
			}
			pos += w
		}
		acc += v
		if acc > math.MaxUint32 {
			return fmt.Errorf("block %d: c0 overflows at entry %d", bi, i)
		}
		c0[i] = rdf.ID(acc)
	}
	for c, col := range [2][]rdf.ID{c1, c2} {
		base := int64(m.min[c+1])
		for i := 1; i < cnt; i++ {
			var v int64
			if pos < len(p) && p[pos] < 0x80 {
				// Inline single-byte zigzag decode.
				u := uint64(p[pos])
				pos++
				v = int64(u>>1) ^ -int64(u&1)
			} else {
				var w int
				v, w = binary.Varint(p[pos:])
				if w <= 0 {
					return fmt.Errorf("block %d: truncated c%d varint at entry %d", bi, c+1, i)
				}
				pos += w
			}
			val := base + v
			if val < 0 || val > math.MaxUint32 {
				return fmt.Errorf("block %d: c%d out of range at entry %d", bi, c+1, i)
			}
			col[i] = rdf.ID(val)
		}
	}
	if pos != len(p) {
		return fmt.Errorf("block %d: %d trailing payload bytes", bi, len(p)-pos)
	}
	return nil
}

// mustDecode is decodeBlock for trusted runs. In-process blocks always decode,
// and snapshot loading checks every payload CRC at open, so a failure here
// means a hand-crafted file whose CRCs agree with a malformed payload (see
// Recover) or memory corruption.
func (r *blockRun) mustDecode(bi int, c0, c1, c2 []rdf.ID) {
	if err := r.decodeBlock(bi, c0, c1, c2); err != nil {
		panic(corruptBlock + err.Error())
	}
}

const corruptBlock = "store: corrupt block run: "

// workerPanic carries any other panic from Recover to Repanic.
type workerPanic struct{ value any }

func (p workerPanic) Error() string { return fmt.Sprint(p.value) }

// Recover, deferred by a goroutine that reads block runs, turns a corrupt
// block (mustDecode's panic) into *err, and any other panic into an *err
// for Repanic: a panic on a bare worker goroutine would end the process.
func Recover(err *error) {
	r := recover()
	if msg, ok := r.(string); ok && strings.HasPrefix(msg, corruptBlock) {
		*err = errors.New(msg)
	} else if r != nil {
		*err = workerPanic{r}
	}
}

// Repanic raises again, on the calling goroutine, the first panic Recover
// caught into errs. Call it once the workers are joined.
func Repanic(errs ...error) {
	for _, err := range errs {
		if p, ok := err.(workerPanic); ok {
			panic(p.value)
		}
	}
}

// searchArenas pools decode scratch for point operations (search, contains,
// keyAt) so they stay allocation-free on hot paths while scans keep their
// own per-iterator arenas.
var searchArenas = sync.Pool{New: func() any { return new(spanArena) }}

// decoded returns a pooled arena holding block bi fully decoded. Pooled
// arenas keep their block identity across Get/Put, so consecutive point
// lookups landing in the same block — index-ordered probe streams, or the
// lower/upper bound pair of one range — reuse the previous decode. Callers
// must not write to the arena and must return it with searchArenas.Put.
func (r *blockRun) decoded(bi int) *spanArena {
	a := searchArenas.Get().(*spanArena)
	if a.src == r && a.bi == bi {
		return a
	}
	a.grow(int(r.meta[bi].count))
	r.mustDecode(bi, a.c0, a.c1, a.c2)
	a.src, a.bi = r, bi
	return a
}

// blockOf returns the index of the block containing global position pos.
func (r *blockRun) blockOf(pos int) int {
	lo, hi := 0, len(r.meta)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if r.meta[mid].start <= pos {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

func (r *blockRun) size() int { return r.n }

func (r *blockRun) memBytes() int64 {
	// Fence entries are 44 bytes (4+4+4+8 header fields + two 12-byte keys)
	// plus the 4-byte max0 mirror. Mapped payloads live in the OS page cache,
	// not the heap, so they are excluded here and reported through
	// mappedBytes instead.
	b := int64(len(r.meta)) * 48
	if !r.mapped {
		b += int64(len(r.data))
	}
	return b
}

// mappedBytes returns the bytes of the run backed by an mmap'd file region.
func (r *blockRun) mappedBytes() int64 {
	if r.mapped {
		return int64(len(r.data))
	}
	return 0
}

func (r *blockRun) numBlocks() int { return len(r.meta) }

// passes reports whether a key satisfies the search bound: prefix > key for
// upper bounds, prefix ≥ key for lower bounds.
func passes(k, key rdf.EncodedTriple, depth int, upper bool) bool {
	c := cmpPrefix(k, key, depth)
	if upper {
		return c > 0
	}
	return c >= 0
}

// lowerID returns the first index in the sorted slice with s[i] ≥ v.
func lowerID(s []rdf.ID, v rdf.ID) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperID returns the first index in the sorted slice with s[i] > v.
func upperID(s []rdf.ID, v rdf.ID) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// spanRange finds both bound positions (first ≥ prefix, first > prefix) for
// key within a decoded block of n keys, searching column by column: each
// column is sorted within the range where the preceding columns equal the
// key's prefix, so the search runs over packed ID arrays instead of gathering
// assembled keys.
func spanRange(a *spanArena, n int, key rdf.EncodedTriple, depth int) (int, int) {
	lo := lowerID(a.c0[:n], key[0])
	hi := lo + upperID(a.c0[lo:n], key[0])
	if depth == 1 {
		return lo, hi
	}
	l1 := lo + lowerID(a.c1[lo:hi], key[1])
	h1 := l1 + upperID(a.c1[l1:hi], key[1])
	if depth == 2 {
		return l1, h1
	}
	l2 := l1 + lowerID(a.c2[l1:h1], key[2])
	return l2, l2 + upperID(a.c2[l2:h1], key[2])
}

// spanSearch is spanRange for a single bound.
func spanSearch(a *spanArena, n int, key rdf.EncodedTriple, depth int, upper bool) int {
	lo, hi := spanRange(a, n, key, depth)
	if upper {
		return hi
	}
	return lo
}

func (r *blockRun) search(from int, key rdf.EncodedTriple, depth int, upper bool) int {
	if depth == 0 {
		if upper {
			return r.n
		}
		return from
	}
	if r.n == 0 || from >= r.n {
		return r.n
	}
	// Find the first block whose last key passes the bound: earlier blocks
	// hold only failing keys, so the answer is in this block or at its start.
	// Narrow by the leading fence component first — max0 is a flat ID array,
	// far cheaper to binary-search than the wide meta entries. Blocks with
	// max0 < key[0] fail every bound, blocks with max0 > key[0] pass every
	// bound; only the max0 == key[0] range needs deeper comparison.
	k0 := key[0]
	// e0: first block with max0 ≥ key[0].
	e0, h := 0, len(r.max0)
	for e0 < h {
		mid := int(uint(e0+h) >> 1)
		if r.max0[mid] < k0 {
			e0 = mid + 1
		} else {
			h = mid
		}
	}
	// e1: first block with max0 > key[0].
	e1 := e0
	h = len(r.max0)
	for e1 < h {
		mid := int(uint(e1+h) >> 1)
		if r.max0[mid] <= k0 {
			e1 = mid + 1
		} else {
			h = mid
		}
	}
	var lo int
	switch {
	case depth == 1 && upper:
		lo = e1 // first block holding any key with c0 > key[0]
	case depth == 1:
		lo = e0 // first block holding any key with c0 ≥ key[0]
	default:
		// Deeper bounds: only the max0 == key[0] blocks [e0, e1) are
		// ambiguous; block e1, if it exists, passes outright.
		lo, h = e0, e1
		if h < len(r.meta) {
			h++
		}
		for lo < h {
			mid := int(uint(lo+h) >> 1)
			if !passes(r.meta[mid].max, key, depth, upper) {
				lo = mid + 1
			} else {
				h = mid
			}
		}
	}
	if lo == len(r.meta) {
		return r.n
	}
	m := &r.meta[lo]
	q := m.start
	if !passes(m.min, key, depth, upper) {
		// The boundary crosses this block: decode it and binary-search the
		// columns for the first passing key.
		a := r.decoded(lo)
		q = m.start + spanSearch(a, int(m.count), key, depth, upper)
		searchArenas.Put(a)
	}
	if q < from {
		q = from
	}
	return q
}

// searchRange returns the [lower, upper) position range of keys matching the
// depth-prefix of key — the fused form of a lower- and upper-bound search
// pair. It shares the fence narrowing between the bounds and, when both land
// in the same block (the common case for selective probes), the decode too.
func (r *blockRun) searchRange(key rdf.EncodedTriple, depth int) (int, int) {
	if depth == 0 {
		return 0, r.n
	}
	if r.n == 0 {
		return r.n, r.n
	}
	k0 := key[0]
	e0 := lowerID(r.max0, k0)           // first block with max0 ≥ key[0]
	e1 := e0 + upperID(r.max0[e0:], k0) // first block with max0 > key[0]
	// Lower-bound block: the first block whose max ≥ prefix. Only the
	// max0 == key[0] blocks [e0, e1) need comparison past the leading
	// component; block e1, if it exists, passes outright.
	bLo := e0
	if depth > 1 {
		lo2, h := e0, e1
		if h < len(r.meta) {
			h++
		}
		for lo2 < h {
			mid := int(uint(lo2+h) >> 1)
			if !passes(r.meta[mid].max, key, depth, false) {
				lo2 = mid + 1
			} else {
				h = mid
			}
		}
		bLo = lo2
	}
	if bLo == len(r.meta) {
		return r.n, r.n
	}
	m := &r.meta[bLo]
	if passes(m.min, key, depth, true) {
		// Even the block's first key is past the prefix: empty range, and
		// every earlier key fails the lower bound, so both bounds sit here.
		return m.start, m.start
	}
	if passes(m.min, key, depth, false) {
		// The block starts exactly on the prefix; only the upper bound can be
		// interior.
		a := r.decoded(bLo)
		_, h := spanRange(a, int(m.count), key, depth)
		searchArenas.Put(a)
		if h < int(m.count) {
			return m.start, m.start + h
		}
		return m.start, r.searchUpperFrom(bLo+1, e1, key, depth)
	}
	// The lower bound is interior to this block; the upper bound may be too.
	a := r.decoded(bLo)
	l, h := spanRange(a, int(m.count), key, depth)
	searchArenas.Put(a)
	if h < int(m.count) {
		return m.start + l, m.start + h
	}
	return m.start + l, r.searchUpperFrom(bLo+1, e1, key, depth)
}

// searchUpperFrom finds the first position whose depth-prefix is > key's,
// considering only blocks from b on; e1 is the first block with
// max0 > key[0], which passes outright if it exists.
func (r *blockRun) searchUpperFrom(b, e1 int, key rdf.EncodedTriple, depth int) int {
	lo, h := b, e1
	if h < lo {
		h = lo
	}
	if h < len(r.meta) {
		h++
	}
	for lo < h {
		mid := int(uint(lo+h) >> 1)
		if !passes(r.meta[mid].max, key, depth, true) {
			lo = mid + 1
		} else {
			h = mid
		}
	}
	if lo == len(r.meta) {
		return r.n
	}
	m := &r.meta[lo]
	if !passes(m.min, key, depth, true) {
		a := r.decoded(lo)
		q := m.start + spanSearch(a, int(m.count), key, depth, true)
		searchArenas.Put(a)
		return q
	}
	return m.start
}

func (r *blockRun) contains(key rdf.EncodedTriple) bool {
	if r.n == 0 {
		return false
	}
	// Last block whose min key is ≤ key.
	lo, hi := 0, len(r.meta)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if cmpKeys(r.meta[mid].min, key) <= 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	m := &r.meta[lo]
	switch {
	case cmpKeys(key, m.min) < 0 || cmpKeys(key, m.max) > 0:
		return false
	case key == m.min || key == m.max:
		return true
	}
	a := r.decoded(lo)
	ilo := spanSearch(a, int(m.count), key, 3, false)
	found := ilo < int(m.count) && a.key(ilo) == key
	searchArenas.Put(a)
	return found
}

func (r *blockRun) keyAt(pos int) rdf.EncodedTriple {
	bi := r.blockOf(pos)
	m := &r.meta[bi]
	switch pos {
	case m.start:
		return m.min
	case m.start + int(m.count) - 1:
		return m.max
	}
	a := r.decoded(bi)
	k := a.key(pos - m.start)
	searchArenas.Put(a)
	return k
}

func (r *blockRun) fill(a *spanArena, lo, hi int) {
	bi := r.blockOf(lo)
	m := &r.meta[bi]
	if a.src == r && a.bi == bi {
		// The iterator's arena already holds this block (a prior fill or an
		// interleaved Next/NextSpan): just reposition the window.
		a.n = int(m.count)
	} else {
		a.grow(int(m.count))
		r.mustDecode(bi, a.c0, a.c1, a.c2)
		a.src, a.bi = r, bi
	}
	a.idx = lo - m.start
	if end := m.start + int(m.count); end > hi {
		a.n = hi - m.start
	}
}

// alignSplit rounds a tentative partition cut down to a block boundary — and,
// for paged snapshots, further down to the first block of the page holding
// that block, so partitioned parallel scans hand each worker a disjoint set
// of pages (no two workers fault or prefetch the same page). Greedy page
// packing guarantees each page's first block starts at page offset 0, so the
// walk back is bounded by the blocks of one page.
func (r *blockRun) alignSplit(pos int) int {
	if pos >= r.n {
		return r.n
	}
	bi := r.blockOf(pos)
	if r.psz > 0 {
		for bi > 0 && int(r.meta[bi].off)%r.psz != 0 {
			bi--
		}
	}
	return r.meta[bi].start
}
