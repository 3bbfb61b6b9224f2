package rdf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"sync"
)

// ID is a dense dictionary identifier for a term. ID 0 is reserved and never
// assigned, so it can be used as a "no term" sentinel by callers.
type ID uint32

// NoID is the reserved sentinel identifier.
const NoID ID = 0

// Dict interns terms to dense IDs and resolves IDs back to terms. It is the
// dictionary-encoding layer every store and engine component builds on: all
// triple indexes and bindings operate on IDs, and terms are only materialized
// at the edges (parsing and result rendering).
//
// A Dict is an immutable base plus an append-only tail. The base is a
// serialized dictionary opened in place (OpenDict): one string arena holding
// the term records verbatim, their offsets, and an open-addressing hash index
// over the records' bytes — the dictionary idea of HDT (Fernández et al.,
// J. Web Semantics 2013). Opening one costs a validating pass over the bytes,
// not an Intern per term. The tail holds every term interned since, behind
// the mutex; a fresh dictionary (NewDict) is all tail.
//
// Dict is safe for concurrent use. Base reads take no lock and allocate
// nothing: Term returns substrings of the arena. Lookup and Intern probe the
// base first, then the tail under the lock. The dictionary is append-only —
// IDs are never reassigned or removed — which lets a published graph
// snapshot and the writable fork preparing the next generation share one
// dictionary: readers resolving IDs of the published snapshot can never
// observe an inconsistent entry, only interleave with the writer appending
// fresh terms to the tail.
type Dict struct {
	base dictBase

	mu     sync.RWMutex
	byTerm map[Term]ID
	terms  []Term // terms[i] corresponds to ID(base.len()+i+1)
}

// dictBase is the immutable part of a Dict. A term record is its kind byte,
// then the value, datatype and lang, each as a uvarint length and the bytes.
type dictBase struct {
	arena string   // the records back to back, in ID order
	offs  []uint32 // record of ID i spans arena[offs[i-1]:offs[i]]; empty when there is no base
	index []uint32 // IDs by record hash, linear probing; 0 marks an empty slot
}

// maxRecordString bounds one string of a term record, so corrupt input fails
// on the length instead of the bounds check far past it.
const maxRecordString = 1 << 24

// minRecordLen is the shortest term record: a kind byte and three empty
// strings.
const minRecordLen = 4

// dictSeed keys the base index. The index is rebuilt at every open, never
// persisted, so a per-process seed is enough.
var dictSeed = maphash.MakeSeed()

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byTerm: make(map[Term]ID)}
}

// OpenDict opens the serialized dictionary at the start of data — a uvarint
// term count, then that many term records, as WriteTo writes them — in one
// validating pass: every kind is a known TermKind, every length is canonical,
// within bounds and at most 1<<24 bytes, and no term repeats. The records
// become the base, whose IDs are 1..count in record order. It returns the
// dictionary and the number of bytes it consumed.
func OpenDict(data []byte) (*Dict, int, error) {
	count, pos := binary.Uvarint(data)
	if pos <= 0 {
		return nil, 0, fmt.Errorf("rdf: reading term count: %w", io.ErrUnexpectedEOF)
	}
	// The count is untrusted: it must fit the bytes left before anything is
	// sized from it.
	if count > uint64(len(data)-pos)/minRecordLen {
		return nil, 0, fmt.Errorf("rdf: term count %d exceeds the %d bytes that follow", count, len(data)-pos)
	}
	d := NewDict()
	if count == 0 {
		return d, pos, nil
	}
	start := pos
	offs := make([]uint32, count+1)
	slots := 2
	for uint64(slots) < 2*count {
		slots <<= 1
	}
	index := make([]uint32, slots)
	mask := uint64(slots - 1)
	for i := uint64(1); i <= count; i++ {
		rec := pos
		if pos >= len(data) {
			return nil, 0, fmt.Errorf("rdf: reading term %d: %w", i, io.ErrUnexpectedEOF)
		}
		if data[pos] > byte(KindLiteral) {
			return nil, 0, fmt.Errorf("rdf: term %d has invalid kind %d", i, data[pos])
		}
		pos++
		for f := 0; f < 3; f++ {
			n, k := binary.Uvarint(data[pos:])
			if k <= 0 {
				return nil, 0, fmt.Errorf("rdf: reading term %d length: %w", i, io.ErrUnexpectedEOF)
			}
			// Lookups hash a term's canonical record, so a record with an
			// overlong varint would never be found again.
			if k > 1 && data[pos+k-1] == 0 {
				return nil, 0, fmt.Errorf("rdf: term %d has a non-canonical length", i)
			}
			if n > maxRecordString {
				return nil, 0, fmt.Errorf("rdf: term %d string length %d exceeds limit", i, n)
			}
			if pos += k; uint64(len(data)-pos) < n {
				return nil, 0, fmt.Errorf("rdf: reading term %d string: %w", i, io.ErrUnexpectedEOF)
			}
			pos += int(n)
		}
		if pos-start > math.MaxUint32 {
			return nil, 0, fmt.Errorf("rdf: dictionary exceeds %d bytes", uint64(math.MaxUint32))
		}
		offs[i] = uint32(pos - start)
		for s := maphash.Bytes(dictSeed, data[rec:pos]) & mask; ; s = (s + 1) & mask {
			id := index[s]
			if id == 0 {
				index[s] = uint32(i)
				break
			}
			if bytes.Equal(data[start+int(offs[id-1]):start+int(offs[id])], data[rec:pos]) {
				return nil, 0, fmt.Errorf("rdf: dictionary terms are not unique (term %d repeats term %d)", i, id)
			}
		}
	}
	d.base = dictBase{arena: string(data[start:pos]), offs: offs, index: index}
	return d, pos, nil
}

// len returns the number of base terms.
func (b *dictBase) len() int {
	if len(b.offs) == 0 {
		return 0
	}
	return len(b.offs) - 1
}

// str decodes the length-prefixed string at off, returning it as a substring
// of the arena and the offset just past it. OpenDict validated the varint.
func (b *dictBase) str(off int) (string, int) {
	var n, shift uint
	for {
		c := b.arena[off]
		off++
		n |= uint(c&0x7f) << shift
		if c < 0x80 {
			break
		}
		shift += 7
	}
	return b.arena[off : off+int(n)], off + int(n)
}

// term decodes the record of base ID id.
func (b *dictBase) term(id ID) Term {
	off := int(b.offs[id-1])
	t := Term{Kind: TermKind(b.arena[off])}
	t.Value, off = b.str(off + 1)
	t.Datatype, off = b.str(off)
	t.Lang, _ = b.str(off)
	return t
}

// find returns the base ID of t, or NoID.
func (b *dictBase) find(t Term) ID {
	if len(b.index) == 0 {
		return NoID
	}
	var h maphash.Hash
	h.SetSeed(dictSeed)
	var buf [binary.MaxVarintLen64]byte
	h.WriteByte(byte(t.Kind))
	for _, s := range [3]string{t.Value, t.Datatype, t.Lang} {
		h.Write(buf[:binary.PutUvarint(buf[:], uint64(len(s)))])
		h.WriteString(s)
	}
	mask := uint64(len(b.index) - 1)
	for s := h.Sum64() & mask; ; s = (s + 1) & mask {
		id := ID(b.index[s])
		if id == NoID || b.term(id) == t {
			return id
		}
	}
}

// Intern returns the ID for the term, assigning a fresh one if needed.
func (d *Dict) Intern(t Term) ID {
	if id := d.base.find(t); id != NoID {
		return id
	}
	d.mu.RLock()
	id, ok := d.byTerm[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byTerm[t]; ok {
		return id
	}
	d.terms = append(d.terms, t)
	id = ID(d.base.len() + len(d.terms))
	d.byTerm[t] = id
	return id
}

// Lookup returns the ID of a term if it has been interned.
func (d *Dict) Lookup(t Term) (ID, bool) {
	if id := d.base.find(t); id != NoID {
		return id, true
	}
	d.mu.RLock()
	id, ok := d.byTerm[t]
	d.mu.RUnlock()
	return id, ok
}

// Term resolves an ID back to its term. It panics on the sentinel or an
// out-of-range ID, which always indicates a programming error.
func (d *Dict) Term(id ID) Term {
	n := d.base.len()
	if id != NoID && int(id) <= n {
		return d.base.term(id)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id == NoID || int(id) > n+len(d.terms) {
		panic(fmt.Sprintf("rdf: dictionary lookup of invalid id %d (size %d)", id, n+len(d.terms)))
	}
	return d.terms[int(id)-n-1]
}

// Len returns the number of interned terms.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.base.len() + len(d.terms)
}

// EachTerm calls fn for every interned (id, term) pair in ID order. fn must
// not mutate the dictionary.
func (d *Dict) EachTerm(fn func(ID, Term) bool) {
	n := d.base.len()
	for id := ID(1); int(id) <= n; id++ {
		if !fn(id, d.base.term(id)) {
			return
		}
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i, t := range d.terms {
		if !fn(ID(n+i+1), t) {
			return
		}
	}
}

// WriteTo writes the dictionary in the serialized form OpenDict opens: the
// term count, the base arena in one write, then the tail's records. Terms
// interned while it runs are not written, so the count always matches.
func (d *Dict) WriteTo(w io.Writer) (int64, error) {
	d.mu.RLock()
	tail := d.terms
	d.mu.RUnlock()
	var total int64
	write := func(p []byte) error {
		n, err := w.Write(p)
		total += int64(n)
		return err
	}
	buf := binary.AppendUvarint(nil, uint64(d.base.len()+len(tail)))
	if err := write(buf); err != nil {
		return total, err
	}
	n, err := io.WriteString(w, d.base.arena)
	total += int64(n)
	if err != nil {
		return total, err
	}
	buf = buf[:0]
	for _, t := range tail {
		buf = append(buf, byte(t.Kind))
		for _, s := range [3]string{t.Value, t.Datatype, t.Lang} {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		if len(buf) >= 32<<10 {
			if err := write(buf); err != nil {
				return total, err
			}
			buf = buf[:0]
		}
	}
	err = write(buf)
	return total, err
}

// EncodedTriple is a dictionary-encoded triple.
type EncodedTriple [3]ID
