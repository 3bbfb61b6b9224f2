package views

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"time"

	"sofos/internal/algebra"
	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/store"
)

// Catalog state serialization: the durable half of a checkpoint. A graph
// snapshot alone (store.Save) restores G but not which views were
// materialized, their computed groups, or their staleness bookkeeping —
// without those a restart would re-run selection and re-materialize every
// view from scratch. SaveState captures exactly that catalog state in a
// versioned binary format; ReadState decodes it without the graph and
// State.Catalog binds the result to one, reinstating the stored group tables
// (V, derived on demand from the tables, is bit-identical to the pre-crash
// one: blank labels are content-keyed). RestoreCatalog does both.
//
// Layout (integers varint/uvarint, strings length-prefixed):
//
//	magic "SOFOSCAT1" (9 bytes)
//	generation
//	viewCount
//	  per view (ascending mask order):
//	    mask, baseVersion, triples (integrity check), elapsedNS
//	    maint: lastPath, lastCostNS, deltaSize
//	    data: source, computeTimeNS, groupCount
//	      per group, in key order: keyLen, key values, agg value, sumBits,
//	      countBits, n
//
// Values are a bound byte followed, when bound, by the term (kind byte plus
// value/datatype/lang strings). State written before groups were kept in key
// order holds them in engine order; the reader sorts such a view once. The
// delta log is deliberately not persisted: replayed WAL batches repopulate
// it, and a view stale across a restart simply takes the full-recompute
// refresh path once.
const catalogStateMagic = "SOFOSCAT1"

// stateStringLimit bounds any single decoded string; corrupt lengths must
// fail on the read, not allocate unboundedly.
const stateStringLimit = 1 << 24

// stateWriter serializes catalog state primitives.
type stateWriter struct {
	bw  *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (w *stateWriter) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	_, w.err = w.bw.Write(w.buf[:n])
}

func (w *stateWriter) varint(v int64) {
	if w.err != nil {
		return
	}
	n := binary.PutVarint(w.buf[:], v)
	_, w.err = w.bw.Write(w.buf[:n])
}

func (w *stateWriter) string(s string) {
	w.uvarint(uint64(len(s)))
	if w.err == nil {
		_, w.err = w.bw.WriteString(s)
	}
}

func (w *stateWriter) byte(b byte) {
	if w.err == nil {
		w.err = w.bw.WriteByte(b)
	}
}

func (w *stateWriter) term(t rdf.Term) {
	w.byte(byte(t.Kind))
	w.string(t.Value)
	w.string(t.Datatype)
	w.string(t.Lang)
}

func (w *stateWriter) value(v algebra.Value) {
	if !v.Bound {
		w.byte(0)
		return
	}
	w.byte(1)
	w.term(v.Term)
}

// stateReader decodes catalog state held whole in memory: every read is a
// bounds-checked slice of buf, so a corrupt length fails before anything is
// allocated for it. Key terms are interned by their encoded bytes and
// datatype and language strings by value, so a term that many groups share
// is built once per restore and every group key holding it shares it.
type stateReader struct {
	buf   []byte
	terms map[string]rdf.Term // encoded key term → decoded term
	strs  map[string]string   // datatype and language strings
}

func (r *stateReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, varintError(n)
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *stateReader) varint() (int64, error) {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		return 0, varintError(n)
	}
	r.buf = r.buf[n:]
	return v, nil
}

// varintError explains a failed binary.Uvarint or binary.Varint: n is 0
// when the input ends inside the varint and negative when it overflows.
func varintError(n int) error {
	if n == 0 {
		return io.ErrUnexpectedEOF
	}
	return errors.New("varint overflows 64 bits")
}

func (r *stateReader) byte() (byte, error) {
	if len(r.buf) == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b, nil
}

// bytes returns the next length-prefixed string's bytes, aliasing buf.
func (r *stateReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > stateStringLimit {
		return nil, fmt.Errorf("string length %d exceeds limit", n)
	}
	if n > uint64(len(r.buf)) {
		return nil, fmt.Errorf("string length %d overruns the %d bytes left: %w", n, len(r.buf), io.ErrUnexpectedEOF)
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b, nil
}

func (r *stateReader) string() (string, error) {
	b, err := r.bytes()
	return string(b), err
}

// shared returns b as a string, the same one for every equal b.
func (r *stateReader) shared(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := r.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	r.strs[s] = s
	return s
}

// term decodes one term. A key term is built on its first occurrence only;
// an aggregate keeps a value string of its own.
func (r *stateReader) term(key bool) (rdf.Term, error) {
	enc := r.buf
	kind, err := r.byte()
	if err != nil {
		return rdf.Term{}, err
	}
	if kind > byte(rdf.KindLiteral) {
		return rdf.Term{}, fmt.Errorf("invalid term kind %d", kind)
	}
	var parts [3][]byte // value, datatype, lang
	for i := range parts {
		if parts[i], err = r.bytes(); err != nil {
			return rdf.Term{}, err
		}
	}
	enc = enc[:len(enc)-len(r.buf)]
	if key {
		if t, ok := r.terms[string(enc)]; ok {
			return t, nil
		}
	}
	t := rdf.Term{Kind: rdf.TermKind(kind), Value: string(parts[0]),
		Datatype: r.shared(parts[1]), Lang: r.shared(parts[2])}
	if key {
		r.terms[string(enc)] = t
	}
	return t, nil
}

func (r *stateReader) value(key bool) (algebra.Value, error) {
	bound, err := r.byte()
	if err != nil {
		return algebra.Unbound, err
	}
	switch bound {
	case 0:
		return algebra.Unbound, nil
	case 1:
		t, err := r.term(key)
		if err != nil {
			return algebra.Unbound, err
		}
		return algebra.Bind(t), nil
	default:
		return algebra.Unbound, fmt.Errorf("invalid value bound flag %d", bound)
	}
}

func (r *stateReader) float() (float64, error) {
	if len(r.buf) < 8 {
		return 0, io.ErrUnexpectedEOF
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return f, nil
}

func (w *stateWriter) float(f float64) {
	if w.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	_, w.err = w.bw.Write(b[:])
}

// SaveState writes the catalog's materialization state — generation counter
// and, per materialized view, its computed groups and staleness bookkeeping —
// in the versioned binary checkpoint format. Callers must not run catalog
// mutations concurrently: the server checkpoints a published catalog, which
// is never written again, or its own pending fork, under core.Chain's
// writer mutex.
func (c *Catalog) SaveState(out io.Writer) error {
	w := &stateWriter{bw: bufio.NewWriterSize(out, 1<<16)}
	if _, err := w.bw.WriteString(catalogStateMagic); err != nil {
		return fmt.Errorf("views: writing catalog state header: %w", err)
	}
	w.varint(c.generation)
	mats := c.Materialized()
	w.uvarint(uint64(len(mats)))
	for _, m := range mats {
		w.uvarint(uint64(m.Data.View.Mask))
		w.varint(m.baseVersion)
		w.uvarint(uint64(m.Triples))
		w.varint(int64(m.Elapsed))
		w.string(m.Maint.LastPath)
		w.varint(int64(m.Maint.LastCost))
		w.uvarint(uint64(m.Maint.DeltaSize))
		w.string(m.Data.Source)
		w.varint(int64(m.Data.ComputeTime))
		w.uvarint(uint64(m.Data.NumGroups()))
		m.Data.Each(func(g Group) bool {
			w.uvarint(uint64(len(g.Key)))
			for _, kv := range g.Key {
				w.value(kv)
			}
			w.value(g.Agg)
			w.float(g.Sum)
			w.float(g.Count)
			w.varint(g.N)
			return true
		})
	}
	if w.err != nil {
		return fmt.Errorf("views: writing catalog state: %w", w.err)
	}
	return w.bw.Flush()
}

// State is catalog state decoded by ReadState and not yet bound to a base
// graph. Decoding never touches the graph, so a restore can run it while the
// graph snapshot loads.
type State struct {
	facet      *facet.Facet
	generation int64
	mats       map[facet.Mask]*Materialized
}

// ReadState decodes catalog state written by SaveState for facet f. Every
// persisted view's group table and staleness bookkeeping (baseVersion,
// maintenance record) is reinstated, so no view is rematerialized from its
// defining query; the recorded triple count is checked against the
// encoding's counting rule. state is only read, and not retained: every
// decoded string is a copy. Corrupt input returns an error, never panics.
func ReadState(f *facet.Facet, state []byte) (*State, error) {
	if len(state) < len(catalogStateMagic) {
		return nil, fmt.Errorf("views: reading catalog state header: %w", io.ErrUnexpectedEOF)
	}
	if magic := state[:len(catalogStateMagic)]; string(magic) != catalogStateMagic {
		return nil, fmt.Errorf("views: bad catalog state magic %q", magic)
	}
	r := &stateReader{buf: state[len(catalogStateMagic):],
		terms: make(map[string]rdf.Term), strs: make(map[string]string)}
	gen, err := r.varint()
	if err != nil {
		return nil, fmt.Errorf("views: reading catalog generation: %w", err)
	}
	nviews, err := r.uvarint()
	if err != nil {
		return nil, fmt.Errorf("views: reading view count: %w", err)
	}
	if nviews > uint64(f.FullMask())+1 {
		return nil, fmt.Errorf("views: state has %d views but facet %s has only %d lattice nodes",
			nviews, f.Name, f.FullMask()+1)
	}
	s := &State{facet: f, generation: gen, mats: make(map[facet.Mask]*Materialized, nviews)}
	mode := maintenanceMode(f).String()
	for i := uint64(0); i < nviews; i++ {
		m, err := readMaterialized(r, f)
		if err != nil {
			return nil, fmt.Errorf("views: reading view %d: %w", i, err)
		}
		mask := m.Data.View.Mask
		if _, dup := s.mats[mask]; dup {
			return nil, fmt.Errorf("views: duplicate view %s in state", m.Data.View)
		}
		triples, size := encodingSize(m.Data)
		if triples != m.Triples {
			return nil, fmt.Errorf("views: %s encodes to %d triples, state recorded %d",
				m.Data.View, triples, m.Triples)
		}
		m.Bytes = size
		m.Maint.Mode = mode
		s.mats[mask] = m
	}
	return s, nil
}

// Catalog binds the decoded state to base — the snapshot-loaded graph, with
// its version restored — as a warm catalog. The materialization records are
// immutable, so catalogs bound from one State share them, as forks do.
func (s *State) Catalog(base *store.Graph, opts engine.Options) *Catalog {
	c := NewCatalogWithOptions(base, s.facet, opts)
	maps.Copy(c.mats, s.mats)
	c.generation = s.generation
	return c
}

// RestoreCatalog rebuilds a warm catalog from saved state: the base graph
// (already snapshot-loaded, with its version restored), the facet, and the
// state written by SaveState. It reads the state whole, decodes it with
// ReadState and binds it with State.Catalog; core.Restore runs the same two
// steps with the decode beside the snapshot load.
func RestoreCatalog(base *store.Graph, f *facet.Facet, opts engine.Options, in io.Reader) (*Catalog, error) {
	var state bytes.Buffer
	if _, err := io.Copy(&state, in); err != nil {
		return nil, fmt.Errorf("views: reading catalog state: %w", err)
	}
	s, err := ReadState(f, state.Bytes())
	if err != nil {
		return nil, err
	}
	return s.Catalog(base, opts), nil
}

// readMaterialized decodes one view's record. The facet resolves the mask to
// a concrete view; the maintenance Mode and encoding statistics are
// recomputed by the caller rather than trusted from the input.
func readMaterialized(r *stateReader, f *facet.Facet) (*Materialized, error) {
	mask, err := r.uvarint()
	if err != nil {
		return nil, fmt.Errorf("mask: %w", err)
	}
	if mask > uint64(f.FullMask()) {
		return nil, fmt.Errorf("mask %#x outside facet lattice (full mask %#x)", mask, f.FullMask())
	}
	v := f.View(facet.Mask(mask))
	m := &Materialized{}
	if m.baseVersion, err = r.varint(); err != nil {
		return nil, fmt.Errorf("base version: %w", err)
	}
	triples, err := r.uvarint()
	if err != nil {
		return nil, fmt.Errorf("triples: %w", err)
	}
	m.Triples = int(triples)
	elapsed, err := r.varint()
	if err != nil {
		return nil, fmt.Errorf("elapsed: %w", err)
	}
	m.Elapsed = time.Duration(elapsed)
	if m.Maint.LastPath, err = r.string(); err != nil {
		return nil, fmt.Errorf("maint path: %w", err)
	}
	lastCost, err := r.varint()
	if err != nil {
		return nil, fmt.Errorf("maint cost: %w", err)
	}
	m.Maint.LastCost = time.Duration(lastCost)
	deltaSize, err := r.uvarint()
	if err != nil {
		return nil, fmt.Errorf("maint delta size: %w", err)
	}
	m.Maint.DeltaSize = int(deltaSize)
	data := &Data{View: v}
	if data.Source, err = r.string(); err != nil {
		return nil, fmt.Errorf("source: %w", err)
	}
	computeTime, err := r.varint()
	if err != nil {
		return nil, fmt.Errorf("compute time: %w", err)
	}
	data.ComputeTime = time.Duration(computeTime)
	ngroups, err := r.uvarint()
	if err != nil {
		return nil, fmt.Errorf("group count: %w", err)
	}
	// Every group takes at least its key length, one bound flag per key
	// value and one for the aggregate, two floats and a varint: a count the
	// remaining bytes cannot hold is corrupt, and is refused before the
	// group and key slabs are sized from it.
	dims := len(v.Dims())
	if ngroups > uint64(len(r.buf))/uint64(dims+19) {
		return nil, fmt.Errorf("group count %d overruns the %d bytes left", ngroups, len(r.buf))
	}
	groups := make([]Group, ngroups)
	keys := make([]algebra.Value, len(groups)*dims) // one slab for the view's keys
	for gi := range groups {
		key := keys[gi*dims : (gi+1)*dims : (gi+1)*dims]
		if groups[gi], err = readGroup(r, key); err != nil {
			return nil, fmt.Errorf("group %d: %w", gi, err)
		}
	}
	if groups, err = restoreOrder(groups); err != nil {
		return nil, err
	}
	data.groups = newGroupTable(groups)
	m.Data = data
	return m, nil
}

// readGroup decodes one group into key, a slab slice sized to the view's
// dims, validating the stored key arity against it.
func readGroup(r *stateReader, key []algebra.Value) (Group, error) {
	var g Group
	keyLen, err := r.uvarint()
	if err != nil {
		return g, fmt.Errorf("key length: %w", err)
	}
	if keyLen != uint64(len(key)) {
		return g, fmt.Errorf("key has %d values for %d dims", keyLen, len(key))
	}
	if len(key) > 0 { // an apex key stays nil, as Compute leaves it
		g.Key = key
	}
	for i := range g.Key {
		if g.Key[i], err = r.value(true); err != nil {
			return g, fmt.Errorf("key value %d: %w", i, err)
		}
	}
	if g.Agg, err = r.value(false); err != nil {
		return g, fmt.Errorf("aggregate: %w", err)
	}
	if g.Sum, err = r.float(); err != nil {
		return g, fmt.Errorf("sum: %w", err)
	}
	if g.Count, err = r.float(); err != nil {
		return g, fmt.Errorf("count: %w", err)
	}
	if g.N, err = r.varint(); err != nil {
		return g, fmt.Errorf("contribution count: %w", err)
	}
	return g, nil
}

// SetGeneration forwards the mutation counter — WAL replay uses it after
// re-applying a durably logged batch, and an MVCC writer transaction uses it
// to normalize its fork's intermediate bumps to the single published
// generation. Never lower the counter on a live (published) catalog: result
// caches key on it never repeating. The stale memo is dropped because its
// key embeds the generation: a rewind on an unpublished fork could otherwise
// collide with a memo taken at an intermediate state under the same number.
func (c *Catalog) SetGeneration(gen int64) {
	c.generation = gen
	c.staleMemo.Store(nil)
}
