package views

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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
// versioned binary format; RestoreCatalog rebuilds a warm catalog from it
// by reinstating the stored group tables (V, derived on demand from the
// tables, is bit-identical to the pre-crash one: blank labels are
// content-keyed).
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

// stateReader deserializes catalog state primitives.
type stateReader struct {
	br *bufio.Reader
}

func (r *stateReader) uvarint() (uint64, error) { return binary.ReadUvarint(r.br) }
func (r *stateReader) varint() (int64, error)   { return binary.ReadVarint(r.br) }

func (r *stateReader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > stateStringLimit {
		return "", fmt.Errorf("string length %d exceeds limit", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.br, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *stateReader) term() (rdf.Term, error) {
	var t rdf.Term
	kind, err := r.br.ReadByte()
	if err != nil {
		return t, err
	}
	if kind > byte(rdf.KindLiteral) {
		return t, fmt.Errorf("invalid term kind %d", kind)
	}
	t.Kind = rdf.TermKind(kind)
	if t.Value, err = r.string(); err != nil {
		return t, err
	}
	if t.Datatype, err = r.string(); err != nil {
		return t, err
	}
	if t.Lang, err = r.string(); err != nil {
		return t, err
	}
	return t, nil
}

func (r *stateReader) value() (algebra.Value, error) {
	bound, err := r.br.ReadByte()
	if err != nil {
		return algebra.Unbound, err
	}
	switch bound {
	case 0:
		return algebra.Unbound, nil
	case 1:
		t, err := r.term()
		if err != nil {
			return algebra.Unbound, err
		}
		return algebra.Bind(t), nil
	default:
		return algebra.Unbound, fmt.Errorf("invalid value bound flag %d", bound)
	}
}

func (r *stateReader) float() (float64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r.br, b[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
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

// RestoreCatalog rebuilds a warm catalog from saved state: the base graph
// (already snapshot-loaded, with its version restored), the facet, and the
// state written by SaveState. Every persisted view's group table and
// staleness bookkeeping (baseVersion, maintenance record) is reinstated, so
// no view is rematerialized from its defining query; the recorded triple
// count is checked against the encoding's counting rule. Corrupt input
// returns an error, never panics.
func RestoreCatalog(base *store.Graph, f *facet.Facet, opts engine.Options, in io.Reader) (*Catalog, error) {
	r := &stateReader{br: bufio.NewReaderSize(in, 1<<16)}
	magic := make([]byte, len(catalogStateMagic))
	if _, err := io.ReadFull(r.br, magic); err != nil {
		return nil, fmt.Errorf("views: reading catalog state header: %w", err)
	}
	if string(magic) != catalogStateMagic {
		return nil, fmt.Errorf("views: bad catalog state magic %q", magic)
	}
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
	c := NewCatalogWithOptions(base, f, opts)
	for i := uint64(0); i < nviews; i++ {
		m, err := readMaterialized(r, f)
		if err != nil {
			return nil, fmt.Errorf("views: reading view %d: %w", i, err)
		}
		mask := m.Data.View.Mask
		if _, dup := c.mats[mask]; dup {
			return nil, fmt.Errorf("views: duplicate view %s in state", m.Data.View)
		}
		triples, bytes := encodingSize(m.Data)
		if triples != m.Triples {
			return nil, fmt.Errorf("views: %s encodes to %d triples, state recorded %d",
				m.Data.View, triples, m.Triples)
		}
		m.Bytes = bytes
		m.Maint.Mode = c.maintMode.String()
		c.mats[mask] = m
	}
	c.generation = gen
	return c, nil
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
	dims := len(v.Dims())
	capHint := ngroups
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	groups := make([]Group, 0, capHint)
	for gi := uint64(0); gi < ngroups; gi++ {
		g, err := readGroup(r, dims)
		if err != nil {
			return nil, fmt.Errorf("group %d: %w", gi, err)
		}
		groups = append(groups, g)
	}
	if groups, err = restoreOrder(groups); err != nil {
		return nil, err
	}
	data.groups = newGroupTable(groups)
	m.Data = data
	return m, nil
}

// readGroup decodes one group, validating its key arity against the view.
func readGroup(r *stateReader, dims int) (Group, error) {
	var g Group
	keyLen, err := r.uvarint()
	if err != nil {
		return g, fmt.Errorf("key length: %w", err)
	}
	if keyLen != uint64(dims) {
		return g, fmt.Errorf("key has %d values for %d dims", keyLen, dims)
	}
	if dims > 0 { // an apex key stays nil, as Compute leaves it
		g.Key = make([]algebra.Value, dims)
	}
	for i := range g.Key {
		if g.Key[i], err = r.value(); err != nil {
			return g, fmt.Errorf("key value %d: %w", i, err)
		}
	}
	if g.Agg, err = r.value(); err != nil {
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
