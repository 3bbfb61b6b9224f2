package views

import (
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sofos/internal/algebra"
	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

// SOFOS vocabulary for the G+ encoding of materialized views.
const (
	NS         = "http://sofos.ics.forth.gr/ns#"
	PredInView = NS + "inView" // group blank node -> view IRI
	PredAgg    = NS + "agg"    // group blank node -> aggregate value
	PredSum    = NS + "aggSum" // AVG only: partial sum
	PredCount  = NS + "aggCount"
)

// DimPredicate returns the predicate IRI attaching a dimension value to a
// group blank node.
func DimPredicate(dim string) string { return NS + "d_" + dim }

// Maintenance records how a materialization is kept consistent with the
// base graph and which refresh path last ran — the per-view bookkeeping the
// server's /stats endpoint reports.
type Maintenance struct {
	// Mode is the facet's maintainability classification — see
	// MaintenanceMode: "self-maintainable-both", "self-maintainable-insert",
	// or "recompute-only".
	Mode string
	// LastPath is how the record was last produced: "initial" (first
	// materialization), "incremental" (delta application), or "full"
	// (recompute).
	LastPath string
	// LastCost is the duration of the last refresh (zero until one runs).
	// Views refreshed incrementally together share one delta join per
	// staleness window, so each one's LastCost includes the whole join.
	LastCost time.Duration
	// DeltaSize is |ΔG| replayed by the last incremental refresh.
	DeltaSize int
}

// Materialized records one materialized view: its group table and the size
// of its encoding in the paper's G+ model.
type Materialized struct {
	Data    *Data
	Triples int           // triples of the view's encoding (see Encode)
	Bytes   int64         // estimated encoding bytes
	Elapsed time.Duration // total materialization time
	Maint   Maintenance   // maintenance mode and last-refresh bookkeeping

	// baseVersion is the base graph's version at (re)materialization time,
	// used for staleness detection (see Catalog.Stale).
	baseVersion int64

	nodesOnce sync.Once
	nodes     int
}

// Nodes returns the number of distinct nodes in the view's encoding. It is an
// O(|view|) pass that only reports read, so it runs on first use instead of
// on every commit — an incremental refresh does no per-group work for it.
func (m *Materialized) Nodes() int {
	m.nodesOnce.Do(func() { m.nodes = ComputeStats(m.Data).Nodes })
	return m.nodes
}

// View is a convenience accessor.
func (m *Materialized) View() facet.View { return m.Data.View }

// BaseVersion returns the base graph's version at the view's last
// (re)materialization — the anchor for measuring staleness distance
// (current graph version minus BaseVersion) in stats and metrics.
func (m *Materialized) BaseVersion() int64 { return m.baseVersion }

// Catalog manages the materialized views of one facet over the base graph
// G. Each view is a group table (Materialized.Data); the paper's expanded
// graph G+ = G ∪ V is a logical model whose view graph V is derived from the
// tables on demand (ViewGraph) and never maintained. It implements the
// offline module's materialization half.
type Catalog struct {
	facet   *facet.Facet
	base    *store.Graph
	baseEng *engine.Engine
	engOpts engine.Options // options the engines were built with
	mats    map[facet.Mask]*Materialized

	// memoV is the last view graph ViewGraph built, valid while the
	// committed records it was built from are still the catalog's.
	memoMu sync.Mutex
	memoV  *viewGraph

	// generation counts committed catalog mutations: base-graph inserts and
	// deletes, materializations, drops, resets, and refreshes. Two reads that
	// observe the same generation observed the same catalog state, so the
	// counter is the invalidation key for any result cache layered on top
	// (see internal/server). Atomic so monitoring reads never race writers.
	generation atomic.Int64

	// log retains the effective deltas of committed update batches so stale
	// views can refresh by replaying exactly the batches they missed — the
	// O(|ΔG|) maintenance path of incremental.go.
	log deltaLog

	// maintMode is the facet's maintainability classification, fixed at
	// catalog construction (it depends only on the facet's pattern and
	// aggregate).
	maintMode MaintenanceMode

	// noIncremental forces every refresh down the full-recompute path;
	// benchmarks and ablations flip it via SetIncrementalMaintenance.
	noIncremental bool

	// staleMemo caches the stale-view scan for one (generation, base
	// version) state — see Catalog.staleNow.
	staleMemo atomic.Pointer[staleState]
}

// NewCatalog returns a catalog over base with no views: G+ = G.
func NewCatalog(base *store.Graph, f *facet.Facet) *Catalog {
	return NewCatalogWithOptions(base, f, engine.Options{})
}

// NewCatalogWithOptions is NewCatalog with explicit engine options, so a
// caller can bound (or disable) parallel query execution on both the base
// and view-graph engines.
func NewCatalogWithOptions(base *store.Graph, f *facet.Facet, opts engine.Options) *Catalog {
	return &Catalog{
		facet:     f,
		base:      base,
		baseEng:   engine.NewWithOptions(base, opts),
		engOpts:   opts,
		mats:      make(map[facet.Mask]*Materialized),
		maintMode: maintenanceMode(f),
	}
}

// Fork returns a writable copy-on-write successor of the catalog for MVCC
// commit chains: G is forked (immutable runs and dictionary shared, delta
// overlay copied), the materialization records are carried by
// pointer — they are immutable once committed and replaced wholesale on
// refresh, which also preserves the pointer-identity stale-plan check in
// CommitRefresh across the fork — and the delta log is copied so the fork's
// maintenance window evolves independently. The receiver must be treated as
// frozen once published; all further mutation happens on the fork.
func (c *Catalog) Fork() *Catalog {
	nb := c.base.Fork()
	nc := &Catalog{
		facet:         c.facet,
		base:          nb,
		baseEng:       engine.NewWithOptions(nb, c.engOpts),
		engOpts:       c.engOpts,
		mats:          make(map[facet.Mask]*Materialized, len(c.mats)),
		log:           c.log.fork(),
		maintMode:     c.maintMode,
		noIncremental: c.noIncremental,
	}
	maps.Copy(nc.mats, c.mats)
	nc.generation.Store(c.generation.Load())
	return nc
}

// Facet returns the catalog's facet.
func (c *Catalog) Facet() *facet.Facet { return c.facet }

// Generation returns the catalog mutation counter. It increases on every
// committed change that can alter a query answer — ApplyUpdate,
// CommitMaterialize, CommitRefresh, Drop, Reset — and never repeats within
// one catalog's lifetime, so (query, generation) identifies a unique answer.
func (c *Catalog) Generation() int64 { return c.generation.Load() }

// bump records one committed mutation.
func (c *Catalog) bump() { c.generation.Add(1) }

// ViewSetHash returns an order-independent hash of the materialized view
// set. Unlike Generation it is stable across mutations that do not change
// which views are materialized, letting caches distinguish "same views,
// newer data" from "different views". Callers must not race it with
// catalog mutations.
func (c *Catalog) ViewSetHash() uint64 {
	ids := make([]string, 0, len(c.mats))
	for _, m := range c.mats {
		ids = append(ids, m.Data.View.ID())
	}
	sort.Strings(ids)
	h := fnv.New64a()
	for _, id := range ids {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// EngineOptions returns the options the catalog's engines were built with.
func (c *Catalog) EngineOptions() engine.Options { return c.engOpts }

// Base returns the original graph G.
func (c *Catalog) Base() *store.Graph { return c.base }

// viewGraph is V built from a set of committed records, with its engine.
type viewGraph struct {
	mats []*Materialized // the records V encodes, in mask order
	g    *store.Graph
	eng  *engine.Engine
}

// ViewGraph returns the view graph V: the encodings of the materialized
// views and nothing else, so that G+ is the logical union of Base and
// ViewGraph. V is derived state: no answer, refresh or restore reads it. It
// is built from Encode of the committed records on first use and memoized
// until a commit replaces a record. Callers must not mutate it, nor race it
// with catalog mutations.
func (c *Catalog) ViewGraph() *store.Graph { return c.viewGraph().g }

// ExpandedEngine returns an engine over the on-demand view graph V, the
// graph the paper's rewritten star-join queries read (see ViewGraph).
func (c *Catalog) ExpandedEngine() *engine.Engine { return c.viewGraph().eng }

// viewGraph returns the memoized V, rebuilding it when the records moved.
// Committed records always match their view's arity and encode to valid
// triples, so a build error is a broken invariant.
func (c *Catalog) viewGraph() *viewGraph {
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	mats := c.Materialized()
	if m := c.memoV; m != nil && slices.Equal(m.mats, mats) {
		return m
	}
	var triples []rdf.Triple
	for _, m := range mats {
		ts, err := Encode(m.Data)
		if err != nil {
			panic(err)
		}
		triples = append(triples, ts...)
	}
	g, err := store.BuildFrom(triples)
	if err != nil {
		panic(fmt.Errorf("views: building V: %w", err))
	}
	c.memoV = &viewGraph{mats: mats, g: g, eng: engine.NewWithOptions(g, c.engOpts)}
	return c.memoV
}

// BaseEngine returns an engine over G.
func (c *Catalog) BaseEngine() *engine.Engine { return c.baseEng }

// Has reports whether the view is materialized.
func (c *Catalog) Has(m facet.Mask) bool {
	_, ok := c.mats[m]
	return ok
}

// Get returns the materialization record of a view, if present.
func (c *Catalog) Get(m facet.Mask) (*Materialized, bool) {
	mat, ok := c.mats[m]
	return mat, ok
}

// Materialized returns all materialized views ordered by mask.
func (c *Catalog) Materialized() []*Materialized {
	out := make([]*Materialized, 0, len(c.mats))
	for _, m := range c.mats {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Data.View.Mask < out[j].Data.View.Mask
	})
	return out
}

// MaterializedViews returns the views currently materialized, by mask order.
func (c *Catalog) MaterializedViews() []facet.View {
	mats := c.Materialized()
	out := make([]facet.View, len(mats))
	for i, m := range mats {
		out[i] = m.Data.View
	}
	return out
}

// bestSource picks the cheapest way to compute v: among the materialized
// views and a batch's planned ones (nil entries are skipped), the strict
// ancestor with the fewest groups (roll-up), or nil to compute from base.
func (c *Catalog) bestSource(v facet.View, planned []*Materialized) *Materialized {
	var best *Materialized
	consider := func(m *Materialized) {
		if m == nil || m.Data.View.Mask == v.Mask || !m.Data.View.Covers(v) {
			return
		}
		if best == nil || m.Data.NumGroups() < best.Data.NumGroups() {
			best = m
		}
	}
	for _, m := range c.mats {
		consider(m)
	}
	for _, m := range planned {
		consider(m)
	}
	return best
}

// Materialize computes the view (rolling up from a materialized ancestor
// when possible) and records its group table: PlanMaterialize and
// CommitMaterialize for one view. Re-materializing an existing view is a
// no-op returning the existing record.
func (c *Catalog) Materialize(v facet.View) (*Materialized, error) {
	plan, err := c.PlanMaterialize([]facet.View{v}, 1)
	if err != nil {
		return nil, err
	}
	if _, err := c.CommitMaterialize(plan); err != nil {
		return nil, err
	}
	return c.mats[v.Mask], nil
}

// materializeData records computed view contents. baseVersion is the base
// graph version the contents reflect, which lags c.base.Version() when the
// base advanced after the compute phase (see CommitMaterialize) or when the
// data rolled up from a stale ancestor.
func (c *Catalog) materializeData(data *Data, start time.Time, baseVersion int64) *Materialized {
	if m, ok := c.mats[data.View.Mask]; ok {
		return m
	}
	triples, bytes := encodingSize(data)
	m := &Materialized{
		Data:        data,
		Triples:     triples,
		Bytes:       bytes,
		Elapsed:     time.Since(start),
		Maint:       Maintenance{Mode: c.maintMode.String(), LastPath: "initial"},
		baseVersion: baseVersion,
	}
	c.mats[data.View.Mask] = m
	c.bump()
	return m
}

// groupEncoder renders groups of one view as their G+ encoding, with the
// per-view constant terms resolved once. Encode renders through it and the
// catalog's size accounting counts through it, so the two cannot drift.
type groupEncoder struct {
	view    facet.View
	dims    []string
	dimPs   []rdf.Term
	viewIRI rdf.Term
	inView  rdf.Term
	aggP    rdf.Term
	sumP    rdf.Term
	countP  rdf.Term
	isAvg   bool
	// anyLabel is one group's blank node; every label of the view has its
	// length, which is all the byte accounting reads of a subject.
	anyLabel rdf.Term
}

func newGroupEncoder(v facet.View) *groupEncoder {
	e := &groupEncoder{
		view:    v,
		dims:    v.Dims(),
		viewIRI: rdf.NewIRI(v.IRI()),
		inView:  rdf.NewIRI(PredInView),
		aggP:    rdf.NewIRI(PredAgg),
		sumP:    rdf.NewIRI(PredSum),
		countP:  rdf.NewIRI(PredCount),
		isAvg:   v.Facet.Agg == sparql.AggAvg,
	}
	for _, d := range e.dims {
		e.dimPs = append(e.dimPs, rdf.NewIRI(DimPredicate(d)))
	}
	e.anyLabel = rdf.NewBlank(e.groupLabel(nil))
	return e
}

// groupLabel derives the group's blank-node label from its key content, so
// a group keeps its blank node across refreshes while its key survives and
// V built at any point encodes it the same way. The label is a 128-bit FNV
// of the canonical key bytes — collisions would merge two groups'
// encodings, so the hash is sized to make them negligible.
func (e *groupEncoder) groupLabel(key []algebra.Value) string {
	var kb []byte
	for _, kv := range key {
		kb = appendKeyValue(kb, kv)
	}
	h := fnv.New128a()
	h.Write(kb)
	var buf [16]byte
	return "g_" + e.view.Facet.Name + "_" + e.view.ID() + "_" + hex.EncodeToString(h.Sum(buf[:0]))
}

// appendKeyValue appends a group-key value's canonical bytes to b: a key's
// values in order are the input of its stable blank-node label, and the
// identity RollUp groups by. Values that compareValues orders as equal
// render identically.
func appendKeyValue(b []byte, kv algebra.Value) []byte {
	if !kv.Bound {
		return append(b, 0xfe)
	}
	b = append(b, byte(kv.Term.Kind))
	b = append(append(b, kv.Term.Value...), 0)
	b = append(append(b, kv.Term.Datatype...), 0)
	return append(append(b, kv.Term.Lang...), 0)
}

// encode renders one group's triples.
func (e *groupEncoder) encode(g Group) ([]rdf.Triple, error) {
	if len(g.Key) != len(e.dims) {
		return nil, fmt.Errorf("views: group of %s has %d key values for %d dims", e.view, len(g.Key), len(e.dims))
	}
	b := rdf.NewBlank(e.groupLabel(g.Key))
	out := make([]rdf.Triple, 0, 4+len(e.dims))
	out = append(out, rdf.Triple{S: b, P: e.inView, O: e.viewIRI})
	for j, kv := range g.Key {
		if !kv.Bound {
			continue
		}
		out = append(out, rdf.Triple{S: b, P: e.dimPs[j], O: kv.Term})
	}
	if g.Agg.Bound {
		out = append(out, rdf.Triple{S: b, P: e.aggP, O: g.Agg.Term})
	}
	if e.isAvg {
		out = append(out, rdf.Triple{S: b, P: e.sumP, O: algebra.FormatFloat(g.Sum)})
		out = append(out, rdf.Triple{S: b, P: e.countP, O: algebra.FormatFloat(g.Count)})
	}
	return out, nil
}

// size counts the triples encode renders for g and their bytes under
// tripleBytes, without building them.
func (e *groupEncoder) size(g Group) (int, int64) {
	triple := func(p, o rdf.Term) int64 { return tripleBytes(rdf.Triple{S: e.anyLabel, P: p, O: o}) }
	n, bytes := 1, triple(e.inView, e.viewIRI)
	for j, kv := range g.Key {
		if kv.Bound {
			n++
			bytes += triple(e.dimPs[j], kv.Term)
		}
	}
	if g.Agg.Bound {
		n++
		bytes += triple(e.aggP, g.Agg.Term)
	}
	if e.isAvg {
		n += 2
		bytes += triple(e.sumP, algebra.FormatFloat(g.Sum)) + triple(e.countP, algebra.FormatFloat(g.Count))
	}
	return n, bytes
}

// Encode renders view data as the blank-node RDF encoding added to G+:
//
//	_:g  sofos:inView   <view IRI> .
//	_:g  sofos:d_<dim>  <dimension value> .   (per bound dimension)
//	_:g  sofos:agg      "<aggregate>" .
//	_:g  sofos:aggSum / sofos:aggCount ...    (AVG facets only)
//
// Group blank-node labels are content-keyed (see groupEncoder.groupLabel),
// so a group's encoding is stable across refreshes while its key survives.
func Encode(data *Data) ([]rdf.Triple, error) {
	e := newGroupEncoder(data.View)
	var out []rdf.Triple
	var err error
	i := 0
	data.Each(func(g Group) bool {
		var ts []rdf.Triple
		if ts, err = e.encode(g); err != nil {
			err = fmt.Errorf("views: group %d: %w", i, err)
			return false
		}
		out = append(out, ts...)
		i++
		return true
	})
	return out, err
}

// tripleBytes estimates the stored size of one encoded triple, the unit the
// catalog's Bytes accounting uses.
func tripleBytes(t rdf.Triple) int64 {
	return int64(len(t.S.Value) + len(t.P.Value) + len(t.O.Value) + len(t.O.Datatype) + 12)
}

// encodingSize counts the triples Encode renders for data and their bytes
// under tripleBytes, without building them.
func encodingSize(data *Data) (triples int, bytes int64) {
	e := newGroupEncoder(data.View)
	data.Each(func(g Group) bool {
		n, b := e.size(g)
		triples += n
		bytes += b
		return true
	})
	return triples, bytes
}

// Drop removes a materialized view, reporting whether it was present.
func (c *Catalog) Drop(v facet.View) bool {
	if _, ok := c.mats[v.Mask]; !ok {
		return false
	}
	delete(c.mats, v.Mask)
	c.bump()
	return true
}

// Reset drops every materialized view, so that G+ equals G.
func (c *Catalog) Reset() {
	for _, m := range c.Materialized() {
		c.Drop(m.Data.View)
	}
}

// StorageAmplification is |G+| / |G| = (|G| + |V|) / |G| in triples, the
// quantity panel ③ of the demo contrasts against query time.
func (c *Catalog) StorageAmplification() float64 {
	if c.base.Len() == 0 {
		return 1
	}
	return float64(c.base.Len()+c.AddedTriples()) / float64(c.base.Len())
}

// AddedTriples is |V|, the total number of materialized view triples: the
// sum of the records' encoding sizes, so V need not exist to be counted.
func (c *Catalog) AddedTriples() int {
	n := 0
	for _, m := range c.mats {
		n += m.Triples
	}
	return n
}
