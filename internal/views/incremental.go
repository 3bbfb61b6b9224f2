package views

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"sofos/internal/algebra"
	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

// Incremental delta maintenance: the O(|ΔG|) refresh path.
//
// A committed update batch's effective delta (store.Delta, captured by
// Graph.Apply) is retained in a per-catalog log. When stale views refresh,
// instead of re-evaluating their defining queries over the whole base graph,
// the catalog evaluates the facet pattern *on the delta only* — the classic
// delta-join: every (delta triple, triple pattern) pair that unifies seeds
// the remaining pattern, substituted, against the graph, so the work is
// proportional to the data incident to ΔG, never to |G|. All views of the
// facet share that pattern and differ only in their group key, so the join
// runs once per staleness window (deltaJoin, seeds split across the
// workers), keyed on every facet dimension, and each view stale since that
// version projects the rows onto its own dimensions (project). The gained
// and lost solutions become per-group deltas applied in place to each
// view's stored Data: COUNT/SUM adjust directly, AVG adjusts through its
// stored (Sum, Count) companions, MIN/MAX merge insert-side candidates and
// fall back to a full recompute exactly when a delete touches a group's
// stored extremum. Per-group contribution counts (Group.N) decide group
// births and deaths.
//
// Insert-side solutions are those of G_new that use at least one inserted
// triple, evaluated directly against the current base graph. Delete-side
// solutions are those of G_old that use at least one deleted triple; they are
// enumerated against the overlay G_new ∪ Δ⁻ (store.Graph.OverlayWith — shares
// the sorted runs, costs O(|Δ|)) and filtered to groundings that avoid Δ⁺,
// which is exactly membership in G_old = (G_new ∖ Δ⁺) ∪ Δ⁻.

// MaintenanceMode classifies how a facet's materialized views can be kept
// consistent under base-graph updates.
type MaintenanceMode int

const (
	// MaintainRecompute: the defining pattern or aggregate admits no delta
	// application (OPTIONAL/UNION/FILTER/VALUES patterns, unknown
	// aggregates); every refresh recomputes from the base graph.
	MaintainRecompute MaintenanceMode = iota
	// MaintainInserts: self-maintainable under insertion only (MIN/MAX).
	// Deletes still apply incrementally unless one touches a group's stored
	// extremum, which forces a full recompute of the view.
	MaintainInserts
	// MaintainBoth: self-maintainable under insertion and deletion —
	// COUNT, SUM, and AVG via the stored (Sum, Count) companions.
	MaintainBoth
)

// String renders the classification as /stats reports it.
func (m MaintenanceMode) String() string {
	switch m {
	case MaintainBoth:
		return "self-maintainable-both"
	case MaintainInserts:
		return "self-maintainable-insert"
	default:
		return "recompute-only"
	}
}

// maintenanceMode classifies a facet. The seeded delta evaluation
// substitutes bindings into a plain basic graph pattern; filters, optionals,
// unions and inline data would need substitution into expression trees and
// left-join deltas, so such facets stay on the recompute path. (Facet
// aggregates are never COUNT DISTINCT — the facet fragment has no distinct
// flag — so COUNT here is always the retractable plain count.)
func maintenanceMode(f *facet.Facet) MaintenanceMode {
	p := &f.Pattern
	if len(p.Optionals) > 0 || len(p.Unions) > 0 || len(p.Filters) > 0 || len(p.Values) > 0 {
		return MaintainRecompute
	}
	switch f.Agg {
	case sparql.AggCount, sparql.AggSum, sparql.AggAvg:
		return MaintainBoth
	case sparql.AggMin, sparql.AggMax:
		return MaintainInserts
	default:
		return MaintainRecompute
	}
}

// MaintenanceMode returns the catalog facet's maintainability classification.
func (c *Catalog) MaintenanceMode() MaintenanceMode { return c.maintMode }

// SetIncrementalMaintenance enables or disables the incremental refresh
// path (enabled by default). Disabling forces every refresh down the full
// recompute path; benchmarks use it as the ablation baseline.
// Callers must not race it with refreshes.
func (c *Catalog) SetIncrementalMaintenance(enabled bool) { c.noIncremental = !enabled }

// --- delta log ---

// maxDeltaLogTriples caps the retained log. Beyond it the oldest segments
// are dropped and views older than the remaining window fall back to a full
// recompute — at that delta size the seeded joins stop being cheaper anyway.
const maxDeltaLogTriples = 1 << 16

// deltaLog retains the effective deltas of committed update batches, each
// tagged with the base-version interval it spans. Contiguous segments
// chained end to end reconstruct ΔG between any retained version and the
// present, which is exactly what a stale view needs to refresh by replay.
type deltaLog struct {
	segs    []store.Delta
	triples int
}

// record appends one committed batch. A gap in the version chain means a
// mutation bypassed delta capture (e.g. a direct base-graph write), so
// nothing older than the new batch can be replayed and the log restarts.
func (l *deltaLog) record(d store.Delta) {
	if d.FromVersion == d.ToVersion {
		return // nothing moved; no segment needed
	}
	if n := len(l.segs); n > 0 && l.segs[n-1].ToVersion != d.FromVersion {
		l.segs, l.triples = nil, 0
	}
	l.segs = append(l.segs, d)
	l.triples += d.Len()
}

// fork returns an independent copy of the log for a forked catalog. The
// segment slice is copied; the Delta values inside are immutable after
// record (refreshes only read them), so their triple slices are shared.
func (l *deltaLog) fork() deltaLog {
	return deltaLog{segs: append([]store.Delta(nil), l.segs...), triples: l.triples}
}

// prune drops segments no materialized view needs anymore (ToVersion ≤
// minVersion) and enforces the size cap from the oldest end.
func (l *deltaLog) prune(minVersion int64) {
	i := 0
	for i < len(l.segs) && l.segs[i].ToVersion <= minVersion {
		l.triples -= l.segs[i].Len()
		i++
	}
	for i < len(l.segs) && l.triples > maxDeltaLogTriples {
		l.triples -= l.segs[i].Len()
		i++
	}
	if i > 0 {
		l.segs = append([]store.Delta(nil), l.segs[i:]...)
	}
}

// since returns the net ΔG between base versions from and to, coalescing
// insert-then-delete (and delete-then-reinsert) pairs across batches, in
// first-touch order so replay is deterministic. ok is false when the log
// does not cover the interval — the caller then recomputes in full.
func (l *deltaLog) since(from, to int64) (ins, del []rdf.Triple, ok bool) {
	if from == to {
		return nil, nil, true
	}
	start := -1
	for i := range l.segs {
		if l.segs[i].FromVersion == from {
			start = i
			break
		}
	}
	if start < 0 || l.segs[len(l.segs)-1].ToVersion != to {
		return nil, nil, false
	}
	sign := make(map[rdf.Triple]int8)
	var order []rdf.Triple
	for _, s := range l.segs[start:] {
		for _, t := range s.Inserted {
			if v, seen := sign[t]; seen {
				if v == -1 {
					sign[t] = 0 // deleted earlier in the window: net unchanged
				} else {
					sign[t] = 1
				}
			} else {
				sign[t] = 1
				order = append(order, t)
			}
		}
		for _, t := range s.Deleted {
			if v, seen := sign[t]; seen {
				if v == 1 {
					sign[t] = 0 // inserted earlier in the window: net unchanged
				} else {
					sign[t] = -1
				}
			} else {
				sign[t] = -1
				order = append(order, t)
			}
		}
	}
	for _, t := range order {
		switch sign[t] {
		case 1:
			ins = append(ins, t)
		case -1:
			del = append(del, t)
		}
	}
	return ins, del, true
}

// --- delta-join evaluation ---

// deltaRow is one solution of the facet pattern gained or lost by the
// replayed delta, projected to what maintenance needs: the group key over
// the facet's dimensions (a view's key is a projection of it, see project),
// the measure value, and the grounded pattern triples (for the delete-side
// G_old membership filter). key is the canonical full variable binding the
// seeded enumeration dedupes on — one solution may be discovered from
// several delta seeds.
type deltaRow struct {
	key     string
	dims    []algebra.Value
	measure algebra.Value
	ground  []rdf.Triple
}

// unify matches a delta triple against one triple pattern, returning the
// variable bindings (consistent across repeated variables) or false. The
// pattern's constants are checked first, so the common miss — a delta triple
// with another predicate — allocates nothing.
func unify(tp sparql.TriplePattern, t rdf.Triple) (map[string]rdf.Term, bool) {
	if (!tp.S.IsVar && tp.S.Term != t.S) || (!tp.P.IsVar && tp.P.Term != t.P) || (!tp.O.IsVar && tp.O.Term != t.O) {
		return nil, false
	}
	theta := make(map[string]rdf.Term, 3)
	bind := func(pt sparql.PatternTerm, term rdf.Term) bool {
		if !pt.IsVar {
			return pt.Term == term
		}
		if prev, ok := theta[pt.Var]; ok {
			return prev == term
		}
		theta[pt.Var] = term
		return true
	}
	if !bind(tp.S, t.S) || !bind(tp.P, t.P) || !bind(tp.O, t.O) {
		return nil, false
	}
	return theta, true
}

// substitutePattern replaces bound variables with constants.
func substitutePattern(tp sparql.TriplePattern, theta map[string]rdf.Term) sparql.TriplePattern {
	sub := func(pt sparql.PatternTerm) sparql.PatternTerm {
		if pt.IsVar {
			if t, ok := theta[pt.Var]; ok {
				return sparql.Constant(t)
			}
		}
		return pt
	}
	return sparql.TriplePattern{S: sub(tp.S), P: sub(tp.P), O: sub(tp.O)}
}

// seedSolutions evaluates the pattern with the seed's bindings substituted:
// the remaining triple patterns run against eng's graph and each solution is
// returned as a full variable binding (theta plus the solved free variables).
func seedSolutions(eng *engine.Engine, pats []sparql.TriplePattern, seedIdx int, theta map[string]rdf.Term) ([]map[string]rdf.Term, error) {
	rest := make([]sparql.TriplePattern, 0, len(pats)-1)
	seen := make(map[string]bool)
	var free []string
	for j, tp := range pats {
		if j == seedIdx {
			continue
		}
		stp := substitutePattern(tp, theta)
		rest = append(rest, stp)
		for _, v := range stp.Vars() {
			if !seen[v] {
				seen[v] = true
				free = append(free, v)
			}
		}
	}
	if len(free) == 0 {
		// Fully ground remainder: the solution exists iff every grounded
		// pattern is present.
		for _, tp := range rest {
			if !eng.Graph().Contains(rdf.Triple{S: tp.S.Term, P: tp.P.Term, O: tp.O.Term}) {
				return nil, nil
			}
		}
		b := make(map[string]rdf.Term, len(theta))
		for k, v := range theta {
			b[k] = v
		}
		return []map[string]rdf.Term{b}, nil
	}
	q := &sparql.Query{Where: sparql.GroupPattern{Triples: rest}, Limit: -1}
	for _, v := range free {
		q.Select = append(q.Select, sparql.SelectItem{Var: v})
	}
	res, err := eng.Execute(q)
	if err != nil {
		return nil, err
	}
	out := make([]map[string]rdf.Term, 0, len(res.Rows))
	for _, row := range res.Rows {
		b := make(map[string]rdf.Term, len(theta)+len(free))
		for k, v := range theta {
			b[k] = v
		}
		complete := true
		for ci, v := range free {
			if !row[ci].Bound {
				complete = false // unreachable for BGPs; defensive
				break
			}
			b[v] = row[ci].Term
		}
		if complete {
			out = append(out, b)
		}
	}
	return out, nil
}

// bindingKey canonicalizes a full binding over the pattern's variables.
func bindingKey(vars []string, b map[string]rdf.Term) string {
	var sb strings.Builder
	for _, v := range vars {
		t := b[v]
		sb.WriteByte(byte(t.Kind))
		sb.WriteString(t.Value)
		sb.WriteByte(0)
		sb.WriteString(t.Datatype)
		sb.WriteByte(0)
		sb.WriteString(t.Lang)
		sb.WriteByte(0)
	}
	return sb.String()
}

// groundTriple instantiates one pattern under a full binding.
func groundTriple(tp sparql.TriplePattern, b map[string]rdf.Term) rdf.Triple {
	g := func(pt sparql.PatternTerm) rdf.Term {
		if pt.IsVar {
			return b[pt.Var]
		}
		return pt.Term
	}
	return rdf.Triple{S: g(tp.S), P: g(tp.P), O: g(tp.O)}
}

// deltaSolutions enumerates the solutions of the facet pattern that use at
// least one delta triple, deduplicated on the full binding, with dims keyed
// on every facet dimension: for every (delta triple, pattern) pair that
// unifies, the substituted remainder runs against eng's graph. Cost is
// proportional to the data incident to the delta, never to |G|.
//
// The delta is cut into up to workers contiguous chunks enumerated
// concurrently, each serially with its own dedup, and the chunks are merged
// in chunk order keeping each solution's first occurrence. That is exactly
// the serial row sequence at any worker count, which keeps SUM/AVG float
// accumulation order and MIN/MAX tie handling — and so the view contents —
// independent of the split. eng must be safe for concurrent Execute.
func deltaSolutions(eng *engine.Engine, f *facet.Facet, delta []rdf.Triple, workers int) ([]deltaRow, error) {
	n := min(workers, len(delta))
	if n <= 1 {
		return seededRows(eng, f, delta)
	}
	chunks := make([][]deltaRow, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer store.Recover(&errs[w])
			chunks[w], errs[w] = seededRows(eng, f, delta[w*len(delta)/n:(w+1)*len(delta)/n])
		}()
	}
	wg.Wait()
	store.Repanic(errs...)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	seen := make(map[string]bool)
	var out []deltaRow
	for _, rows := range chunks {
		for _, r := range rows {
			if !seen[r.key] {
				seen[r.key] = true
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// seededRows is deltaSolutions' serial enumeration of one delta chunk.
func seededRows(eng *engine.Engine, f *facet.Facet, delta []rdf.Triple) ([]deltaRow, error) {
	pats := f.Pattern.Triples
	allVars := f.Pattern.Vars()
	dedup := make(map[string]bool)
	var out []deltaRow
	for _, dt := range delta {
		for i, tp := range pats {
			theta, ok := unify(tp, dt)
			if !ok {
				continue
			}
			sols, err := seedSolutions(eng, pats, i, theta)
			if err != nil {
				return nil, err
			}
			for _, b := range sols {
				key := bindingKey(allVars, b)
				if dedup[key] {
					continue
				}
				dedup[key] = true
				r := deltaRow{key: key}
				for _, d := range f.Dims {
					r.dims = append(r.dims, algebra.Bind(b[d]))
				}
				if f.Measure != "" {
					if t, ok := b[f.Measure]; ok {
						r.measure = algebra.Bind(t)
					}
				}
				for _, p := range pats {
					r.ground = append(r.ground, groundTriple(p, b))
				}
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// --- group delta application ---

// groupDelta accumulates one group's gained and lost measure values, one per
// gained or lost solution.
type groupDelta struct {
	key      []algebra.Value
	ins, del []algebra.Value
}

// groupDeltas folds the gained and lost solutions into one delta per group,
// sorted by key — the order a groupTable update walks in. The sort is stable
// over the inserts followed by the deletes, so each group sees its measure
// values in solution order.
func groupDeltas(insRows, delRows []deltaRow) []groupDelta {
	type signedRow struct {
		row    *deltaRow
		insert bool
	}
	rows := make([]signedRow, 0, len(insRows)+len(delRows))
	for i := range insRows {
		rows = append(rows, signedRow{&insRows[i], true})
	}
	for i := range delRows {
		rows = append(rows, signedRow{&delRows[i], false})
	}
	slices.SortStableFunc(rows, func(a, b signedRow) int { return compareKeys(a.row.dims, b.row.dims) })
	var out []groupDelta
	for _, r := range rows {
		if n := len(out); n == 0 || compareKeys(out[n-1].key, r.row.dims) != 0 {
			out = append(out, groupDelta{key: r.row.dims})
		}
		d := &out[len(out)-1]
		if r.insert {
			d.ins = append(d.ins, r.row.measure)
		} else {
			d.del = append(d.del, r.row.measure)
		}
	}
	return out
}

// applyDelta folds one group's delta into its stored aggregate state,
// reporting false when exact application is impossible (poisoned group,
// non-numeric measure, MIN/MAX extremum deletion, ambiguous MIN/MAX tie) —
// the caller then falls back to a full recompute of the view. The
// arithmetic goes through the algebra retraction entry points so the two
// layers cannot drift: COUNT merges through algebra.MergeDelta, SUM seeds a
// Retractor accumulator with the stored total and Adds/Unadds the delta
// values, and AVG adjusts its stored (Sum, Count) companions — the exact
// case MergeDelta's contract delegates to the companions.
func applyDelta(agg sparql.AggKind, g Group, d *groupDelta, existing bool) (Group, bool) {
	g.N += int64(len(d.ins) - len(d.del))
	num := func(v algebra.Value) (float64, bool) {
		if !v.Bound {
			return 0, false
		}
		return algebra.NumericValue(v.Term)
	}
	switch agg {
	case sparql.AggCount:
		cur := rdf.NewInteger(0)
		if g.Agg.Bound {
			cur = g.Agg.Term
		} else if existing {
			return g, false // COUNT results are always bound; state is inconsistent
		}
		// Counts are integral, so MergeDelta's FormatFloat output is exactly
		// the accumulator's NewInteger rendering.
		cur, err := algebra.MergeDelta(agg, cur, rdf.NewInteger(int64(len(d.ins))), false)
		if err != nil {
			return g, false
		}
		cur, err = algebra.MergeDelta(agg, cur, rdf.NewInteger(int64(len(d.del))), true)
		if err != nil {
			return g, false
		}
		if f, ok := algebra.NumericValue(cur); !ok || f < 0 {
			return g, false
		}
		g.Agg = algebra.Bind(cur)
	case sparql.AggSum:
		if existing && !g.Agg.Bound {
			return g, false // poisoned by a non-numeric measure: not maintainable
		}
		// Seed a retractable accumulator with the stored total, then replay
		// the delta: adds for gained rows, retractions for lost ones. A
		// non-numeric value poisons the accumulator (unbound result), which
		// reports as non-maintainable below.
		acc := algebra.NewAccumulator(sparql.SelectItem{Var: facet.AggAlias, Agg: agg, AggVar: "v"}).(algebra.Retractor)
		if g.Agg.Bound {
			acc.Add(g.Agg)
		}
		for _, v := range d.ins {
			acc.Add(v)
		}
		for _, v := range d.del {
			acc.Unadd(v)
		}
		res := acc.Result()
		if !res.Bound {
			return g, false
		}
		g.Agg = res
	case sparql.AggAvg:
		if existing && !g.Agg.Bound {
			return g, false // poisoned (live BGP groups always have Count > 0)
		}
		sum, cnt := g.Sum, g.Count
		for _, v := range d.ins {
			f, ok := num(v)
			if !ok {
				return g, false
			}
			sum += f
			cnt++
		}
		for _, v := range d.del {
			f, ok := num(v)
			if !ok {
				return g, false
			}
			sum -= f
			cnt--
		}
		if cnt < 0 {
			return g, false
		}
		g.Sum, g.Count = sum, cnt
		if cnt > 0 {
			g.Agg = algebra.Bind(algebra.FormatFloat(sum / cnt))
		} else {
			g.Agg = algebra.Unbound
		}
	case sparql.AggMin, sparql.AggMax:
		min := agg == sparql.AggMin
		best := g.Agg
		for _, dv := range d.del {
			if !best.Bound || !dv.Bound {
				return g, false
			}
			cmp := algebra.AggCompare(dv.Term, best.Term)
			// A deleted value at or beyond the stored extremum may *be* the
			// extremum occurrence: only the group's full multiset can tell.
			if (min && cmp <= 0) || (!min && cmp >= 0) {
				return g, false
			}
		}
		for _, iv := range d.ins {
			if !iv.Bound {
				continue // mirror minMaxAcc: unbound inputs are ignored
			}
			if !best.Bound {
				best = iv
				continue
			}
			cmp := algebra.AggCompare(iv.Term, best.Term)
			if cmp == 0 && iv.Term != best.Term {
				// Distinct terms tying under AggCompare: which one a full
				// recompute keeps depends on scan order, so stay bit-exact by
				// recomputing.
				return g, false
			}
			if (min && cmp < 0) || (!min && cmp > 0) {
				best = iv
			}
		}
		g.Agg = best
	default:
		return g, false
	}
	return g, true
}

// applyGroupDeltas applies the gained and lost solutions to the stored view
// contents — births, updates and deaths — producing a successor table that
// shares every chunk no delta touches, plus the change in the encoding's
// triple and byte counts (see groupEncoder.size), counted per changed group.
// ok is false when any group needs a full recompute.
func applyGroupDeltas(v facet.View, mat *Materialized, insRows, delRows []deltaRow) (data *Data, triples int, bytes int64, ok bool) {
	agg := v.Facet.Agg
	enc := newGroupEncoder(v)
	count := func(g Group, sign int) {
		n, b := enc.size(g)
		triples += sign * n
		bytes += int64(sign) * b
	}
	groups, ok := mat.Data.groups.update(groupDeltas(insRows, delRows), func(old *Group, d *groupDelta) (Group, bool, bool) {
		if old == nil {
			if len(d.del) > 0 {
				return Group{}, false, false // deleting from an unknown group: state and log disagree
			}
			// A born group owns its key: a projected key shares its backing
			// array with the rest of the window's rows (see project).
			g, ok := applyDelta(agg, Group{Key: slices.Clone(d.key)}, d, false)
			if ok && g.N > 0 {
				count(g, 1)
			}
			return g, g.N > 0, ok
		}
		g, ok := applyDelta(agg, *old, d, true)
		switch {
		case !ok || g.N < 0:
			return g, false, false
		case g.N == 0 && v.Mask == 0:
			return g, false, false // the apex of no rows: only Compute makes it
		case g.N == 0:
			count(*old, -1)
			return g, false, true
		case g.Agg != old.Agg || g.Sum != old.Sum || g.Count != old.Count:
			count(*old, -1)
			count(g, 1)
		}
		return g, true, true
	})
	if !ok {
		return nil, 0, 0, false
	}
	return &Data{View: v, groups: groups, Source: "incremental"}, triples, bytes, true
}

// --- plan / commit ---

// incrementalPlan is one view's planned delta application, produced on the
// read path (PlanRefresh) and committed under the writer.
type incrementalPlan struct {
	oldMat    *Materialized // the record the deltas were computed against
	data      *Data         // refreshed contents
	triples   int           // change in the encoding's triple count
	bytes     int64         // change in the encoding's byte count
	deltaSize int           // |ΔG| replayed
	toVersion int64         // base version the contents reflect
}

// windowJoin is the facet pattern evaluated once on one staleness window's
// net ΔG: the solutions it gains and loses, keyed on every facet dimension.
// Every view stale since the same base version refreshes from it by
// projection, so a refresh of k views pays for one delta join, not k.
type windowJoin struct {
	ins, del  []deltaRow
	size      int   // |ΔG| replayed
	toVersion int64 // base version the window ends at
}

// deltaJoin evaluates the facet pattern on the net ΔG between base version
// from and the present, splitting the delta's seeds across up to workers
// goroutines (see deltaSolutions). It returns nil (with no error) when the
// window cannot be replayed — recompute-only facet, incremental maintenance
// disabled, or a delta log that does not cover the window — and the caller
// then recomputes in full. Read-only: callers must not run catalog
// mutations concurrently.
func (c *Catalog) deltaJoin(from int64, workers int) (*windowJoin, error) {
	if c.noIncremental || c.maintMode == MaintainRecompute {
		return nil, nil
	}
	to := c.base.Version()
	ins, del, ok := c.log.since(from, to)
	if !ok {
		return nil, nil
	}
	// Seeded joins are selective, so each chunk's queries run serially on
	// one engine the chunks share.
	opts := engine.Options{Workers: 1, NaiveOrder: c.engOpts.NaiveOrder}
	insRows, err := deltaSolutions(engine.NewWithOptions(c.base, opts), c.facet, ins, workers)
	if err != nil {
		return nil, fmt.Errorf("views: delta-evaluating facet %s (inserts): %w", c.facet.Name, err)
	}
	var delRows []deltaRow
	if len(del) > 0 {
		// Delete-side solutions held in G_old: enumerate over G ∪ Δ⁻ and keep
		// groundings that avoid Δ⁺.
		delRows, err = deltaSolutions(engine.NewWithOptions(c.base.OverlayWith(del), opts), c.facet, del, workers)
		if err != nil {
			return nil, fmt.Errorf("views: delta-evaluating facet %s (deletes): %w", c.facet.Name, err)
		}
		if len(ins) > 0 {
			insSet := make(map[rdf.Triple]bool, len(ins))
			for _, t := range ins {
				insSet[t] = true
			}
			kept := delRows[:0]
			for _, r := range delRows {
				usesIns := false
				for _, gt := range r.ground {
					if insSet[gt] {
						usesIns = true
						break
					}
				}
				if !usesIns {
					kept = append(kept, r)
				}
			}
			delRows = kept
		}
	}
	return &windowJoin{ins: insRows, del: delRows, size: len(ins) + len(del), toVersion: to}, nil
}

// project re-keys a window's rows onto the view's dimensions. A view keeps a
// subset of the facet's dimensions in facet order, so its key is the row key
// with the dropped positions left out; the finest view uses the rows as they
// are. The keys share one backing array, each capacity-clipped; a group born
// from one copies it (applyGroupDeltas), so the array dies with the refresh.
func project(rows []deltaRow, v facet.View) []deltaRow {
	if v.Mask == v.Facet.FullMask() {
		return rows
	}
	var idx []int
	for i := range v.Facet.Dims {
		if v.Mask&(1<<i) != 0 {
			idx = append(idx, i)
		}
	}
	n := len(idx)
	var keys []algebra.Value // stays nil for the apex, whose key Compute leaves nil
	if n > 0 {
		keys = make([]algebra.Value, len(rows)*n)
	}
	out := make([]deltaRow, len(rows))
	for i, r := range rows {
		k := keys[i*n : (i+1)*n : (i+1)*n]
		for j, d := range idx {
			k[j] = r.dims[d]
		}
		out[i] = deltaRow{dims: k, measure: r.measure}
	}
	return out
}

// planIncremental applies one window's join to a stale view: the rows are
// projected onto the view's key and folded into its stored groups. It
// returns nil when there is no join for the view's window or application
// hit a fallback condition (MIN/MAX extremum delete, poisoned group,
// non-numeric measure); the caller then recomputes in full. Views of one
// window may run it concurrently: it only reads the join and the record.
func planIncremental(v facet.View, mat *Materialized, j *windowJoin) *incrementalPlan {
	if j == nil {
		return nil
	}
	data, triples, bytes, ok := applyGroupDeltas(v, mat, project(j.ins, v), project(j.del, v))
	if !ok {
		return nil
	}
	return &incrementalPlan{
		oldMat:    mat,
		data:      data,
		triples:   triples,
		bytes:     bytes,
		deltaSize: j.size,
		toVersion: j.toVersion,
	}
}

// commitIncremental swaps a planned delta refresh's record in. It reports
// false (committing nothing) when the view's record changed since planning
// — the view stays stale and the next refresh cycle picks it up — so a
// stale plan can never clobber newer state.
func (c *Catalog) commitIncremental(v facet.View, p *incrementalPlan, start time.Time) bool {
	mat, ok := c.mats[v.Mask]
	if !ok || mat != p.oldMat {
		return false
	}
	p.data.ComputeTime = time.Since(start)
	c.mats[v.Mask] = &Materialized{
		Data:    p.data,
		Triples: mat.Triples + p.triples,
		Bytes:   mat.Bytes + p.bytes,
		Elapsed: time.Since(start),
		Maint: Maintenance{
			Mode:      c.maintMode.String(),
			LastPath:  "incremental",
			LastCost:  time.Since(start),
			DeltaSize: p.deltaSize,
		},
		baseVersion: p.toVersion,
	}
	c.bump()
	return true
}
