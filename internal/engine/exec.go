package engine

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"sofos/internal/algebra"
	"sofos/internal/obs"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

// Query aliases sparql.Query so engine callers need not import both
// packages for the common parse-then-execute flow.
type Query = sparql.Query

// Options tune engine behaviour; the zero value is the production default.
type Options struct {
	// NaiveOrder disables greedy selectivity-based join ordering, executing
	// triple patterns in query text order. Exists for the join-ordering
	// ablation benchmark; results are identical, only performance differs.
	NaiveOrder bool

	// Workers bounds the goroutines used for data-parallel execution of one
	// query: leading-range partitioning (store.Iterator.Split), intermediate
	// row-chunk fan-out, and the parallel aggregation merge. 0 (the default)
	// means runtime.GOMAXPROCS(0); 1 forces fully serial execution. Results
	// are identical at every setting — partitions are contiguous and merged
	// in partition order.
	Workers int

	// Span, when non-zero, parents trace spans recorded during execution:
	// compile, per-worker partitions, and the parallel aggregate merge. The
	// zero handle disables tracing at no cost beyond a nil check.
	Span obs.SpanHandle
}

// EffectiveWorkers resolves Workers: 0 means one worker per logical CPU.
func (o Options) EffectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Engine executes queries against one graph.
type Engine struct {
	graph *store.Graph
	opts  Options
}

// New returns an engine over g with default options.
func New(g *store.Graph) *Engine { return &Engine{graph: g} }

// NewWithOptions returns an engine with explicit options.
func NewWithOptions(g *store.Graph, opts Options) *Engine {
	return &Engine{graph: g, opts: opts}
}

// Graph returns the underlying graph.
func (e *Engine) Graph() *store.Graph { return e.graph }

// ExecStats records work counters for performance analysis; SOFOS's online
// module reports these alongside wall-clock time.
type ExecStats struct {
	PatternScans     int           // triple-pattern index lookups issued
	IntermediateRows int64         // binding rows produced across all joins
	ResultRows       int           // final rows returned
	Workers          int           // configured parallelism for this execution
	Partitions       int           // parallel partitions run (0 = fully serial)
	Elapsed          time.Duration // wall time of Execute
}

// fold accumulates another context's work counters; Elapsed, Workers and
// ResultRows are set once by the caller.
func (s *ExecStats) fold(o *ExecStats) {
	s.PatternScans += o.PatternScans
	s.IntermediateRows += o.IntermediateRows
	s.Partitions += o.Partitions
}

// Result is a solution sequence: named columns over rows of values.
type Result struct {
	Vars  []string
	Rows  [][]algebra.Value
	Stats ExecStats
}

// Execute parses nothing: it runs an already-parsed query.
func (e *Engine) Execute(q *sparql.Query) (*Result, error) {
	start := time.Now()
	execSp := e.opts.Span.Child("engine.execute")
	compileSp := execSp.Child("engine.compile")
	plan, err := compile(e.graph, q, e.opts)
	compileSp.End()
	if err != nil {
		execSp.End()
		return nil, err
	}
	plan.span = execSp
	res, err := e.run(plan)
	if err != nil {
		execSp.End()
		return nil, err
	}
	res.Stats.Elapsed = time.Since(start)
	res.Stats.ResultRows = len(res.Rows)
	execSp.AttrInt("workers", int64(res.Stats.Workers))
	execSp.AttrInt("partitions", int64(res.Stats.Partitions))
	execSp.AttrInt("pattern_scans", int64(res.Stats.PatternScans))
	execSp.AttrInt("intermediate_rows", res.Stats.IntermediateRows)
	execSp.AttrInt("result_rows", int64(res.Stats.ResultRows))
	execSp.End()
	return res, nil
}

// binding is a working row of slot values; NoID means unbound. Aggregate
// and expression evaluation decode IDs through the graph dictionary.
type binding []rdf.ID

// rowArena block-allocates the fixed-width binding rows of one execution,
// replacing one heap allocation per intermediate join row with one per
// chunk. Arenas are per-execution, so parallel workload runs never share.
type rowArena struct {
	width int
	buf   []rdf.ID
}

const arenaChunkRows = 256

// clone copies row into arena-backed storage.
func (a *rowArena) clone(row binding) binding {
	if a.width == 0 {
		return binding{}
	}
	if len(a.buf) < a.width {
		a.buf = make([]rdf.ID, a.width*arenaChunkRows)
	}
	r := binding(a.buf[:a.width:a.width])
	a.buf = a.buf[a.width:]
	copy(r, row)
	return r
}

// execCtx is the per-goroutine execution state: a private row arena plus work
// counters. The serial path uses one; every parallel partition owns its own,
// and the counters are folded into the query's ExecStats after the partitions
// join, so no execution state is ever shared between workers.
type execCtx struct {
	arena rowArena
	stats ExecStats
}

// run executes a compiled plan.
func (e *Engine) run(p *Plan) (*Result, error) {
	q := p.query
	res := &Result{}
	if p.empty {
		res.Vars = projectionVars(q)
		if q.HasAggregates() && len(q.GroupBy) == 0 {
			// Aggregates over an empty solution sequence produce one row
			// (e.g. COUNT = 0).
			row, keep := e.aggregateEmptyRow(q)
			if keep {
				res.Rows = append(res.Rows, row)
			}
		}
		return res, nil
	}

	var rows []binding
	var stats ExecStats
	var err error
	workers := e.opts.EffectiveWorkers()
	stats.Workers = workers
	cap := rowCap(p)
	if len(p.unions) > 0 {
		// Bag union: concatenate the branch solution sequences.
		for i := range p.unions {
			br := &p.unions[i]
			if br.empty {
				continue
			}
			brCap := 0
			if cap > 0 {
				if len(rows) >= cap {
					break
				}
				brCap = cap - len(rows)
			}
			brRows, err := e.runBranch(br, p, brCap, &stats, workers)
			if err != nil {
				return nil, err
			}
			rows = append(rows, brRows...)
		}
	} else {
		branch := p.main
		rows, err = e.runBranch(&branch, p, cap, &stats, workers)
		if err != nil {
			return nil, err
		}
	}

	out, err := e.finish(rows, p, &stats)
	if err != nil {
		return nil, err
	}
	out.Stats = stats
	return out, nil
}

// rowCap returns the maximum number of solution rows worth producing for a
// query, or 0 for unlimited. LIMIT can only terminate the join early when no
// downstream operator (aggregation, DISTINCT, ORDER BY, optional left-joins,
// late filters) could reorder or drop rows.
func rowCap(p *Plan) int {
	q := p.query
	if q.Limit < 0 || q.HasAggregates() || len(q.GroupBy) > 0 ||
		q.Distinct || len(q.OrderBy) > 0 || len(p.main.optionals) > 0 || len(p.main.lateFilter) > 0 {
		return 0
	}
	for i := range p.unions {
		if len(p.unions[i].optionals) > 0 || len(p.unions[i].lateFilter) > 0 {
			return 0
		}
	}
	return q.Limit + q.Offset
}

// runBranch executes one conjunctive branch: required steps, then optional
// left-joins, then late filters. A non-zero cap bounds the produced rows
// (LIMIT pushdown).
//
// With workers > 1 it executes the branch data-parallel: if the leading
// pattern's index range is large it is Split into per-worker sub-ranges and
// the downstream pipeline runs per partition; otherwise steps run serially
// until the intermediate row set is wide enough to chunk across workers.
// Partitions are contiguous and their outputs concatenated in partition
// order, so the rows returned are identical to serial execution.
func (e *Engine) runBranch(br *branchPlan, p *Plan, cap int, stats *ExecStats, workers int) ([]binding, error) {
	ctx := &execCtx{arena: rowArena{width: len(p.vars)}}
	rows := e.seedRows(br, p, ctx)
	steps := br.steps
	for workers > 1 && len(rows) > 0 && len(steps) > 0 {
		if len(rows) >= workers*parallelMinRowsPerWorker {
			stats.fold(&ctx.stats)
			return e.runRowChunks(rows, p, br, steps, cap, stats, workers)
		}
		// Not enough work to fan out yet: advance one step serially and
		// reassess (a selective first pattern often explodes on step two).
		stepCap := 0
		if len(steps) == 1 {
			stepCap = cap
		}
		if len(rows) == 1 {
			it, ok := e.leadingScan(rows[0], steps[0].pat)
			if !ok {
				rows = nil // constant term missing: the pattern cannot match
				break
			}
			ctx.stats.PatternScans++
			if it.Remaining() >= parallelMinScan {
				stats.fold(&ctx.stats)
				return e.runSplitScan(it, rows[0], p, br, steps, cap, stats, workers)
			}
			// Reuse the probe scan for the serial step rather than paying
			// scan setup twice on selective (point-lookup) chains.
			rows = e.runLeadingPartition(it, rows[0], p, steps[0], len(steps) == 1, stepCap, ctx)
		} else {
			var err error
			rows, err = e.runSteps(rows, p, steps[:1], stepCap, ctx)
			if err != nil {
				return nil, err
			}
		}
		steps = steps[1:]
	}
	// The final step may have fanned out wide after the loop's last width
	// check: optional left-joins and late filters are per-row independent, so
	// chunk them too when there is enough work.
	if workers > 1 && len(rows) >= workers*parallelMinRowsPerWorker &&
		(len(br.optionals) > 0 || len(br.lateFilter) > 0) {
		stats.fold(&ctx.stats)
		return e.runRowChunks(rows, p, br, steps, cap, stats, workers)
	}
	rows, err := e.runTail(rows, p, br, steps, cap, ctx)
	stats.fold(&ctx.stats)
	return rows, err
}

// seedRows builds the branch's initial binding rows: the cross product of its
// VALUES clauses, or one empty row when there are none.
func (e *Engine) seedRows(br *branchPlan, p *Plan, ctx *execCtx) []binding {
	rows := []binding{make(binding, len(p.vars))}
	for _, ib := range br.inline {
		var next []binding
		for _, row := range rows {
			for _, id := range ib.ids {
				nr := ctx.arena.clone(row)
				nr[ib.slot] = id
				next = append(next, nr)
			}
		}
		rows = next
	}
	return rows
}

// leadingScan resolves a pattern against one row and opens its range scan,
// reporting false when a constant term is missing from the graph (the pattern
// cannot match, which the serial step handles identically).
func (e *Engine) leadingScan(row binding, cp compiledPattern) (store.Iterator, bool) {
	if cp.s.missing || cp.p.missing || cp.o.missing {
		return store.Iterator{}, false
	}
	resolve := func(ct compiledTerm) rdf.ID {
		if !ct.isVar {
			return ct.id
		}
		return row[ct.slot]
	}
	return e.graph.Scan(resolve(cp.s), resolve(cp.p), resolve(cp.o)), true
}

// runTail finishes a branch pipeline for one partition's rows: the remaining
// steps, then optional left-joins and late filters.
func (e *Engine) runTail(rows []binding, p *Plan, br *branchPlan, steps []step, cap int, ctx *execCtx) ([]binding, error) {
	rows, err := e.runSteps(rows, p, steps, cap, ctx)
	if err != nil {
		return nil, err
	}
	for i := range br.optionals {
		rows, err = e.runOptional(rows, p, &br.optionals[i], ctx)
		if err != nil {
			return nil, err
		}
	}
	if len(br.lateFilter) > 0 {
		kept := rows[:0]
		for _, row := range rows {
			if e.filtersPass(row, p, br.lateFilter) {
				kept = append(kept, row)
			}
		}
		rows = kept
	}
	return rows, nil
}

// runSteps performs the binding-propagation join over the plan steps. A
// non-zero cap stops producing rows on the final step once cap rows exist —
// safe because every filter is attached to some step and nothing downstream
// drops rows when the planner passes a cap (see rowCap).
func (e *Engine) runSteps(rows []binding, p *Plan, steps []step, cap int, ctx *execCtx) ([]binding, error) {
	for si, st := range steps {
		if len(rows) == 0 {
			return rows, nil
		}
		last := si == len(steps)-1
		var next []binding
		// scratch receives each candidate extension; it is only copied into
		// arena storage once the row survives binding and filters, and the
		// Iterator is reused across rows so its delta buffers allocate once.
		scratch := make(binding, len(p.vars))
		var it store.Iterator
		for _, row := range rows {
			if cap > 0 && last && len(next) >= cap {
				break
			}
			ctx.stats.PatternScans++
			e.matchPattern(&it, row, scratch, st.pat, func(extended binding) bool {
				if len(st.filters) == 0 || e.filtersPass(extended, p, st.filters) {
					next = append(next, ctx.arena.clone(extended))
					ctx.stats.IntermediateRows++
				}
				return !(cap > 0 && last && len(next) >= cap)
			})
		}
		rows = next
	}
	return rows, nil
}

// runOptional left-joins each row with the optional block.
func (e *Engine) runOptional(rows []binding, p *Plan, op *optionalPlan, ctx *execCtx) ([]binding, error) {
	var out []binding
	for _, row := range rows {
		matches, err := e.runSteps([]binding{row}, p, op.steps, 0, ctx)
		if err != nil {
			return nil, err
		}
		if len(op.lateFilter) > 0 {
			kept := matches[:0]
			for _, m := range matches {
				if e.filtersPass(m, p, op.lateFilter) {
					kept = append(kept, m)
				}
			}
			matches = kept
		}
		if len(matches) == 0 {
			// No match: keep the row with the optional's own slots unbound.
			clean := ctx.arena.clone(row)
			for _, s := range op.ownSlots {
				clean[s] = rdf.NoID
			}
			out = append(out, clean)
			continue
		}
		out = append(out, matches...)
	}
	return out, nil
}

// matchPattern extends row with every graph match of the pattern, invoking
// yield with the extension written into scratch (callers copy rows they
// keep). Bound variables act as constants, so the store answers each
// propagation step with one permutation range scan; the Iterator is caller-
// owned for buffer reuse.
func (e *Engine) matchPattern(it *store.Iterator, row, scratch binding, cp compiledPattern, yield func(binding) bool) {
	if cp.s.missing || cp.p.missing || cp.o.missing {
		return // a constant term absent from the graph can never match
	}
	resolve := func(ct compiledTerm) rdf.ID {
		if !ct.isVar {
			return ct.id
		}
		return row[ct.slot] // NoID when unbound -> wildcard
	}
	s, p, o := resolve(cp.s), resolve(cp.p), resolve(cp.o)
	e.graph.ScanInto(it, s, p, o)
	yieldMatches(it, row, scratch, cp, yield)
}

// yieldMatches drains an already-opened scan, binding each triple into
// scratch over row and yielding the surviving extensions. Shared between the
// serial per-row path (matchPattern) and the parallel leading-partition path
// (runLeadingPartition), so the two cannot drift apart. Triples are consumed
// span-at-a-time: NextSpan hands back one decoded block as SoA component
// slices, so the inner loop walks plain []rdf.ID memory instead of paying a
// per-triple iterator call.
func yieldMatches(it *store.Iterator, row, scratch binding, cp compiledPattern, yield func(binding) bool) {
	for {
		ss, ps, os := it.NextSpan()
		if len(ss) == 0 {
			return
		}
		for i := range ss {
			copy(scratch, row)
			if !bindComponent(scratch, cp.s, ss[i]) ||
				!bindComponent(scratch, cp.p, ps[i]) ||
				!bindComponent(scratch, cp.o, os[i]) {
				continue // shared-variable mismatch (e.g. ?x ?p ?x): skip
			}
			if !yield(scratch) {
				return
			}
		}
	}
}

// bindComponent writes a matched ID into the row slot for variable
// components, returning false on conflict with an existing binding.
func bindComponent(row binding, ct compiledTerm, id rdf.ID) bool {
	if !ct.isVar {
		return true
	}
	if row[ct.slot] != rdf.NoID && row[ct.slot] != id {
		return false
	}
	row[ct.slot] = id
	return true
}

// filtersPass evaluates all filters against the row.
func (e *Engine) filtersPass(row binding, p *Plan, filters []sparql.Expr) bool {
	resolve := e.resolver(row, p)
	for _, f := range filters {
		if !algebra.EvalBool(f, resolve) {
			return false
		}
	}
	return true
}

// resolver adapts a binding row to the algebra.Resolver interface.
func (e *Engine) resolver(row binding, p *Plan) algebra.Resolver {
	return func(name string) algebra.Value {
		s, ok := p.slots[name]
		if !ok || row[s] == rdf.NoID {
			return algebra.Unbound
		}
		return algebra.Bind(e.graph.Dict().Term(row[s]))
	}
}

// projectionVars lists the output column names of a query.
func projectionVars(q *sparql.Query) []string {
	out := make([]string, len(q.Select))
	for i, si := range q.Select {
		out[i] = si.Var
	}
	return out
}

// finish applies grouping/aggregation, HAVING, projection, DISTINCT,
// ORDER BY and LIMIT/OFFSET to the joined rows. stats supplies the worker
// budget and receives the partition count of a parallel aggregation pass.
func (e *Engine) finish(rows []binding, p *Plan, stats *ExecStats) (*Result, error) {
	q := p.query
	res := &Result{Vars: projectionVars(q)}

	if q.HasAggregates() || len(q.GroupBy) > 0 {
		if err := e.finishAggregate(rows, p, res, stats); err != nil {
			return nil, err
		}
	} else {
		for _, row := range rows {
			out := make([]algebra.Value, len(q.Select))
			for i, si := range q.Select {
				s, ok := p.slots[si.Var]
				if ok && row[s] != rdf.NoID {
					out[i] = algebra.Bind(e.graph.Dict().Term(row[s]))
				}
			}
			res.Rows = append(res.Rows, out)
		}
	}

	if err := ApplyModifiers(res, q); err != nil {
		return nil, err
	}
	return res, nil
}

// ApplyModifiers applies q's solution modifiers that follow grouping and
// HAVING — DISTINCT, ORDER BY, then OFFSET/LIMIT — to res's rows, whose
// columns are q's projection. A rewritten answer finishes through it too.
func ApplyModifiers(res *Result, q *sparql.Query) error {
	if q.Distinct {
		res.Rows = dedupRows(res.Rows)
	}
	if len(q.OrderBy) > 0 {
		if err := orderRows(res, q); err != nil {
			return err
		}
	}
	applyLimitOffset(res, q)
	return nil
}

// aggSlotStar and aggSlotNone are sentinel aggregate input slots for
// COUNT(*) and for aggregate variables never bound by any pattern.
const (
	aggSlotStar = -1
	aggSlotNone = -2
)

// groupState carries per-group accumulators.
type groupState struct {
	key  []algebra.Value // values of GroupBy vars
	accs []algebra.Accumulator
}

// aggState is the grouping state over one row partition: per-group
// accumulators plus first-seen key order.
type aggState struct {
	groups map[string]*groupState
	order  []string
}

// buildAggState folds one contiguous row partition into grouping state.
func (e *Engine) buildAggState(rows []binding, groupSlots, aggSlots []int, aggItems []sparql.SelectItem) *aggState {
	st := &aggState{groups: make(map[string]*groupState)}
	// Group keys are the raw slot IDs in fixed-width binary — the
	// map[string] lookup on string(keyBuf) does not allocate on hit, so a
	// row belonging to an existing group costs no heap traffic.
	var keyBuf []byte
	for _, row := range rows {
		keyBuf = keyBuf[:0]
		for _, s := range groupSlots {
			keyBuf = binary.LittleEndian.AppendUint32(keyBuf, uint32(row[s]))
		}
		g, ok := st.groups[string(keyBuf)]
		if !ok {
			key := string(keyBuf)
			g = &groupState{
				key:  make([]algebra.Value, len(groupSlots)),
				accs: make([]algebra.Accumulator, len(aggItems)),
			}
			for j, s := range groupSlots {
				if row[s] != rdf.NoID {
					g.key[j] = algebra.Bind(e.graph.Dict().Term(row[s]))
				}
			}
			for j, item := range aggItems {
				g.accs[j] = algebra.NewAccumulator(item)
			}
			st.groups[key] = g
			st.order = append(st.order, key)
		}
		for i, s := range aggSlots {
			switch {
			case s == aggSlotStar: // COUNT(*)
				g.accs[i].Add(algebra.Bind(rdf.NewBoolean(true)))
			case s == aggSlotNone || row[s] == rdf.NoID:
				g.accs[i].Add(algebra.Unbound)
			default:
				g.accs[i].Add(algebra.Bind(e.graph.Dict().Term(row[s])))
			}
		}
	}
	return st
}

// foldAggStates folds src into dst in partition order: groups first seen in
// src are appended, shared groups fold their accumulators. Because row
// partitions are contiguous and folded left to right, group order and
// aggregate inputs match a serial pass over the concatenated rows.
func foldAggStates(dst, src *aggState) {
	for _, key := range src.order {
		g := src.groups[key]
		d, ok := dst.groups[key]
		if !ok {
			dst.groups[key] = g
			dst.order = append(dst.order, key)
			continue
		}
		for i := range d.accs {
			d.accs[i].Fold(g.accs[i])
		}
	}
}

// finishAggregate groups rows and computes aggregates. With workers > 1 and
// enough rows, partitions are grouped concurrently and the partial states
// merged in order (the parallel-safe aggregation merge).
func (e *Engine) finishAggregate(rows []binding, p *Plan, res *Result, stats *ExecStats) error {
	q := p.query
	groupSlots := make([]int, len(q.GroupBy))
	for i, v := range q.GroupBy {
		s, ok := p.slots[v]
		if !ok {
			return fmt.Errorf("engine: GROUP BY variable ?%s has no slot", v)
		}
		groupSlots[i] = s
	}
	aggItems := q.Aggregates()
	// Resolve each aggregate's input slot once, outside the row loop.
	aggSlots := make([]int, len(aggItems))
	for i, item := range aggItems {
		switch s, ok := p.slots[item.AggVar]; {
		case item.AggVar == "":
			aggSlots[i] = aggSlotStar
		case !ok:
			aggSlots[i] = aggSlotNone
		default:
			aggSlots[i] = s
		}
	}
	state := e.aggregateRows(rows, groupSlots, aggSlots, aggItems, stats, p.span)

	// Aggregates without GROUP BY over an empty input yield a single group.
	if len(rows) == 0 && len(q.GroupBy) == 0 {
		row, keep := e.aggregateEmptyRow(q)
		if keep {
			res.Rows = append(res.Rows, row)
		}
		return nil
	}

	groupIdx := make(map[string]int, len(q.GroupBy))
	for i, v := range q.GroupBy {
		groupIdx[v] = i
	}
	// Resolve each projected column to its group-key index (or -1 for
	// aggregates) once, outside the group loop.
	selIdx := make([]int, len(q.Select))
	for i, si := range q.Select {
		if si.Agg == sparql.AggNone {
			selIdx[i] = groupIdx[si.Var]
		} else {
			selIdx[i] = -1
		}
	}
	for _, key := range state.order {
		g := state.groups[key]
		// Build the projected row, plus a resolver map when HAVING needs it.
		var aggVals map[string]algebra.Value
		if q.Having != nil {
			aggVals = make(map[string]algebra.Value, len(aggItems))
		}
		ai := 0
		out := make([]algebra.Value, len(q.Select))
		for i, si := range q.Select {
			if selIdx[i] >= 0 {
				out[i] = g.key[selIdx[i]]
			} else {
				v := g.accs[ai].Result()
				if aggVals != nil {
					aggVals[si.Var] = v
				}
				out[i] = v
				ai++
			}
		}
		if q.Having != nil {
			resolve := func(name string) algebra.Value {
				if v, ok := aggVals[name]; ok {
					return v
				}
				if gi, ok := groupIdx[name]; ok {
					return g.key[gi]
				}
				return algebra.Unbound
			}
			if !algebra.EvalBool(q.Having, resolve) {
				continue
			}
		}
		res.Rows = append(res.Rows, out)
	}
	return nil
}

// aggregateEmptyRow produces the single aggregate row over an empty input
// (COUNT()=0, SUM()=0, MIN/MAX/AVG unbound); keep is false when HAVING
// rejects it.
func (e *Engine) aggregateEmptyRow(q *sparql.Query) ([]algebra.Value, bool) {
	out := make([]algebra.Value, len(q.Select))
	aggVals := make(map[string]algebra.Value)
	for i, si := range q.Select {
		acc := algebra.NewAccumulator(si)
		v := acc.Result()
		out[i] = v
		aggVals[si.Var] = v
	}
	if q.Having != nil {
		resolve := func(name string) algebra.Value { return aggVals[name] }
		if !algebra.EvalBool(q.Having, resolve) {
			return nil, false
		}
	}
	return out, true
}

// dedupRows removes duplicate rows by rendered key, preserving order.
func dedupRows(rows [][]algebra.Value) [][]algebra.Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	var b strings.Builder
	for _, row := range rows {
		b.Reset()
		for _, v := range row {
			b.WriteString(v.String())
			b.WriteByte('\x00')
		}
		k := b.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, row)
		}
	}
	return out
}

// orderRows sorts the result per ORDER BY.
func orderRows(res *Result, q *sparql.Query) error {
	idx := make(map[string]int, len(res.Vars))
	for i, v := range res.Vars {
		idx[v] = i
	}
	conds := make([]struct {
		col  int
		desc bool
	}, len(q.OrderBy))
	for i, oc := range q.OrderBy {
		col, ok := idx[oc.Var]
		if !ok {
			return fmt.Errorf("engine: ORDER BY variable ?%s not in projection", oc.Var)
		}
		conds[i] = struct {
			col  int
			desc bool
		}{col, oc.Desc}
	}
	sort.SliceStable(res.Rows, func(i, j int) bool {
		for _, c := range conds {
			cmp := algebra.SortCompare(res.Rows[i][c.col], res.Rows[j][c.col])
			if cmp != 0 {
				if c.desc {
					return cmp > 0
				}
				return cmp < 0
			}
		}
		return false
	})
	return nil
}

// applyLimitOffset trims the rows per OFFSET/LIMIT.
func applyLimitOffset(res *Result, q *sparql.Query) {
	if q.Offset > 0 {
		if q.Offset >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(res.Rows) {
		res.Rows = res.Rows[:q.Limit]
	}
}
