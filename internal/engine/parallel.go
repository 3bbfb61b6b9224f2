package engine

import (
	"sync"

	"sofos/internal/obs"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

// Parallel query execution.
//
// The store's lock-free snapshot Iterators make data-parallel scans safe with
// zero coordination: every partition shares the immutable sorted runs and
// owns a disjoint slice of the delta overlay. The engine exploits that in
// three places — splitting the leading pattern's index range into per-worker
// sub-ranges (store.Iterator.Split), chunking wide intermediate row sets
// across workers, and merging per-partition aggregation states. Partitions
// are always contiguous in the serial iteration order and merged in partition
// order, so parallel output is identical to serial execution.

const (
	// parallelMinScan is the smallest leading-range size worth splitting
	// across workers; below it, per-goroutine startup dominates and the
	// engine falls back to serial execution.
	parallelMinScan = 1024

	// parallelMinRowsPerWorker is the smallest per-worker chunk of
	// intermediate rows worth fanning the remaining pipeline out over.
	parallelMinRowsPerWorker = 128

	// aggMinRowsPerWorker is the smallest per-worker row count worth a
	// parallel grouping pass; grouping is cheap per row, so the bar is
	// higher than for joins.
	aggMinRowsPerWorker = 512
)

// runPartitioned executes part(i) for n partitions concurrently, each on its
// own goroutine with a private execCtx, then concatenates partition outputs
// in partition order and folds the work counters. A non-zero cap truncates
// the concatenation (LIMIT pushdown): the first cap rows of the concatenation
// are exactly the first cap rows serial execution would produce.
func (e *Engine) runPartitioned(n int, p *Plan, stats *ExecStats, cap int,
	part func(i int, ctx *execCtx) ([]binding, error)) ([]binding, error) {
	outs := make([][]binding, n)
	errs := make([]error, n)
	ctxs := make([]execCtx, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ctxs[i].arena.width = len(p.vars)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := p.span.Child("engine.partition")
			sp.AttrInt("worker", int64(i))
			defer store.Recover(&errs[i])
			outs[i], errs[i] = part(i, &ctxs[i])
			sp.AttrInt("rows_out", int64(len(outs[i])))
			sp.End()
		}(i)
	}
	wg.Wait()
	store.Repanic(errs...)
	total := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
		stats.fold(&ctxs[i].stats)
		total += len(outs[i])
	}
	stats.Partitions += n
	rows := make([]binding, 0, total)
	for _, out := range outs {
		rows = append(rows, out...)
		if cap > 0 && len(rows) >= cap {
			rows = rows[:cap]
			break
		}
	}
	return rows, nil
}

// runRowChunks partitions an intermediate row set into contiguous chunks and
// runs the remaining branch pipeline per chunk.
func (e *Engine) runRowChunks(rows []binding, p *Plan, br *branchPlan, steps []step, cap int, stats *ExecStats, workers int) ([]binding, error) {
	n := workers
	if len(rows) < n {
		n = len(rows)
	}
	return e.runPartitioned(n, p, stats, cap, func(i int, ctx *execCtx) ([]binding, error) {
		lo, hi := i*len(rows)/n, (i+1)*len(rows)/n
		return e.runTail(rows[lo:hi], p, br, steps, cap, ctx)
	})
}

// runSplitScan splits the leading pattern's already-opened range scan into
// per-worker sub-ranges and runs the downstream join/filter pipeline per
// partition.
func (e *Engine) runSplitScan(it store.Iterator, row binding, p *Plan, br *branchPlan, steps []step, cap int, stats *ExecStats, workers int) ([]binding, error) {
	parts := it.Split(workers)
	return e.runPartitioned(len(parts), p, stats, cap, func(i int, ctx *execCtx) ([]binding, error) {
		rows := e.runLeadingPartition(parts[i], row, p, steps[0], len(steps) == 1, cap, ctx)
		return e.runTail(rows, p, br, steps[1:], cap, ctx)
	})
}

// runLeadingPartition applies the branch's first step over one sub-range of
// its scan, with the same filter/clone/cap behaviour as runSteps for a
// single row. last marks steps[0] as the branch's only step, the one place a
// LIMIT cap may stop the scan early (see rowCap).
func (e *Engine) runLeadingPartition(part store.Iterator, row binding, p *Plan, st step, last bool, cap int, ctx *execCtx) []binding {
	scratch := make(binding, len(p.vars))
	var out []binding
	yieldMatches(&part, row, scratch, st.pat, func(extended binding) bool {
		if len(st.filters) == 0 || e.filtersPass(extended, p, st.filters) {
			out = append(out, ctx.arena.clone(extended))
			ctx.stats.IntermediateRows++
		}
		return !(cap > 0 && last && len(out) >= cap)
	})
	return out
}

// aggregateRows builds the grouping state for finishAggregate, in parallel
// when the row set is wide enough: contiguous row chunks are grouped
// concurrently, then the partial states fold left-to-right so group order and
// accumulator inputs match a serial pass. A parallel pass counts toward
// stats.Partitions like the join-phase fan-outs.
func (e *Engine) aggregateRows(rows []binding, groupSlots, aggSlots []int, aggItems []sparql.SelectItem, stats *ExecStats, span obs.SpanHandle) *aggState {
	workers := stats.Workers
	if workers <= 1 || len(rows) < workers*aggMinRowsPerWorker {
		return e.buildAggState(rows, groupSlots, aggSlots, aggItems)
	}
	stats.Partitions += workers
	sp := span.Child("engine.aggregate_merge")
	sp.AttrInt("rows", int64(len(rows)))
	sp.AttrInt("partitions", int64(workers))
	defer sp.End()
	parts := make([]*aggState, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		lo, hi := i*len(rows)/workers, (i+1)*len(rows)/workers
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			parts[i] = e.buildAggState(rows[lo:hi], groupSlots, aggSlots, aggItems)
		}(i, lo, hi)
	}
	wg.Wait()
	state := parts[0]
	for _, src := range parts[1:] {
		foldAggStates(state, src)
	}
	return state
}
