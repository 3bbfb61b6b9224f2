package views

import (
	"fmt"
	"sync"
	"time"

	"sofos/internal/engine"
	"sofos/internal/facet"
)

// Parallel offline-module operations. Every materialization and refresh is
// a plan and a commit: planning computes view contents read-only — against
// the base graph (the store supports lock-free snapshot scans) or by
// rolling up an ancestor's immutable Data — on a bounded worker pool, and
// committing swaps the records in serially. Materialize, RefreshAllParallel
// and core.System only compose the two.

// nextWave splits pending views into those computable now (not covered by a
// finer pending view) and the rest, preserving input order. Covers is a
// strict partial order over distinct masks, so the wave is never empty.
func nextWave(pending []facet.View) (wave, rest []facet.View) {
	for _, v := range pending {
		covered := false
		for _, u := range pending {
			if u.Mask != v.Mask && u.Covers(v) {
				covered = true
				break
			}
		}
		if covered {
			rest = append(rest, v)
		} else {
			wave = append(wave, v)
		}
	}
	return wave, rest
}

// waveEngine builds the base-graph engine a compute pool of the given size
// uses: the catalog's worker budget is divided between the pool and each
// query, so a batch never multiplies the two levels of parallelism into
// workers² goroutines. A pool of one view keeps full intra-query
// parallelism; a full-width pool runs each query serially.
func (c *Catalog) waveEngine(total, pool int) *engine.Engine {
	if pool <= 1 {
		return c.baseEng
	}
	opts := c.engOpts
	opts.Workers = max(1, total/pool)
	return engine.NewWithOptions(c.base, opts)
}

// waveResult is one view's computed contents plus its compute start time
// (the anchor for the record's Elapsed measurement).
type waveResult struct {
	data  *Data
	start time.Time
	err   error
}

// computeWave runs compute(eng, i, v) for every view on a bounded worker
// pool and returns the per-view results. The index lets callers capture
// side results (e.g. incremental refresh plans) into pre-sized slices
// without locking — each slot is written by exactly one worker. The catalog
// must not be mutated while the pool drains; callers apply mutations
// serially afterwards.
func (c *Catalog) computeWave(vs []facet.View, workers int,
	compute func(*engine.Engine, int, facet.View) (*Data, error)) []waveResult {
	results := make([]waveResult, len(vs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	pool := min(workers, len(vs))
	eng := c.waveEngine(workers, pool)
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i].start = time.Now()
				results[i].data, results[i].err = compute(eng, i, vs[i])
			}
		}()
	}
	for i := range vs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// MaterializePlan holds computed view contents ready to be committed.
// Like RefreshPlan, producing it only reads the catalog; committing it is
// the sole mutation.
type MaterializePlan struct {
	// recs carry, per view in input order, the planned Data and the base
	// graph version it reflects: the plan-time base version, or — when
	// rolled up — the source's baseVersion. Recording it (rather than the
	// commit-time version) keeps a view correctly marked stale when the base
	// advances between planning and commit.
	recs   []*Materialized
	starts []time.Time
}

// PlanMaterialize computes contents for every listed view not already
// materialized, on up to workers goroutines, without mutating the catalog.
// The batch is planned in cover-order waves: a view that a finer batch
// member covers waits for that member's wave, so the full view computes
// first and its children then roll up from its planned Data in parallel.
// Each view computes from its cheapest source — the committed or planned
// ancestor with the fewest groups, else the base graph. Returns nil when
// every listed view is already materialized; duplicates plan once. The
// caller must not run catalog mutations concurrently with planning.
func (c *Catalog) PlanMaterialize(vs []facet.View, workers int) (*MaterializePlan, error) {
	workers = max(workers, 1)
	var pending []facet.View
	idx := make(map[facet.Mask]int, len(vs))
	for _, v := range vs {
		if v.Facet != c.facet {
			return nil, fmt.Errorf("views: view %s belongs to a different facet", v)
		}
		if _, dup := idx[v.Mask]; dup || c.Has(v.Mask) {
			continue
		}
		idx[v.Mask] = len(pending)
		pending = append(pending, v)
	}
	if len(pending) == 0 {
		return nil, nil
	}
	baseVersion := c.base.Version()
	plan := &MaterializePlan{
		recs:   make([]*Materialized, len(pending)),
		starts: make([]time.Time, len(pending)),
	}
	for rest := pending; len(rest) > 0; {
		var wave []facet.View
		wave, rest = nextWave(rest)
		// Wave members never cover each other, so every source is committed
		// or planned in an earlier wave. Each is resolved once: bestSource
		// breaks NumGroups ties by map order, and the roll-up and the
		// recorded version must come from the same ancestor.
		srcs := make([]*Materialized, len(wave))
		for i, v := range wave {
			srcs[i] = c.bestSource(v, plan.recs)
		}
		results := c.computeWave(wave, workers, func(eng *engine.Engine, i int, v facet.View) (*Data, error) {
			if srcs[i] != nil {
				return RollUp(srcs[i].Data, v)
			}
			return Compute(eng, v)
		})
		for i, v := range wave {
			if results[i].err != nil {
				return nil, fmt.Errorf("views: computing %s: %w", v, results[i].err)
			}
			rec := &Materialized{Data: results[i].data, baseVersion: baseVersion}
			if srcs[i] != nil {
				rec.baseVersion = srcs[i].baseVersion
			}
			plan.recs[idx[v.Mask]], plan.starts[idx[v.Mask]] = rec, results[i].start
		}
	}
	return plan, nil
}

// CommitMaterialize records planned contents serially, returning the
// records in plan order. Committing a nil plan is a no-op. A view
// materialized since planning keeps its existing record (materializeData
// is idempotent per mask). Each record carries the version its contents
// reflect, so a base-graph write that landed between planning and commit
// leaves the new views marked stale rather than serving pre-write contents
// as fresh.
func (c *Catalog) CommitMaterialize(p *MaterializePlan) ([]*Materialized, error) {
	if p == nil {
		return nil, nil
	}
	out := make([]*Materialized, 0, len(p.recs))
	for i, rec := range p.recs {
		out = append(out, c.materializeData(rec.Data, p.starts[i], rec.baseVersion))
	}
	return out, nil
}

// refreshOp is one view's planned refresh: either a delta application
// (inc != nil) or a full recompute (full != nil). start anchors the record's
// cost: the start of PlanRefresh for a delta application, so the shared
// delta join is part of it, and the view's own compute start otherwise.
type refreshOp struct {
	inc   *incrementalPlan
	full  *Data
	start time.Time
}

// RefreshPlan holds, for every view that was stale at plan time, either an
// incremental delta application or freshly recomputed contents, ready to be
// committed. Producing the plan only reads the catalog (the compute phase);
// applying it is the sole mutation, so a serving layer can plan concurrently
// with query traffic and serialize just the short CommitRefresh step
// against it.
type RefreshPlan struct {
	views       []facet.View
	ops         []refreshOp
	baseVersion int64 // base graph version full-recompute contents reflect
}

// Incremental returns how many of the plan's views take the delta path —
// exposed so serving layers can report which maintenance path ran.
func (p *RefreshPlan) Incremental() int {
	n := 0
	for i := range p.ops {
		if p.ops[i].inc != nil {
			n++
		}
	}
	return n
}

// PlanRefresh prepares every stale view's refresh on up to workers
// goroutines without mutating the catalog. Views whose staleness window the
// delta log covers (and whose facet is self-maintainable) get an O(|ΔG|)
// incremental plan: the facet pattern is evaluated on ΔG once per distinct
// window, its seeds split across the workers, before the wave, and each
// view then only projects the shared rows and updates its group table. The
// rest are recomputed from the base graph. It returns nil when nothing is
// stale. The caller must not run catalog mutations concurrently with
// planning (the compute pool reads the materialization map, the delta log,
// and the base graph).
func (c *Catalog) PlanRefresh(workers int) (*RefreshPlan, error) {
	if workers < 1 {
		workers = 1
	}
	stale := c.StaleViews()
	if len(stale) == 0 {
		return nil, nil
	}
	start := time.Now()
	mats := make([]*Materialized, len(stale))
	joins := make(map[int64]*windowJoin)
	for i, v := range stale {
		mats[i] = c.mats[v.Mask]
		from := mats[i].baseVersion
		if _, done := joins[from]; done {
			continue
		}
		j, err := c.deltaJoin(from, workers)
		if err != nil {
			return nil, err
		}
		joins[from] = j
	}
	incs := make([]*incrementalPlan, len(stale))
	results := c.computeWave(stale, workers, func(eng *engine.Engine, i int, v facet.View) (*Data, error) {
		if incs[i] = planIncremental(v, mats[i], joins[mats[i].baseVersion]); incs[i] != nil {
			return nil, nil
		}
		return Compute(eng, v)
	})
	plan := &RefreshPlan{views: stale, ops: make([]refreshOp, len(stale)), baseVersion: c.base.Version()}
	for i, v := range stale {
		if results[i].err != nil {
			return nil, fmt.Errorf("views: recomputing %s: %w", v, results[i].err)
		}
		op := refreshOp{inc: incs[i], full: results[i].data, start: results[i].start}
		if op.inc != nil {
			op.start = start
		}
		plan.ops[i] = op
	}
	return plan, nil
}

// CommitRefresh applies a plan serially — incrementally updated or freshly
// recomputed group tables — returning how many views were refreshed. Committing a
// nil plan is a no-op. A view dropped since planning is skipped; a view
// whose record changed since an incremental plan was made is skipped too
// (it stays stale for the next cycle), since its deltas were computed
// against the old contents.
func (c *Catalog) CommitRefresh(p *RefreshPlan) (int, error) {
	if p == nil {
		return 0, nil
	}
	n := 0
	for i, v := range p.views {
		op := p.ops[i]
		if op.inc != nil {
			if c.commitIncremental(v, op.inc, op.start) {
				n++
			}
			continue
		}
		if !c.Has(v.Mask) {
			continue
		}
		c.applyRefresh(v, op.full, op.start, p.baseVersion)
		n++
	}
	c.log.prune(c.minBaseVersion())
	return n, nil
}

// RefreshAllParallel refreshes every stale view, recomputing their contents
// on up to workers goroutines and committing the new records serially.
// It returns how many views were refreshed.
func (c *Catalog) RefreshAllParallel(workers int) (int, error) {
	plan, err := c.PlanRefresh(workers)
	if err != nil {
		return 0, err
	}
	return c.CommitRefresh(plan)
}
