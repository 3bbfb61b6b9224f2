package core

import (
	"fmt"
	"sync"
	"time"

	"sofos/internal/benchkit"
	"sofos/internal/cost"
	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/obs"
	"sofos/internal/rdf"
	"sofos/internal/rewrite"
	"sofos/internal/selection"
	"sofos/internal/sparql"
	"sofos/internal/store"
	"sofos/internal/views"
	"sofos/internal/workload"
)

// Options configure a System beyond its graph and facet.
type Options struct {
	// Workers bounds intra-query parallelism (engine.Options.Workers) and the
	// goroutines used for batch view materialization and refresh. 0 means one
	// worker per logical CPU; 1 forces serial execution throughout.
	Workers int
}

// System is one SOFOS instance: a knowledge graph G, an analytical facet F,
// the induced view lattice V(F), the expanded graph G+ with the currently
// materialized views, and the rewriting-based answerer.
type System struct {
	Graph    *store.Graph
	Facet    *facet.Facet
	Lattice  *facet.Lattice
	Catalog  *views.Catalog
	Rewriter *rewrite.Rewriter

	// Workers is the resolved parallelism every system operation uses:
	// query execution, batch materialization, and refresh.
	Workers int

	// provider holds the lazily computed full-lattice statistics;
	// providerMu makes the one-time initialization safe when concurrent
	// readers (e.g. the server's view-management path) race to be first.
	provider   *cost.Provider
	providerMu sync.Mutex
}

// New builds a system over a graph and facet with default options. The graph
// is compacted up front: systems are built after bulk loading, and every
// downstream engine scan and cardinality estimate is cheapest against
// delta-free runs.
func New(g *store.Graph, f *facet.Facet) (*System, error) {
	return NewWithOptions(g, f, Options{})
}

// NewWithOptions is New with explicit execution options.
func NewWithOptions(g *store.Graph, f *facet.Facet, opts Options) (*System, error) {
	g.Compact()
	l, err := facet.NewLattice(f)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	engOpts := engine.Options{Workers: opts.Workers}
	catalog := views.NewCatalogWithOptions(g, f, engOpts)
	return &System{
		Graph:    g,
		Facet:    f,
		Lattice:  l,
		Catalog:  catalog,
		Rewriter: rewrite.New(catalog),
		Workers:  engOpts.EffectiveWorkers(),
	}, nil
}

// Fork returns a mutable copy-on-write copy of the system for preparing the
// next MVCC generation off to the side. The fork shares every immutable
// substrate with the original — sorted permutation runs, page store, and the
// (internally synchronized, append-only) term dictionary — and copies only
// the mutable overlays, so forking is O(delta) rather than O(graph). Mutating
// the fork never perturbs answers computed against the original; publishing
// it is the caller's atomic pointer swap (see Chain).
func (s *System) Fork() *System {
	cat := s.Catalog.Fork()
	ns := &System{
		Graph:    cat.Base(),
		Facet:    s.Facet,
		Lattice:  s.Lattice,
		Catalog:  cat,
		Rewriter: rewrite.New(cat),
		Workers:  s.Workers,
	}
	// The lattice statistics are a function of the base graph content; carry
	// the memo only when no writer can have changed what it describes — and
	// since forks exist to be mutated, recomputing lazily on demand is the
	// safe default. Carrying the pointer is still correct for read-only forks.
	s.providerMu.Lock()
	ns.provider = s.provider
	s.providerMu.Unlock()
	return ns
}

// Provider computes (once) and returns the full-lattice statistics: every
// view's group/triple/node counts. This is the demo's "Full Lattice"
// exploration step and the substrate of the analytic cost models.
func (s *System) Provider() (*cost.Provider, error) {
	s.providerMu.Lock()
	defer s.providerMu.Unlock()
	if s.provider != nil {
		return s.provider, nil
	}
	p, err := cost.NewProvider(s.Graph, s.Lattice)
	if err != nil {
		return nil, err
	}
	s.provider = p
	return p, nil
}

// AnalyticModels returns the provider-backed cost models plus the random
// baseline — every model that needs no training. Use TrainLearned for the
// sixth.
func (s *System) AnalyticModels(randomSeed int64) ([]cost.Model, error) {
	p, err := s.Provider()
	if err != nil {
		return nil, err
	}
	return []cost.Model{
		&cost.RandomModel{Seed: randomSeed},
		&cost.TriplesModel{Provider: p},
		&cost.AggValuesModel{Provider: p},
		&cost.NodesModel{Provider: p},
	}, nil
}

// TrainLearned trains the learned cost model on measured view times.
func (s *System) TrainLearned(cfg cost.TrainConfig) (*cost.TrainResult, error) {
	return cost.TrainLearnedModel(s.Graph, s.Lattice, cfg)
}

// EstimatedModel returns the statistics-only cost estimator — the model
// that prices views without the full-lattice precomputation the analytic
// models require.
func (s *System) EstimatedModel() cost.Model {
	return cost.NewEstimatedModel(s.Facet, s.Graph.Snapshot())
}

// SelectViews runs the greedy selection under a view-count budget.
func (s *System) SelectViews(m cost.Model, k int) (*selection.Selection, error) {
	return selection.Greedy(s.Lattice, m, k)
}

// SelectViewsByMemory runs the memory-budget greedy variant, sizing views by
// their exact encoding bytes from the provider.
func (s *System) SelectViewsByMemory(m cost.Model, budgetBytes int64) (*selection.Selection, error) {
	p, err := s.Provider()
	if err != nil {
		return nil, err
	}
	return selection.GreedyMemory(s.Lattice, m, budgetBytes, func(v facet.View) int64 {
		return p.MustStats(v.Mask).Bytes
	})
}

// Materialize materializes every view of a selection: PlanMaterialize
// computes independent views on the system's worker pool (covered views roll
// up from the batch's finer ones), CommitMaterialize records their group
// tables, and the records it committed are returned.
func (s *System) Materialize(sel *selection.Selection) ([]*views.Materialized, error) {
	plan, err := s.Catalog.PlanMaterialize(sel.Views, s.Workers)
	if err != nil {
		return nil, err
	}
	return s.Catalog.CommitMaterialize(plan)
}

// ApplyUpdate commits one batched update (inserts first, then deletes) to
// the base graph through the catalog: views turn stale, and the batch's
// effective delta ΔG is captured so the next Refresh can apply it
// incrementally instead of rescanning the graph.
func (s *System) ApplyUpdate(inserts, deletes []rdf.Triple) (store.Delta, error) {
	return s.Catalog.ApplyUpdate(inserts, deletes)
}

// Reset drops all materialized views, so that G+ equals G.
func (s *System) Reset() { s.Catalog.Reset() }

// Answer answers one analytical query through the online module.
func (s *System) Answer(q *sparql.Query) (*rewrite.Answer, error) {
	return s.Rewriter.Answer(q)
}

// AnswerWithWorkers answers one query with an explicit intra-query worker
// bound, overriding the system default. 0 falls back to the system's
// workers; the serving layer uses this for per-request admission control.
func (s *System) AnswerWithWorkers(q *sparql.Query, workers int) (*rewrite.Answer, error) {
	return s.AnswerObserved(q, workers, obs.SpanHandle{})
}

// AnswerObserved is AnswerWithWorkers with a parent trace span: the rewrite
// decision, engine partitions, and aggregate merge record themselves under
// sp. The zero handle disables tracing.
func (s *System) AnswerObserved(q *sparql.Query, workers int, sp obs.SpanHandle) (*rewrite.Answer, error) {
	if workers <= 0 {
		workers = s.Workers
	}
	return s.Rewriter.AnswerWith(q, engine.Options{Workers: workers, Span: sp})
}

// Generation returns the catalog mutation counter: it increases on every
// committed change that can alter a query answer (inserts, deletes,
// materializations, drops, refreshes). See views.Catalog.Generation.
func (s *System) Generation() int64 { return s.Catalog.Generation() }

// GraphVersion returns the base graph's mutation counter.
func (s *System) GraphVersion() int64 { return s.Graph.Version() }

// ViewSetHash returns an order-independent hash of the materialized view
// set. Callers must not race it with catalog mutations.
func (s *System) ViewSetHash() uint64 { return s.Catalog.ViewSetHash() }

// AnswerString parses and answers a query.
func (s *System) AnswerString(src string) (*rewrite.Answer, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	return s.Answer(q)
}

// GenerateWorkload builds a random workload over the system's facet.
func (s *System) GenerateWorkload(cfg workload.Config) (*workload.Workload, error) {
	return workload.Generate(s.Graph, s.Facet, cfg)
}

// QueryOutcome records one workload query's execution.
type QueryOutcome struct {
	Index      int
	Text       string
	Via        string // answering source: view ID or "base"
	Reason     string // fallback reason when Via == "base"
	Rows       int
	Partitions int // parallel partitions the engine ran (0 = serial)
	Elapsed    time.Duration
}

// WorkloadReport aggregates a workload run.
type WorkloadReport struct {
	PerQuery []QueryOutcome
	Timing   benchkit.Timing
	ViewHits int
	Workers  int // engine parallelism the queries ran with
}

// HitRate is the fraction of queries answered from views.
func (r *WorkloadReport) HitRate() float64 {
	if len(r.PerQuery) == 0 {
		return 0
	}
	return float64(r.ViewHits) / float64(len(r.PerQuery))
}

// RunWorkload answers every workload query against the current catalog state
// and collects per-query outcomes — the "Query performance analyzer" panel.
func (s *System) RunWorkload(w *workload.Workload) (*WorkloadReport, error) {
	rep := &WorkloadReport{Workers: s.Workers}
	for i, q := range w.Queries {
		ans, err := s.Answer(q.Parsed)
		if err != nil {
			return nil, fmt.Errorf("core: workload query %d: %w", i, err)
		}
		if ans.UsedView() {
			rep.ViewHits++
		}
		rep.Timing.Add(ans.Elapsed)
		rep.PerQuery = append(rep.PerQuery, QueryOutcome{
			Index:      i,
			Text:       q.Text,
			Via:        ans.ViaLabel(),
			Reason:     ans.Reason,
			Rows:       len(ans.Result.Rows),
			Partitions: ans.Result.Stats.Partitions,
			Elapsed:    ans.Elapsed,
		})
	}
	return rep, nil
}

// RunWorkloadParallel answers the workload with the given number of
// concurrent workers. The catalog is read-only during a run (the store
// supports concurrent readers), so this measures the system's multi-client
// throughput. Results are in workload order, as with RunWorkload.
func (s *System) RunWorkloadParallel(w *workload.Workload, workers int) (*WorkloadReport, error) {
	if workers <= 1 {
		return s.RunWorkload(w)
	}
	type slot struct {
		outcome QueryOutcome
		err     error
	}
	results := make([]slot, len(w.Queries))
	jobs := make(chan int)
	done := make(chan struct{})
	for wk := 0; wk < workers; wk++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range jobs {
				q := w.Queries[i]
				ans, err := s.Answer(q.Parsed)
				if err != nil {
					results[i].err = fmt.Errorf("core: workload query %d: %w", i, err)
					continue
				}
				results[i].outcome = QueryOutcome{
					Index:      i,
					Text:       q.Text,
					Via:        ans.ViaLabel(),
					Reason:     ans.Reason,
					Rows:       len(ans.Result.Rows),
					Partitions: ans.Result.Stats.Partitions,
					Elapsed:    ans.Elapsed,
				}
			}
		}()
	}
	for i := range w.Queries {
		jobs <- i
	}
	close(jobs)
	for wk := 0; wk < workers; wk++ {
		<-done
	}
	rep := &WorkloadReport{Workers: s.Workers}
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		if r.outcome.Via != "base" {
			rep.ViewHits++
		}
		rep.Timing.Add(r.outcome.Elapsed)
		rep.PerQuery = append(rep.PerQuery, r.outcome)
	}
	return rep, nil
}

// ModelReport is one row of the cost-model comparison (panel ② of the GUI):
// how a model's k-view selection performs on a workload.
type ModelReport struct {
	Model         string
	SelectedViews []string
	AddedTriples  int
	Amplification float64
	Mean, P50     time.Duration
	P95           time.Duration
	HitRate       float64
	SpeedupVsBase float64 // base mean / this mean
	Report        *WorkloadReport
}

// CompareModels runs the full offline+online pipeline for every model at
// budget k against one workload, including a no-views baseline, and reports
// the trade-offs. The catalog is reset between models so runs are
// independent.
func (s *System) CompareModels(models []cost.Model, k int, w *workload.Workload) ([]ModelReport, error) {
	s.Reset()
	baseRep, err := s.RunWorkload(w)
	if err != nil {
		return nil, fmt.Errorf("core: baseline run: %w", err)
	}
	baseMean := baseRep.Timing.Mean()
	out := []ModelReport{{
		Model:         "no-views",
		Amplification: 1,
		Mean:          baseMean,
		P50:           baseRep.Timing.P50(),
		P95:           baseRep.Timing.P95(),
		SpeedupVsBase: 1,
		Report:        baseRep,
	}}
	for _, m := range models {
		sel, err := s.SelectViews(m, k)
		if err != nil {
			return nil, fmt.Errorf("core: selecting with %s: %w", m.Name(), err)
		}
		if _, err := s.Materialize(sel); err != nil {
			return nil, fmt.Errorf("core: materializing for %s: %w", m.Name(), err)
		}
		rep, err := s.RunWorkload(w)
		if err != nil {
			return nil, fmt.Errorf("core: workload under %s: %w", m.Name(), err)
		}
		mr := ModelReport{
			Model:         m.Name(),
			AddedTriples:  s.Catalog.AddedTriples(),
			Amplification: s.Catalog.StorageAmplification(),
			Mean:          rep.Timing.Mean(),
			P50:           rep.Timing.P50(),
			P95:           rep.Timing.P95(),
			HitRate:       rep.HitRate(),
			Report:        rep,
		}
		for _, v := range sel.Views {
			mr.SelectedViews = append(mr.SelectedViews, v.ID())
		}
		if mr.Mean > 0 {
			mr.SpeedupVsBase = float64(baseMean) / float64(mr.Mean)
		}
		out = append(out, mr)
		s.Reset()
	}
	return out, nil
}
