package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"sofos/internal/benchkit"
	"sofos/internal/core"
	"sofos/internal/cost"
	"sofos/internal/datasets"
	"sofos/internal/facet"
	"sofos/internal/selection"
	"sofos/internal/workload"
)

// Env is one experiment environment: a dataset at a scale, its facet's
// system, and a reproducible workload.
type Env struct {
	Dataset  string
	Scale    int
	Seed     int64
	System   *core.System
	Workload *workload.Workload
}

// NewEnv builds a dataset-backed environment with a generated workload and
// default system options (parallel execution at GOMAXPROCS).
func NewEnv(dataset string, scale int, seed int64, workloadSize int) (*Env, error) {
	return NewEnvWithOptions(dataset, scale, seed, workloadSize, core.Options{})
}

// NewEnvWithOptions is NewEnv with explicit system options, letting callers
// pin the worker count for serial-vs-parallel comparisons.
func NewEnvWithOptions(dataset string, scale int, seed int64, workloadSize int, opts core.Options) (*Env, error) {
	g, f, err := datasets.BuildWithFacet(dataset, scale, seed)
	if err != nil {
		return nil, err
	}
	s, err := core.NewWithOptions(g, f, opts)
	if err != nil {
		return nil, err
	}
	w, err := s.GenerateWorkload(workload.Config{Size: workloadSize, Seed: seed + 1000})
	if err != nil {
		return nil, err
	}
	return &Env{Dataset: dataset, Scale: scale, Seed: seed, System: s, Workload: w}, nil
}

// DefaultEnvs builds the three demo environments at laptop scales.
func DefaultEnvs(seed int64, workloadSize int) ([]*Env, error) {
	return defaultEnvs(seed, workloadSize, core.Options{})
}

func defaultEnvs(seed int64, workloadSize int, opts core.Options) ([]*Env, error) {
	specs := []struct {
		name  string
		scale int
	}{
		{"lubm", 2},
		{"dbpedia", 40},
		{"swdf", 5},
	}
	var out []*Env
	for _, sp := range specs {
		e, err := NewEnvWithOptions(sp.name, sp.scale, seed, workloadSize, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: building %s env: %w", sp.name, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// E1FullLattice reproduces GUI panel ① — per-level full-lattice statistics
// for each dataset: view counts and group/triple/node totals per level,
// plus the total cost of materializing everything.
func E1FullLattice(envs []*Env) (*benchkit.Table, error) {
	t := benchkit.NewTable("E1: Full lattice exploration (panel ①)",
		"dataset", "|G|", "dims", "views", "level", "views@level", "groups", "enc.triples", "nodes")
	for _, env := range envs {
		p, err := env.System.Provider()
		if err != nil {
			return nil, err
		}
		l := env.System.Lattice
		for lev, vs := range l.Levels() {
			var groups, triples, nodes int
			for _, v := range vs {
				st := p.MustStats(v.Mask)
				groups += st.Groups
				triples += st.Triples
				nodes += st.Nodes
			}
			t.AddRow(
				env.Dataset,
				fmt.Sprint(env.System.Graph.Len()),
				fmt.Sprint(len(l.Facet.Dims)),
				fmt.Sprint(l.Size()),
				fmt.Sprint(lev),
				fmt.Sprint(len(vs)),
				fmt.Sprint(groups),
				fmt.Sprint(triples),
				fmt.Sprint(nodes),
			)
		}
		t.AddRow(env.Dataset, "", "", "", "ALL", fmt.Sprint(l.Size()),
			"", fmt.Sprint(p.TotalTriples()), "")
	}
	return t, nil
}

// E2CostModels reproduces GUI panel ② — for each cost model at budget k:
// the selected views, storage amplification, workload latency, hit rate,
// and speedup versus no views. A full-lattice row bounds the achievable
// speedup from above.
func E2CostModels(env *Env, k int, learned cost.Model) (*benchkit.Table, error) {
	models, err := env.System.AnalyticModels(env.Seed)
	if err != nil {
		return nil, err
	}
	if learned != nil {
		models = append(models, learned)
	}
	reports, err := env.System.CompareModels(models, k, env.Workload)
	if err != nil {
		return nil, err
	}
	// Upper bound: the whole lattice materialized.
	all := selection.Manual(env.System.Lattice, models[1], env.System.Lattice.Views())
	if _, err := env.System.Materialize(all); err != nil {
		return nil, err
	}
	fullRep, err := env.System.RunWorkload(env.Workload)
	if err != nil {
		return nil, err
	}
	fullAmp := env.System.Catalog.StorageAmplification()
	fullAdded := env.System.Catalog.AddedTriples()
	env.System.Reset()

	t := benchkit.NewTable(
		fmt.Sprintf("E2: Cost model comparison (panel ②) — %s, k=%d, %d queries", env.Dataset, k, len(env.Workload.Queries)),
		"model", "selected views", "added triples", "amplification", "mean", "p50", "p95", "hit rate", "speedup")
	base := reports[0]
	for _, r := range reports {
		sel := ""
		for i, v := range r.SelectedViews {
			if i > 0 {
				sel += " "
			}
			sel += v
		}
		t.AddRow(r.Model, sel,
			fmt.Sprint(r.AddedTriples),
			benchkit.FmtFloat(r.Amplification),
			benchkit.FmtDuration(r.Mean),
			benchkit.FmtDuration(r.P50),
			benchkit.FmtDuration(r.P95),
			fmt.Sprintf("%.0f%%", r.HitRate*100),
			fmt.Sprintf("%.2fx", r.SpeedupVsBase),
		)
	}
	speedup := 0.0
	if fullRep.Timing.Mean() > 0 {
		speedup = float64(base.Mean) / float64(fullRep.Timing.Mean())
	}
	t.AddRow("full-lattice", fmt.Sprintf("all %d", env.System.Lattice.Size()),
		fmt.Sprint(fullAdded),
		benchkit.FmtFloat(fullAmp),
		benchkit.FmtDuration(fullRep.Timing.Mean()),
		benchkit.FmtDuration(fullRep.Timing.P50()),
		benchkit.FmtDuration(fullRep.Timing.P95()),
		fmt.Sprintf("%.0f%%", fullRep.HitRate()*100),
		fmt.Sprintf("%.2fx", speedup),
	)
	return t, nil
}

// E3BudgetSweep reproduces GUI panel ③ — the space/time trade-off curve:
// for budgets k = 0..|lattice|, the storage amplification and workload mean
// latency of each model's selection. The "sweet spot" knee the demo lets
// users find is visible as diminishing speedup per added triple.
func E3BudgetSweep(env *Env, models []cost.Model, budgets []int) (*benchkit.Table, error) {
	if len(budgets) == 0 {
		n := env.System.Lattice.Size()
		for k := 0; k <= n; k += max(1, n/8) {
			budgets = append(budgets, k)
		}
	}
	t := benchkit.NewTable(
		fmt.Sprintf("E3: Budget sweep (panel ③) — %s, %d queries", env.Dataset, len(env.Workload.Queries)),
		"model", "k", "added triples", "amplification", "mean", "hit rate")
	for _, m := range models {
		for _, k := range budgets {
			sel, err := env.System.SelectViews(m, k)
			if err != nil {
				return nil, err
			}
			if _, err := env.System.Materialize(sel); err != nil {
				return nil, err
			}
			rep, err := env.System.RunWorkload(env.Workload)
			if err != nil {
				return nil, err
			}
			t.AddRow(m.Name(), fmt.Sprint(k),
				fmt.Sprint(env.System.Catalog.AddedTriples()),
				benchkit.FmtFloat(env.System.Catalog.StorageAmplification()),
				benchkit.FmtDuration(rep.Timing.Mean()),
				fmt.Sprintf("%.0f%%", rep.HitRate()*100),
			)
			env.System.Reset()
		}
	}
	return t, nil
}

// E4QueryAnalyzer reproduces GUI panel ④ — the per-query drill-down: for
// every workload query, the answering source and the time via views versus
// directly on the base graph.
func E4QueryAnalyzer(env *Env, m cost.Model, k int) (*benchkit.Table, error) {
	sel, err := env.System.SelectViews(m, k)
	if err != nil {
		return nil, err
	}
	if _, err := env.System.Materialize(sel); err != nil {
		return nil, err
	}
	withViews, err := env.System.RunWorkload(env.Workload)
	if err != nil {
		return nil, err
	}
	env.System.Reset()
	baseline, err := env.System.RunWorkload(env.Workload)
	if err != nil {
		return nil, err
	}
	t := benchkit.NewTable(
		fmt.Sprintf("E4: Query performance analyzer (panel ④) — %s, model=%s, k=%d", env.Dataset, m.Name(), k),
		"query", "group dims", "filters", "via", "rows", "t(view)", "t(base)", "speedup")
	for i, q := range env.Workload.Queries {
		v := withViews.PerQuery[i]
		b := baseline.PerQuery[i]
		speedup := 0.0
		if v.Elapsed > 0 {
			speedup = float64(b.Elapsed) / float64(v.Elapsed)
		}
		t.AddRow(
			fmt.Sprintf("Q%02d", i),
			maskDims(env.System.Facet, q.GroupMask),
			maskDims(env.System.Facet, q.FilterMask),
			v.Via,
			fmt.Sprint(v.Rows),
			benchkit.FmtDuration(v.Elapsed),
			benchkit.FmtDuration(b.Elapsed),
			fmt.Sprintf("%.2fx", speedup),
		)
	}
	return t, nil
}

// maskDims renders a dimension mask as its variable names.
func maskDims(f *facet.Facet, m facet.Mask) string {
	if m == 0 {
		return "-"
	}
	return f.View(m).ID()
}

// E5CostFidelity measures, per model, how well the estimated costs rank the
// views against ground-truth measured per-view query times (Spearman rank
// correlation). This quantifies the paper's core claim that relational
// proxies can mis-rank views on knowledge graphs.
func E5CostFidelity(env *Env, models []cost.Model, probesPerView int) (*benchkit.Table, map[string]float64, error) {
	l := env.System.Lattice
	times, err := cost.MeasureViewTimes(env.System.Graph, l, l.Views(), probesPerView, env.Seed+77)
	if err != nil {
		return nil, nil, err
	}
	actual := make([]float64, 0, l.Size())
	views := l.Views()
	for _, v := range views {
		actual = append(actual, float64(times[v.Mask].Microseconds()))
	}
	t := benchkit.NewTable(
		fmt.Sprintf("E5: Cost model fidelity — %s (Spearman ρ of estimate vs measured µs over %d views)", env.Dataset, l.Size()),
		"model", "spearman", "top-view agree", "bottom-view agree")
	rhos := make(map[string]float64, len(models))
	for _, m := range models {
		est := make([]float64, 0, len(views))
		for _, v := range views {
			est = append(est, m.Cost(v))
		}
		rho := benchkit.Spearman(est, actual)
		rhos[m.Name()] = rho
		t.AddRow(m.Name(),
			fmtRho(rho),
			agree(views, est, actual, true),
			agree(views, est, actual, false),
		)
	}
	return t, rhos, nil
}

// fmtRho renders a correlation, NaN-safe.
func fmtRho(r float64) string {
	if math.IsNaN(r) {
		return "n/a"
	}
	return fmt.Sprintf("%+.3f", r)
}

// agree reports whether the model's cheapest (or most expensive) view
// matches the ground truth's.
func agree(views []facet.View, est, actual []float64, cheapest bool) string {
	pick := func(xs []float64) int {
		best := 0
		for i, x := range xs {
			if (cheapest && x < xs[best]) || (!cheapest && x > xs[best]) {
				best = i
			}
		}
		return best
	}
	if views[pick(est)].Mask == views[pick(actual)].Mask {
		return "yes"
	}
	return "no"
}

// E6LearnedTraining trains the learned model with a holdout and reports the
// loss trajectory and holdout error, alongside the resulting fidelity.
func E6LearnedTraining(env *Env, cfg cost.TrainConfig) (*benchkit.Table, *cost.TrainResult, error) {
	res, err := env.System.TrainLearned(cfg)
	if err != nil {
		return nil, nil, err
	}
	t := benchkit.NewTable(
		fmt.Sprintf("E6: Learned cost model training — %s", env.Dataset),
		"metric", "value")
	t.AddRow("training samples", fmt.Sprint(res.Samples))
	t.AddRow("epochs", fmt.Sprint(len(res.LossCurve)))
	if n := len(res.LossCurve); n > 0 {
		t.AddRow("initial MSE (log-µs)", fmt.Sprintf("%.4f", res.LossCurve[0]))
		t.AddRow("final MSE (log-µs)", fmt.Sprintf("%.4f", res.LossCurve[n-1]))
		if q := res.LossCurve[n/4]; q > 0 {
			t.AddRow("MSE at 25% epochs", fmt.Sprintf("%.4f", q))
		}
	}
	if res.HoldoutErr > 0 {
		t.AddRow("holdout mean relative error", fmt.Sprintf("%.2f", res.HoldoutErr))
	}
	t.AddRow("predicted base cost (µs)", benchkit.FmtFloat(res.Model.BaseCost()))
	return t, res, nil
}

// E7MemoryBudget compares the view-count budget against the memory budget
// variant at matched sizes: select under bytes budgets and report what fits.
func E7MemoryBudget(env *Env, m cost.Model, budgets []int64) (*benchkit.Table, error) {
	p, err := env.System.Provider()
	if err != nil {
		return nil, err
	}
	if len(budgets) == 0 {
		// Derive budgets from the lattice's total bytes: 5%, 20%, 50%, 100%.
		var total int64
		for _, st := range p.AllStats() {
			total += st.Bytes
		}
		budgets = []int64{total / 20, total / 5, total / 2, total}
	}
	t := benchkit.NewTable(
		fmt.Sprintf("E7: Memory-budget selection — %s, model=%s", env.Dataset, m.Name()),
		"budget", "views selected", "bytes used", "added triples", "mean", "hit rate")
	for _, b := range budgets {
		sel, err := env.System.SelectViewsByMemory(m, b)
		if err != nil {
			return nil, err
		}
		var used int64
		for _, v := range sel.Views {
			used += p.MustStats(v.Mask).Bytes
		}
		if _, err := env.System.Materialize(sel); err != nil {
			return nil, err
		}
		rep, err := env.System.RunWorkload(env.Workload)
		if err != nil {
			return nil, err
		}
		t.AddRow(benchkit.FmtBytes(b),
			fmt.Sprint(len(sel.Views)),
			benchkit.FmtBytes(used),
			fmt.Sprint(env.System.Catalog.AddedTriples()),
			benchkit.FmtDuration(rep.Timing.Mean()),
			fmt.Sprintf("%.0f%%", rep.HitRate()*100),
		)
		env.System.Reset()
	}
	return t, nil
}

// E8Challenge reproduces the hands-on challenge: with ground-truth per-view
// times as the objective, compare each model's greedy selection against the
// exhaustive optimum at small k — the "regret" a conference participant
// would try to beat.
func E8Challenge(env *Env, models []cost.Model, k int, probesPerView int) (*benchkit.Table, error) {
	l := env.System.Lattice
	times, err := cost.MeasureViewTimes(env.System.Graph, l, l.Views(), probesPerView, env.Seed+99)
	if err != nil {
		return nil, err
	}
	baseTime, err := cost.MeasureBaseTime(env.System.Graph, l, probesPerView, env.Seed+100)
	if err != nil {
		return nil, err
	}
	truth := &cost.UserModel{
		Label: "measured",
		Costs: make(map[facet.Mask]float64, l.Size()),
		BaseC: float64(baseTime.Microseconds()),
	}
	for mask, d := range times {
		truth.Costs[mask] = float64(d.Microseconds())
	}
	opt, err := selection.Exhaustive(l, truth, k)
	if err != nil {
		return nil, err
	}
	t := benchkit.NewTable(
		fmt.Sprintf("E8: Hands-on challenge — %s, k=%d (objective: measured total µs)", env.Dataset, k),
		"strategy", "views", "total cost (µs)", "regret vs optimal")
	t.AddRow("optimal", viewIDs(opt.Views), benchkit.FmtFloat(opt.TotalCost), "1.00x")
	for _, m := range models {
		sel, err := selection.Greedy(l, m, k)
		if err != nil {
			return nil, err
		}
		c := selection.TotalCost(l, truth, sel.Views)
		regret := c / opt.TotalCost
		t.AddRow("greedy/"+m.Name(), viewIDs(sel.Views), benchkit.FmtFloat(c), fmt.Sprintf("%.2fx", regret))
	}
	// Greedy under the truth itself: how close HRU gets with a perfect model.
	tSel, err := selection.Greedy(l, truth, k)
	if err != nil {
		return nil, err
	}
	c := selection.TotalCost(l, truth, tSel.Views)
	t.AddRow("greedy/measured", viewIDs(tSel.Views), benchkit.FmtFloat(c), fmt.Sprintf("%.2fx", c/opt.TotalCost))
	return t, nil
}

// E9WorkloadSkew studies how workload shape changes the verdict: the same
// model/budget evaluated against workloads with increasing FILTER
// specialization. Filters demand views carrying the filtered dimension, so
// hit rates and speedups shift with skew — a demo insight beyond any single
// panel.
func E9WorkloadSkew(env *Env, m cost.Model, k int, filterProbs []float64) (*benchkit.Table, error) {
	if len(filterProbs) == 0 {
		filterProbs = []float64{0.05, 0.3, 0.7}
	}
	t := benchkit.NewTable(
		fmt.Sprintf("E9: Workload skew — %s, model=%s, k=%d", env.Dataset, m.Name(), k),
		"filter prob", "filtered queries", "mean", "p95", "hit rate", "speedup vs no views")
	sel, err := env.System.SelectViews(m, k)
	if err != nil {
		return nil, err
	}
	for _, fp := range filterProbs {
		w, err := env.System.GenerateWorkload(workloadConfig(env.Seed+int64(fp*100), len(env.Workload.Queries), fp))
		if err != nil {
			return nil, err
		}
		// Baseline without views.
		env.System.Reset()
		baseRep, err := env.System.RunWorkload(w)
		if err != nil {
			return nil, err
		}
		if _, err := env.System.Materialize(sel); err != nil {
			return nil, err
		}
		rep, err := env.System.RunWorkload(w)
		if err != nil {
			return nil, err
		}
		env.System.Reset()
		speedup := 0.0
		if rep.Timing.Mean() > 0 {
			speedup = float64(baseRep.Timing.Mean()) / float64(rep.Timing.Mean())
		}
		t.AddRow(
			fmt.Sprintf("%.2f", fp),
			fmt.Sprint(w.Summarize().WithFilters),
			benchkit.FmtDuration(rep.Timing.Mean()),
			benchkit.FmtDuration(rep.Timing.P95()),
			fmt.Sprintf("%.0f%%", rep.HitRate()*100),
			fmt.Sprintf("%.2fx", speedup),
		)
	}
	return t, nil
}

// workloadConfig builds a workload config for the skew study.
func workloadConfig(seed int64, size int, filterProb float64) workload.Config {
	return workload.Config{Size: size, Seed: seed, FilterProb: filterProb}
}

// E10EstimatedModel contrasts the statistics-only estimated model against
// the exact analytic models: offline preparation time (snapshot vs full
// lattice pass) and ranking fidelity versus the exact aggregated-values
// quantity. This quantifies what a "native graph-aware model" buys.
func E10EstimatedModel(env *Env) (*benchkit.Table, error) {
	s := env.System
	// Time the two offline paths, both from scratch for a fair comparison.
	statsStart := time.Now()
	est := s.EstimatedModel()
	statsElapsed := time.Since(statsStart)
	provStart := time.Now()
	p, err := cost.NewProvider(s.Graph, s.Lattice)
	if err != nil {
		return nil, err
	}
	provElapsed := time.Since(provStart)

	exact := &cost.AggValuesModel{Provider: p}
	var estCosts, exactCosts []float64
	for _, v := range s.Lattice.Views() {
		estCosts = append(estCosts, est.Cost(v))
		exactCosts = append(exactCosts, exact.Cost(v))
	}
	rho := benchkit.Spearman(estCosts, exactCosts)

	estSel, err := s.SelectViews(est, 3)
	if err != nil {
		return nil, err
	}
	exactSel, err := s.SelectViews(exact, 3)
	if err != nil {
		return nil, err
	}
	overlap := 0
	for _, v := range estSel.Views {
		for _, w := range exactSel.Views {
			if v.Mask == w.Mask {
				overlap++
			}
		}
	}
	t := benchkit.NewTable(
		fmt.Sprintf("E10: Estimated (statistics-only) vs exact cost model — %s", env.Dataset),
		"metric", "value")
	t.AddRow("offline time: statistics snapshot", benchkit.FmtDuration(statsElapsed))
	t.AddRow("offline time: full lattice pass", benchkit.FmtDuration(provElapsed))
	t.AddRow("Spearman(estimated, exact groups)", fmtRho(rho))
	t.AddRow("k=3 selection overlap", fmt.Sprintf("%d/3", overlap))
	t.AddRow("estimated picks", viewIDs(estSel.Views))
	t.AddRow("exact picks", viewIDs(exactSel.Views))
	return t, nil
}

// viewIDs renders a view list compactly.
func viewIDs(vs []facet.View) string {
	ids := make([]string, len(vs))
	for i, v := range vs {
		ids[i] = v.ID()
	}
	sort.Strings(ids)
	out := ""
	for i, id := range ids {
		if i > 0 {
			out += " "
		}
		out += id
	}
	return out
}

// max returns the larger int (Go 1.22 builtin min/max are available but a
// named helper keeps call sites readable for slices of budgets).
func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MeasureAllWithOptions runs every experiment (E1–E10) under the given
// system options, returning the rendered tables in order. Used by
// cmd/sofos-bench, which pins the worker count from the command line.
func MeasureAllWithOptions(seed int64, workloadSize, k int, quick bool, opts core.Options) ([]*benchkit.Table, error) {
	envs, err := defaultEnvs(seed, workloadSize, opts)
	if err != nil {
		return nil, err
	}
	var tables []*benchkit.Table

	t1, err := E1FullLattice(envs)
	if err != nil {
		return nil, fmt.Errorf("E1: %w", err)
	}
	tables = append(tables, t1)

	probes := 3
	epochs := 300
	if quick {
		probes = 2
		epochs = 120
	}

	for _, env := range envs {
		// Train the learned model once per dataset; reuse in E2 and E5.
		trainT, trainRes, err := E6LearnedTraining(env, cost.TrainConfig{
			ProbesPerView: probes, Seed: env.Seed + 5, Epochs: epochs,
			SampleLimit: envSampleLimit(env),
		})
		if err != nil {
			return nil, fmt.Errorf("E6 %s: %w", env.Dataset, err)
		}

		t2, err := E2CostModels(env, k, trainRes.Model)
		if err != nil {
			return nil, fmt.Errorf("E2 %s: %w", env.Dataset, err)
		}
		tables = append(tables, t2)

		models, err := env.System.AnalyticModels(env.Seed)
		if err != nil {
			return nil, err
		}
		withLearned := append(append([]cost.Model(nil), models...), trainRes.Model)

		t5, _, err := E5CostFidelity(env, withLearned, probes)
		if err != nil {
			return nil, fmt.Errorf("E5 %s: %w", env.Dataset, err)
		}
		tables = append(tables, t5, trainT)

		t4, err := E4QueryAnalyzer(env, models[2], k)
		if err != nil {
			return nil, fmt.Errorf("E4 %s: %w", env.Dataset, err)
		}
		tables = append(tables, t4)
	}

	// E3 and E7 on the DBpedia environment (the paper's running example).
	dbp := envs[1]
	models, err := dbp.System.AnalyticModels(dbp.Seed)
	if err != nil {
		return nil, err
	}
	t3, err := E3BudgetSweep(dbp, models, nil)
	if err != nil {
		return nil, fmt.Errorf("E3: %w", err)
	}
	tables = append(tables, t3)

	t7, err := E7MemoryBudget(dbp, models[2], nil)
	if err != nil {
		return nil, fmt.Errorf("E7: %w", err)
	}
	tables = append(tables, t7)

	// E8 on SWDF (small lattice keeps the exhaustive search cheap).
	swdf := envs[2]
	sModels, err := swdf.System.AnalyticModels(swdf.Seed)
	if err != nil {
		return nil, err
	}
	t8, err := E8Challenge(swdf, sModels, 2, probes)
	if err != nil {
		return nil, fmt.Errorf("E8: %w", err)
	}
	tables = append(tables, t8)

	// E9 on DBpedia: workload-skew sensitivity.
	t9, err := E9WorkloadSkew(dbp, models[2], k, nil)
	if err != nil {
		return nil, fmt.Errorf("E9: %w", err)
	}
	tables = append(tables, t9)

	// E10 on every dataset: estimated vs exact offline paths.
	for _, env := range envs {
		t10, err := E10EstimatedModel(env)
		if err != nil {
			return nil, fmt.Errorf("E10 %s: %w", env.Dataset, err)
		}
		tables = append(tables, t10)
	}
	return tables, nil
}

// envSampleLimit holds out a quarter of the lattice for learned-model
// evaluation on lattices big enough to afford it.
func envSampleLimit(env *Env) int {
	n := env.System.Lattice.Size()
	if n >= 16 {
		return n * 3 / 4
	}
	return 0
}
