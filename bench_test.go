// Package sofos_test holds the microbenchmarks that have no per-layer twin
// in the bench/ module: one benchmark per paper experiment (E1–E10, covering
// every panel of the paper's Figure 3 and the demo scenario of §4), the
// delta-overlay cost curve, the roll-up and join-order ablations, the codec
// axis, WAL append, recovery, and the observability overhead.
// Layers that bench/ already times (store build and scans, engine execution,
// materialization, selection, refresh, snapshots, serving) are measured
// there, against a real sofos-serve, with a noise floor.
//
// Run everything once with:
//
//	go test -run '^$' -bench . -benchtime 1x .
//
// The experiment benchmarks time the experiments and discard their tables;
// cmd/sofos-bench renders the formatted report.
package sofos_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"sofos/internal/core"
	"sofos/internal/cost"
	"sofos/internal/datasets"
	"sofos/internal/engine"
	"sofos/internal/experiments"
	"sofos/internal/facet"
	"sofos/internal/persist"
	"sofos/internal/rdf"
	"sofos/internal/server"
	"sofos/internal/store"
	"sofos/internal/views"
	"sofos/internal/workload"
)

// benchEnv caches one experiment environment per dataset across benchmarks.
var benchEnvs = map[string]*experiments.Env{}

func env(b *testing.B, dataset string, scale, wl int) *experiments.Env {
	b.Helper()
	key := fmt.Sprintf("%s/%d/%d", dataset, scale, wl)
	if e, ok := benchEnvs[key]; ok {
		return e
	}
	e, err := experiments.NewEnvWithOptions(dataset, scale, 1, wl, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchEnvs[key] = e
	return e
}

// --- E1: Full lattice exploration (Fig. 3 panel ①) ---

func BenchmarkE1FullLattice(b *testing.B) {
	envs := []*experiments.Env{
		env(b, "lubm", 2, 10),
		env(b, "dbpedia", 40, 10),
		env(b, "swdf", 5, 10),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E1FullLattice(envs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: Cost model comparison (Fig. 3 panel ②) ---

func BenchmarkE2CostModels(b *testing.B) {
	for _, ds := range []struct {
		name  string
		scale int
	}{{"lubm", 1}, {"dbpedia", 25}, {"swdf", 4}} {
		b.Run(ds.name, func(b *testing.B) {
			e := env(b, ds.name, ds.scale, 20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.E2CostModels(e, 3, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E3: Budget sweep / space-time trade-off (Fig. 3 panel ③) ---

func BenchmarkE3BudgetSweep(b *testing.B) {
	e := env(b, "dbpedia", 25, 15)
	models, err := e.System.AnalyticModels(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E3BudgetSweep(e, models[2:3], []int{0, 2, 4, 8, 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: Query performance analyzer (Fig. 3 panel ④) ---

func BenchmarkE4QueryAnalyzer(b *testing.B) {
	e := env(b, "dbpedia", 25, 15)
	models, err := e.System.AnalyticModels(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E4QueryAnalyzer(e, models[2], 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: Cost model fidelity (rank correlation vs measured times) ---

func BenchmarkE5CostFidelity(b *testing.B) {
	e := env(b, "lubm", 1, 10)
	models, err := e.System.AnalyticModels(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.E5CostFidelity(e, models, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: Learned cost model training ---

func BenchmarkE6LearnedModel(b *testing.B) {
	e := env(b, "lubm", 1, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.E6LearnedTraining(e, cost.TrainConfig{
			ProbesPerView: 2, Seed: int64(i + 1), Epochs: 100,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: Memory-budget selection variant ---

func BenchmarkE7MemoryBudget(b *testing.B) {
	e := env(b, "dbpedia", 25, 15)
	models, err := e.System.AnalyticModels(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E7MemoryBudget(e, models[2], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: Hands-on challenge (greedy vs exhaustive optimum) ---

func BenchmarkE8Challenge(b *testing.B) {
	e := env(b, "swdf", 4, 10)
	models, err := e.System.AnalyticModels(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E8Challenge(e, models, 2, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: Workload skew sensitivity ---

func BenchmarkE9WorkloadSkew(b *testing.B) {
	e := env(b, "dbpedia", 25, 15)
	models, err := e.System.AnalyticModels(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E9WorkloadSkew(e, models[2], 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: Estimated vs exact cost model offline paths ---

func BenchmarkE10EstimatedModel(b *testing.B) {
	e := env(b, "dbpedia", 25, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E10EstimatedModel(e); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkStoreInsert measures dictionary-encoded triple insertion, one
// write per triple.
func BenchmarkStoreInsert(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := store.NewGraph()
		for t := 0; t < 1000; t++ {
			if _, err := g.Apply([]rdf.Triple{{
				S: rdf.NewIRI(fmt.Sprintf("http://ex.org/s%d", t%100)),
				P: rdf.NewIRI(fmt.Sprintf("http://ex.org/p%d", t%10)),
				O: rdf.NewInteger(int64(t)),
			}}, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// overlayGraphs returns dbpedia@2000 under delta overlays of 0, 64, 1024 and
// 16384 inserts, plus 2000 (subject, predicate) probes. The overlays come from
// OverlayWith, which never compacts, so the sizes hold even where they exceed
// the auto-compaction threshold; the inserts recombine terms the graph already
// has, because OverlayWith skips triples with unknown terms.
func overlayGraphs(b *testing.B) (sizes []int, graphs []*store.Graph, probes [][2]rdf.ID) {
	b.Helper()
	g, _, err := datasets.BuildWithFacet("dbpedia", 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	ts := g.Triples()
	var extra []rdf.Triple
	for i := 0; len(extra) < 16384; i++ {
		if i == len(ts) {
			b.Fatal("graph too small to recombine 16384 new triples")
		}
		x := rdf.Triple{S: ts[i].S, P: ts[i].P, O: ts[(i+len(ts)/2)%len(ts)].S}
		if !g.Contains(x) {
			extra = append(extra, x)
		}
	}
	for i := 0; i < 2000; i++ {
		x := ts[i*len(ts)/2000]
		s, _ := g.Dict().Lookup(x.S)
		p, _ := g.Dict().Lookup(x.P)
		probes = append(probes, [2]rdf.ID{s, p})
	}
	sizes = []int{0, 64, 1024, 16384}
	for _, n := range sizes {
		// Every n-th triple, so each overlay spans the whole subject range.
		var sample []rdf.Triple
		for i := 0; n > 0 && i < len(extra); i += len(extra) / n {
			sample = append(sample, extra[i])
		}
		og := g.OverlayWith(sample)
		if got := og.MemStats().OverlayAdds; got != n {
			b.Fatalf("overlay holds %d inserts, want %d", got, n)
		}
		graphs = append(graphs, og)
	}
	return sizes, graphs, probes
}

// BenchmarkPointScanOverOverlay measures the (s, p, ?) point scan an
// index-nested-loop join issues by the thousand (one op = 2000 of them),
// against the size of the delta overlay it has to consult: the cost curve of
// reading beside a writer.
func BenchmarkPointScanOverOverlay(b *testing.B) {
	sizes, graphs, probes := overlayGraphs(b)
	for i, g := range graphs {
		b.Run(fmt.Sprintf("overlay=%d", sizes[i]), func(b *testing.B) {
			var it store.Iterator
			pass := func() (n int) {
				for _, pr := range probes {
					g.ScanInto(&it, pr[0], pr[1], rdf.NoID)
					for it.Next() {
						n++
					}
				}
				return n
			}
			if pass() == 0 { // also the warm-up: the iterator's arena is allocated once
				b.Fatal("no matches")
			}
			b.ReportAllocs()
			b.ResetTimer()
			// One op is a pass over all 2000 probes, so that CI's -benchtime 1x
			// sample is 2000 scans, not one cold one.
			for i := 0; i < b.N; i++ {
				pass()
			}
		})
	}
}

// BenchmarkGraphFork measures the copy-on-write fork every transaction
// starts with (one op = 100 forks), against the size of the overlay the fork
// inherits.
func BenchmarkGraphFork(b *testing.B) {
	sizes, graphs, _ := overlayGraphs(b)
	for i, g := range graphs {
		b.Run(fmt.Sprintf("overlay=%d", sizes[i]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 100; j++ { // 100 forks per op: see above
					if f := g.Fork(); f.Len() != g.Len() {
						b.Fatal("bad fork")
					}
				}
			}
		})
	}
}

// BenchmarkRollUp measures the ancestor roll-up fast path: computing a child
// view from a materialized parent instead of from G.
func BenchmarkRollUp(b *testing.B) {
	g, f, err := datasets.BuildWithFacet("dbpedia", 40, 1)
	if err != nil {
		b.Fatal(err)
	}
	top, err := views.Compute(engine.New(g), f.View(f.FullMask()))
	if err != nil {
		b.Fatal(err)
	}
	child := f.View(facet.Mask(0b11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := views.RollUp(top, child); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRollUpVsBaseAblation contrasts the two materialization paths for
// the same child view: from the base graph vs from the top view.
func BenchmarkRollUpVsBaseAblation(b *testing.B) {
	g, f, err := datasets.BuildWithFacet("dbpedia", 40, 1)
	if err != nil {
		b.Fatal(err)
	}
	child := f.View(facet.Mask(0b11))
	b.Run("from-base", func(b *testing.B) {
		eng := engine.New(g)
		for i := 0; i < b.N; i++ {
			if _, err := views.Compute(eng, child); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("from-top-rollup", func(b *testing.B) {
		top, err := views.Compute(engine.New(g), f.View(f.FullMask()))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := views.RollUp(top, child); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJoinOrderAblation contrasts greedy selectivity-based join
// ordering against naive text-order execution on the facet template query
// (the planner ablation).
func BenchmarkJoinOrderAblation(b *testing.B) {
	g, f, err := datasets.BuildWithFacet("dbpedia", 40, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := f.TemplateQuery()
	b.Run("greedy-order", func(b *testing.B) {
		eng := engine.New(g)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Execute(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-order", func(b *testing.B) {
		eng := engine.NewWithOptions(g, engine.Options{NaiveOrder: true})
		for i := 0; i < b.N; i++ {
			if _, err := eng.Execute(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Codec: block-compressed snapshot loads ---

// BenchmarkSnapshotLoadCodec measures cold heap loads of the paged (v3)
// snapshot of a block graph, whose payloads are installed verbatim. The
// snapshot_bytes metric reports the serialized size.
func BenchmarkSnapshotLoadCodec(b *testing.B) {
	for _, ds := range []struct {
		name  string
		scale int
	}{{"lubm", 100}, {"dbpedia", 2000}} {
		b.Run(fmt.Sprintf("%s@%d/block", ds.name, ds.scale), func(b *testing.B) {
			g, _, err := datasets.BuildWithFacet(ds.name, ds.scale, 1)
			if err != nil {
				b.Fatal(err)
			}
			g.Compact()
			var buf bytes.Buffer
			if err := g.Save(&buf); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loaded, err := store.Load(bytes.NewReader(buf.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				if loaded.Len() != g.Len() {
					b.Fatalf("loaded %d triples, want %d", loaded.Len(), g.Len())
				}
			}
			// After ResetTimer: it clears custom metrics on recent Go.
			b.ReportMetric(float64(buf.Len()), "snapshot_bytes")
		})
	}
}

// BenchmarkWorkloadGeneration measures query generation throughput.
func BenchmarkWorkloadGeneration(b *testing.B) {
	g, f, err := datasets.BuildWithFacet("swdf", 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(g, f, workload.Config{Size: 50, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracedQueryOverhead measures the observability tax on the hottest
// serving path — a fully cached repeated workload — instrumented (the
// default) vs -obs=off. The acceptance bar is a ≤5% regression: per request
// the instrumented hot path costs one pooled trace, two pooled spans, a
// counter increment, a histogram observation, and a ring insert.
func BenchmarkTracedQueryOverhead(b *testing.B) {
	round := func(b *testing.B, h http.Handler, wl *workload.Workload) {
		for _, q := range wl.Queries {
			body, _ := json.Marshal(map[string]string{"query": q.Text})
			req := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
			}
		}
	}
	for _, v := range []struct {
		name string
		off  bool
	}{{"obs-on", false}, {"obs-off", true}} {
		b.Run(v.name, func(b *testing.B) {
			e := env(b, "dbpedia", 150, 20)
			h := server.New(e.System, server.Config{ObsOff: v.off}).Handler()
			round(b, h, e.Workload) // warm the cache: timed rounds are pure hits
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round(b, h, e.Workload)
			}
		})
	}
}

// --- Durability: WAL append and crash recovery ---

// walBenchRecord builds a representative /update batch record: six triples,
// the shape of one dbpedia observation.
func walBenchRecord(i int) *persist.Record {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://dbpedia.org/property/" + s) }
	obs := rdf.NewIRI(fmt.Sprintf("http://ex.org/obs%d", i))
	c := rdf.NewIRI(fmt.Sprintf("http://ex.org/c%d", i))
	return &persist.Record{
		FromVersion: int64(i * 6), ToVersion: int64(i*6 + 6), Generation: int64(i),
		Inserts: []rdf.Triple{
			{S: obs, P: iri("country"), O: c},
			{S: c, P: iri("name"), O: rdf.NewLiteral(fmt.Sprintf("X%d", i))},
			{S: c, P: iri("continent"), O: rdf.NewLiteral("Atlantis")},
			{S: obs, P: iri("language"), O: rdf.NewLiteral("xx")},
			{S: obs, P: iri("year"), O: rdf.NewYear(2020)},
			{S: obs, P: iri("population"), O: rdf.NewInteger(int64(i))},
		},
	}
}

// BenchmarkWALAppend measures the per-batch durability cost of each fsync
// policy — the latency the write-ahead log adds inside the /update critical
// section before a batch can be acknowledged.
func BenchmarkWALAppend(b *testing.B) {
	for _, policy := range []persist.SyncPolicy{persist.SyncAlways, persist.SyncInterval, persist.SyncNone} {
		b.Run(policy.String(), func(b *testing.B) {
			l, err := persist.OpenLog(b.TempDir(), policy)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			rec := walBenchRecord(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchDataDir builds a data directory: a checkpointed dbpedia system with
// the full view materialized, plus n WAL-logged eagerly maintained batches
// past the checkpoint.
func benchDataDir(b *testing.B, path string, n int) {
	b.Helper()
	g, f, err := datasets.BuildWithFacet("dbpedia", 40, 1)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewWithOptions(g, f, core.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Catalog.Materialize(f.View(f.FullMask())); err != nil {
		b.Fatal(err)
	}
	dir, err := persist.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	l, err := persist.OpenLog(dir.WALDir(), persist.SyncNone)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	if _, err := dir.WriteCheckpoint(persist.Manifest{
		Dataset: "dbpedia", Scale: 40, Seed: 1,
		GraphVersion: sys.GraphVersion(), Generation: sys.Generation(), WALSeq: 1,
	}, sys.Graph.Save, sys.Catalog.SaveState); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := walBenchRecord(i)
		d, err := sys.ApplyUpdate(rec.Inserts, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Catalog.RefreshAllParallel(sys.Workers); err != nil {
			b.Fatal(err)
		}
		if err := l.Append(&persist.Record{
			FromVersion: d.FromVersion, ToVersion: d.ToVersion,
			Generation: sys.Generation(), Eager: true,
			Inserts: d.Inserted, Deletes: d.Deleted,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery measures crash recovery at dbpedia@40 along the WAL
// suffix length: checkpoint alone versus checkpoint plus an N-batch replay
// through the incremental maintenance path — the gap is the per-batch replay
// cost, O(|ΔG|) not O(|G|). The snapshot_load_us metric isolates the
// snapshot-load share of recovery.
func BenchmarkRecovery(b *testing.B) {
	_, f, err := datasets.BuildWithFacet("dbpedia", 40, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{0, 16, 64} {
		b.Run(fmt.Sprintf("replay%d", n), func(b *testing.B) {
			path := b.TempDir()
			benchDataDir(b, path, n)
			dir, err := persist.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			var loadUS int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, rec, err := core.Restore(dir, f, core.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if rec.ReplayedBatches != n || sys.Graph.Len() == 0 {
					b.Fatalf("replayed %d batches, want %d", rec.ReplayedBatches, n)
				}
				loadUS = rec.SnapshotLoadUS
			}
			b.ReportMetric(float64(loadUS), "snapshot_load_us")
		})
	}
}
