package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sofos/internal/algebra"
	"sofos/internal/api"
	"sofos/internal/client"
	"sofos/internal/core"
	"sofos/internal/cost"
	"sofos/internal/datasets"
	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/persist"
	"sofos/internal/rdf"
	"sofos/internal/rewrite"
	"sofos/internal/selection"
	"sofos/internal/server"
	"sofos/internal/sparql"
	"sofos/internal/store"
	"sofos/internal/views"
)

const (
	traceQueries = 128 // half a shape block: every other shape, in scattered order
	traceTxns    = 32
)

// span is one call into a layer's public functions, timed by the benchmark
// from outside the program.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`     // operation (query, update, build step) the span belongs to
	Parent  int    `json:"parent"` // index of the enclosing span, -1 for an operation's root
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. With off set it still
// times but records nothing: the difference is the tracing overhead.
type tracer struct {
	t0    time.Time
	spans []span
	off   bool
	op    int // current operation id
	root  int // current operation's root span, -1 outside an operation
}

// operation runs fn as one operation under a root span.
func (t *tracer) operation(name string, fn func()) {
	t.op++
	t.root = -1
	root := len(t.spans)
	t.timed(name, func() { t.root = root; fn() })
	t.root = -1
}

// timed runs fn under a span of the current operation and returns its duration.
func (t *tracer) timed(name string, fn func()) time.Duration {
	if t.off {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.root})
	start := time.Now()
	fn()
	end := time.Now()
	t.spans[idx].StartNS, t.spans[idx].EndNS = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	return end.Sub(start)
}

// write stores the spans with each root's self time (span minus children)
// and fails on a negative one.
func (t *tracer) write(path string) error {
	self := map[int]int64{}
	for i, s := range t.spans {
		if s.Parent < 0 {
			self[i] += s.EndNS - s.StartNS
		} else {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	type rootSelf struct {
		Span   int   `json:"span"`
		SelfNS int64 `json:"self_ns"`
	}
	var roots []rootSelf
	for i, ns := range self {
		if ns < 0 {
			return fmt.Errorf("span %d (%s) has negative self time %d ns", i, t.spans[i].Name, ns)
		}
		roots = append(roots, rootSelf{i, ns})
	}
	sort.Slice(roots, func(a, b int) bool { return roots[a].Span < roots[b].Span })
	raw, err := json.Marshal(struct {
		Spans []span     `json:"spans"`
		Self  []rootSelf `json:"root_self"`
	}{t.spans, roots})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// layers collects per-layer samples; every metric is the median of its samples.
type layers struct {
	tr      *tracer
	samples map[string][]float64
	units   map[string]string
	order   []string
}

// declare registers a metric so that it is reported even without samples.
func (l *layers) declare(name, unit string) {
	if _, ok := l.units[name]; !ok {
		l.units[name] = unit
		l.order = append(l.order, name)
	}
}

func (l *layers) obs(name, unit string, v float64) {
	l.declare(name, unit)
	l.samples[name] = append(l.samples[name], v)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mallocs counts heap allocations and bytes made by fn.
func mallocs(fn func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// call is one request to the server's handler, prepared ahead so that only
// ServeHTTP is timed, and decoded afterwards.
type call struct {
	req *http.Request
	rec *httptest.ResponseRecorder
}

func newCall(path string, body any) (*call, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return &call{httptest.NewRequest(http.MethodPost, api.Prefix+path, bytes.NewReader(raw)), httptest.NewRecorder()}, nil
}

func (c *call) serve(h http.Handler) { h.ServeHTTP(c.rec, c.req) }

// decode checks the status and unmarshals the response body into out.
func (c *call) decode(out any) error {
	if c.rec.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", c.req.URL.Path, c.rec.Code, c.rec.Body.String())
	}
	return json.Unmarshal(c.rec.Body.Bytes(), out)
}

// runTraced is the separate traced run behind the per-layer metrics. It
// assembles the system sofos-serve runs — same constructors, same defaults,
// durable — inside this process, and times calls into each layer's public
// functions single-goroutine: the build steps as it goes, then a fixed seeded
// sample of queries and of update transactions. The sample is the head of the
// seed's streams, not any workload's traffic, so a run makes one traced pass.
func runTraced(cfg config) (*result, error) {
	tmp, err := os.MkdirTemp(cfg.outDir, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	l := &layers{tr: &tracer{t0: time.Now(), root: -1}, samples: map[string][]float64{}, units: map[string]string{}}
	res := &result{}
	if err := l.run(cfg, tmp, res); err != nil {
		return nil, err
	}
	for _, name := range l.order {
		res.add(name, l.units[name], median(l.samples[name]), len(l.samples[name]))
	}
	// How the spans reconcile: what parse and cache key are of a cache hit,
	// and whether answering plus the handler's own share add up to a miss.
	med := func(name string) float64 { return median(l.samples[name]) }
	var answers []float64
	for _, o := range []string{"view_hit", "partial_rollup", "full_scan"} {
		answers = append(answers, l.samples["rewrite.answer_"+o+"_us"]...)
	}
	res.Info = []metric{
		{Name: "sparql.parse_us/server.handle_cache_hit_us", Unit: "ratio", Value: med("sparql.parse_us") / med("server.handle_cache_hit_us")},
		{Name: "rewrite.cache_key_us/server.handle_cache_hit_us", Unit: "ratio", Value: med("rewrite.cache_key_us") / med("server.handle_cache_hit_us")},
		{Name: "(rewrite.answer_us+server.handle_miss_self_us)/server.handle_miss_us", Unit: "ratio",
			Value: (median(answers) + med("server.handle_miss_self_us")) / med("server.handle_miss_us")},
		{Name: "spans", Unit: "count", Value: float64(len(l.tr.spans))},
	}
	return res, l.tr.write(filepath.Join(cfg.outDir, "trace.json"))
}

func (l *layers) run(cfg config, tmp string, res *result) error {
	tr := l.tr
	var (
		g   *store.Graph
		f   *facet.Facet
		sys *core.System
		srv *server.Server
		err error
	)
	// Build, as cmd/sofos-serve's fresh durable boot does.
	tr.operation("op.build", func() {
		l.obs("datasets.generate_ms", "ms", ms(tr.timed("datasets.generate", func() {
			g, f, err = datasets.BuildWithFacet("dbpedia", cfg.scale, cfg.seed)
		})))
	})
	if err != nil {
		return err
	}
	in, err := buildInputs(cfg.seed, cfg.scale)
	if err != nil {
		return err
	}
	triples := g.Triples()
	tr.operation("op.build", func() {
		l.obs("store.build_ms", "ms", ms(tr.timed("store.build", func() { _, err = store.BuildFrom(triples) })))
	})
	if err != nil {
		return err
	}
	var dir *persist.Dir
	var wal *persist.Log
	tr.operation("op.boot", func() {
		if sys, err = core.NewWithOptions(g, f, core.Options{}); err != nil {
			return
		}
		var provider *cost.Provider
		l.obs("cost.provider_ms", "ms", ms(tr.timed("cost.provider", func() { provider, err = sys.Provider() })))
		if err != nil {
			return
		}
		var sel *selection.Selection
		l.obs("selection.greedy_ms", "ms", ms(tr.timed("selection.greedy", func() {
			sel, err = selection.Greedy(sys.Lattice, &cost.AggValuesModel{Provider: provider}, 3)
		})))
		if err != nil {
			return
		}
		l.obs("views.materialize_ms", "ms", ms(tr.timed("views.materialize", func() { _, err = sys.Materialize(sel) })))
		if err != nil {
			return
		}
		l.obs("views.amplification", "ratio", sys.Catalog.StorageAmplification())
		if dir, err = persist.Open(filepath.Join(tmp, "data")); err != nil {
			return
		}
		if wal, err = persist.OpenLog(dir.WALDir(), persist.SyncAlways); err != nil {
			return
		}
		srv = server.New(sys, server.Config{SelectionSeed: cfg.seed,
			Durability: &server.Durability{Dir: dir, Log: wal, Dataset: "dbpedia", Scale: cfg.scale, Seed: cfg.seed}})
		l.obs("persist.checkpoint_ms", "ms", ms(tr.timed("persist.checkpoint", func() { _, err = srv.Checkpoint() })))
	})
	if err != nil {
		return err
	}
	defer wal.Close()
	diskBytes, err := dirBytes(dir.Path())
	if err != nil {
		return err
	}
	l.obs("persist.disk_bytes_per_triple", "B", float64(diskBytes)/float64(g.Len()))
	mem := g.MemStats()
	l.obs("store.bytes_per_triple", "B", float64(mem.TotalBytes)/float64(g.Len()))

	if err := l.storeLayer(sys, tmp, cfg.seed); err != nil {
		return err
	}
	if err := l.queries(srv, in, res); err != nil {
		return err
	}
	if err := l.updates(srv, in, tmp, res); err != nil {
		return err
	}

	// Recovery from what the updates left on disk: boot checkpoint plus a
	// WAL suffix of traceTxns records.
	var rec *core.RecoveryStats
	tr.operation("op.restore", func() {
		l.obs("core.restore_ms", "ms", ms(tr.timed("core.restore", func() { _, rec, err = core.Restore(dir, f, core.Options{}) })))
	})
	if err != nil {
		return err
	}
	if rec.ReplayedBatches != traceTxns || rec.Generation != srv.System().Generation() {
		res.Failed++
		fmt.Fprintf(os.Stderr, "restore replayed %d batches to generation %d, want %d and %d\n",
			rec.ReplayedBatches, rec.Generation, traceTxns, srv.System().Generation())
	}
	res.Attempted++
	l.obs("persist.replay_us_per_batch", "us", us(rec.Elapsed-rec.SnapshotLoad)/float64(rec.ReplayedBatches))
	return nil
}

// storeLayer times the store and algebra primitives the query and update
// paths are built from, and the snapshot and catalog state round trips
// recovery is built from.
func (l *layers) storeLayer(sys *core.System, tmp string, seed int64) error {
	tr, g := l.tr, sys.Graph
	var err error
	for i := 0; i < 5; i++ {
		tr.operation("op.scan", func() {
			n := 0
			d := tr.timed("store.scan", func() {
				it := g.Scan(rdf.NoID, rdf.NoID, rdf.NoID)
				for s, _, _ := it.NextSpan(); len(s) > 0; s, _, _ = it.NextSpan() {
					n += len(s)
				}
			})
			l.obs("store.scan_mtriples_per_s", "Mtriples/s", float64(n)/d.Seconds()/1e6)
		})
	}
	// Point lookups: (subject, predicate, ?) over seeded observation subjects.
	pop, ok := g.Dict().Lookup(rdf.NewIRI(dbpProp + "population"))
	if !ok {
		return fmt.Errorf("dataset has no population predicate")
	}
	rng := rand.New(rand.NewSource(seed))
	subjects := make([]rdf.ID, 0, 2000)
	for len(subjects) < cap(subjects) {
		if id, ok := g.Dict().Lookup(rdf.NewIRI(fmt.Sprintf("%sobs%d", dbpRes, rng.Intn(g.Len()/8)))); ok {
			subjects = append(subjects, id)
		}
	}
	tr.operation("op.point_match", func() {
		found := 0
		var d time.Duration
		objects, _ := mallocs(func() {
			d = tr.timed("store.point_match", func() {
				for _, s := range subjects {
					g.Match(s, pop, rdf.NoID, func(_, _, _ rdf.ID) bool { found++; return true })
				}
			})
		})
		if found != len(subjects) {
			err = fmt.Errorf("point matches found %d of %d observations", found, len(subjects))
		}
		l.obs("store.point_match_ns", "ns", float64(d.Nanoseconds())/float64(len(subjects)))
		l.obs("store.point_match_allocs", "count", objects/float64(len(subjects)))
	})
	if err != nil {
		return err
	}
	tr.operation("op.sum", func() {
		const n = 1 << 20
		item := sparql.SelectItem{Var: "total", Agg: sparql.AggSum, AggVar: "pop"}
		v := algebra.Bind(rdf.NewInteger(1234567))
		d := tr.timed("algebra.sum", func() {
			total := algebra.NewAccumulator(item)
			for i := 0; i < n/1024; i++ { // per-partition accumulators folded, as the parallel merge does
				part := algebra.NewAccumulator(item)
				for j := 0; j < 1024; j++ {
					part.Add(v)
				}
				total.Fold(part)
			}
		})
		l.obs("algebra.sum_add_ns", "ns", float64(d.Nanoseconds())/n)
	})
	// Intra-query parallelism on the finest view's query.
	finest := sys.Facet.View(sys.Facet.FullMask()).AnalyticalQuery()
	perWorkers := map[int][]float64{}
	for i := 0; i < 3; i++ {
		for _, w := range []int{1, runtime.NumCPU()} {
			tr.operation("op.parallel", func() {
				eng := engine.NewWithOptions(g, engine.Options{Workers: w})
				perWorkers[w] = append(perWorkers[w], ms(tr.timed(fmt.Sprintf("engine.execute_workers_%d", w), func() { _, err = eng.Execute(finest) })))
			})
			if err != nil {
				return err
			}
		}
	}
	l.obs("engine.parallel_speedup", "ratio", median(perWorkers[1])/median(perWorkers[runtime.NumCPU()]))

	// Snapshot and catalog state round trips.
	snap := filepath.Join(tmp, "graph.snap")
	tr.operation("op.snapshot", func() {
		l.obs("store.snapshot_save_ms", "ms", ms(tr.timed("store.snapshot_save", func() {
			var out *os.File
			if out, err = os.Create(snap); err != nil {
				return
			}
			if err = g.Save(out); err == nil {
				err = out.Sync()
			}
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		})))
		if err != nil {
			return
		}
		l.obs("store.snapshot_load_ms", "ms", ms(tr.timed("store.snapshot_load", func() { _, err = store.LoadFile(snap) })))
		if err != nil {
			return
		}
		var state bytes.Buffer
		if err = sys.Catalog.SaveState(&state); err != nil {
			return
		}
		base := g.Fork()
		l.obs("views.restore_state_ms", "ms", ms(tr.timed("views.restore_state", func() {
			_, err = views.RestoreCatalog(base, sys.Facet, engine.Options{}, &state)
		})))
	})
	return err
}

// queries times the read path per sampled query: each is parsed, keyed,
// served uncached and cached through the handler, fetched cached over
// loopback through internal/client, then answered and executed directly.
func (l *layers) queries(srv *server.Server, in *inputs, res *result) error {
	tr, h := l.tr, srv.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()
	cl := client.New(ts.URL, ts.Client())
	sys := srv.System()
	for _, o := range []string{"view_hit", "partial_rollup", "full_scan"} {
		l.declare("rewrite.answer_"+o+"_us", "us")
	}
	viewAnswered := 0
	sample, err := in.queries.take(traceQueries)
	if err != nil {
		return err
	}
	for _, text := range sample {
		tr.operation("op.query", func() {
			var q *sparql.Query
			l.obs("sparql.parse_us", "us", us(tr.timed("sparql.parse", func() { q, err = sparql.Parse(text) })))
			if err != nil {
				return
			}
			l.obs("rewrite.cache_key_us", "us", us(tr.timed("rewrite.cache_key", func() { rewrite.CacheKey(q) })))
			var first, again *call
			if first, err = newCall("/query", api.QueryRequest{Query: text}); err != nil {
				return
			}
			miss := tr.timed("server.handle_miss", func() { first.serve(h) })
			var resp api.QueryResponse
			if err = first.decode(&resp); err != nil {
				return
			}
			res.Attempted++
			if ok, merr := in.matches(text, resp.Rows); merr != nil || !ok || resp.Cached {
				res.Failed++
				fmt.Fprintf(os.Stderr, "in-process answer differs from the oracle (%v): %s\n", merr, text)
			}
			if again, err = newCall("/query", api.QueryRequest{Query: text}); err != nil {
				return
			}
			hit := tr.timed("server.handle_cache_hit", func() { again.serve(h) })
			if err = again.decode(&resp); err == nil && !resp.Cached {
				err = fmt.Errorf("second serve of a query missed the cache: %s", text)
			}
			if err != nil {
				return
			}
			l.obs("server.handle_cache_hit_us", "us", us(hit))
			trip := tr.timed("client.roundtrip_cache_hit", func() { _, err = cl.Query(context.Background(), api.QueryRequest{Query: text}) })
			if err != nil {
				return
			}
			l.obs("client.roundtrip_overhead_us", "us", us(trip-hit))
			var ans *rewrite.Answer
			answer := tr.timed("rewrite.answer", func() { ans, err = sys.AnswerWithWorkers(q, 0) })
			if err != nil {
				return
			}
			l.obs("server.handle_miss_us", "us", us(miss))
			l.obs("server.handle_miss_self_us", "us", us(miss-answer))
			l.obs("rewrite.answer_"+ans.Outcome+"_us", "us", us(answer))
			var base time.Duration
			objects, bytes := mallocs(func() {
				base = tr.timed("engine.execute_base", func() { _, err = sys.Catalog.BaseEngine().Execute(q) })
			})
			if err != nil {
				return
			}
			l.obs("engine.execute_base_us", "us", us(base))
			l.obs("engine.allocs_per_query", "count", objects)
			l.obs("engine.alloc_kb_per_query", "KB", bytes/1024)
			if ans.Rewritten != nil {
				viewAnswered++
				exec := tr.timed("engine.execute_rewritten", func() { _, err = sys.Catalog.ExpandedEngine().Execute(ans.Rewritten) })
				l.obs("engine.execute_rewritten_us", "us", us(exec))
				l.obs("rewrite.self_us", "us", us(answer-exec))
				l.obs("rewrite.view_speedup", "ratio", float64(base)/float64(answer))
			}
		})
		if err != nil {
			return err
		}
	}
	l.obs("rewrite.view_answered_share", "ratio", float64(viewAnswered)/traceQueries)

	// Tracing overhead, on the shortest spans (the cache-hit path's parse
	// and key), where a span's fixed cost is the largest share of the call:
	// the same calls with the recorder on and off.
	pass := func(off bool) time.Duration {
		tr.off = off
		defer func() { tr.off = false }()
		start := time.Now()
		for _, text := range sample {
			tr.operation("op.overhead", func() {
				var q *sparql.Query
				tr.timed("sparql.parse", func() { q, _ = sparql.Parse(text) })
				tr.timed("rewrite.cache_key", func() { rewrite.CacheKey(q) })
			})
		}
		return time.Since(start)
	}
	var on, off []float64
	for i := 0; i < 5; i++ {
		on = append(on, us(pass(false)))
		off = append(off, us(pass(true)))
	}
	l.obs("bench.trace_overhead_pct", "%", 100*(median(on)-median(off))/median(off))
	return nil
}

// updates times the write path per sampled transaction: first layer by layer
// on private forks that are discarded, then once for real through the handler.
func (l *layers) updates(srv *server.Server, in *inputs, tmp string, res *result) error {
	tr, h, chain := l.tr, srv.Handler(), srv.Chain()
	scratch, err := persist.OpenLog(filepath.Join(tmp, "scratch-wal"), persist.SyncAlways)
	if err != nil {
		return err
	}
	defer scratch.Close()
	workers := srv.System().Workers
	var refreshed, incremental, walTriples int
	txns := in.txns.take(traceTxns)
	for _, t := range txns {
		tr.operation("op.update", func() {
			req := t.request()
			l.obs("rdf.parse_ntriples_us", "us", us(tr.timed("rdf.parse_ntriples", func() { _, err = rdf.ParseString(req.Statements[0].Insert) })))
			if err != nil {
				return
			}
			published := chain.Load().Sys
			var fork *store.Graph
			l.obs("store.fork_us", "us", us(tr.timed("store.fork", func() { fork = published.Graph.Fork() })))
			l.obs("store.apply_us", "us", us(tr.timed("store.apply", func() { _, err = fork.Apply(t.ins, t.del) })))
			if err != nil {
				return
			}
			l.obs("views.fork_us", "us", us(tr.timed("views.fork", func() { published.Catalog.Fork() })))

			// An empty transaction: what MVCC costs before any work is done.
			var txn *core.Txn
			l.obs("core.chain_begin_us", "us", us(tr.timed("core.chain_begin", func() { txn = chain.Begin() })))
			l.obs("core.chain_commit_us", "us", us(tr.timed("core.chain_commit", func() { txn.Commit() })))

			// The transaction's layers as the server runs them — statement by
			// statement, then the eager refresh — on a fork that is aborted.
			txn = chain.Begin()
			var deltas []store.Delta
			apply := tr.timed("views.apply_update", func() {
				for _, st := range [][2][]rdf.Triple{{t.ins, nil}, {nil, t.del}} {
					if len(st[0])+len(st[1]) == 0 {
						continue
					}
					var d store.Delta
					if d, err = txn.Sys.Catalog.ApplyUpdate(st[0], st[1]); err != nil {
						return
					}
					deltas = append(deltas, d)
				}
			})
			if err == nil {
				l.obs("views.apply_update_us", "us", us(apply))
				l.obs("views.refresh_incremental_us", "us", us(tr.timed("views.refresh_incremental", func() {
					var plan *views.RefreshPlan
					if plan, err = txn.Sys.Catalog.PlanRefresh(workers); err == nil {
						_, err = txn.Sys.Catalog.CommitRefresh(plan)
					}
				})))
			}
			txn.Abort()
			if err != nil {
				return
			}
			net := store.ComposeDeltas(deltas)
			record := &persist.Record{FromVersion: net.FromVersion, ToVersion: net.ToVersion,
				Generation: txn.Base.Generation + 1, Eager: true, Inserts: net.Inserted, Deletes: net.Deleted}
			l.obs("persist.wal_append_us", "us", us(tr.timed("persist.wal_append", func() { err = scratch.Append(record) })))
			if err != nil {
				return
			}
			walTriples += net.Len()

			var c *call
			if c, err = newCall("/update", req); err != nil {
				return
			}
			l.obs("server.handle_update_us", "us", us(tr.timed("server.handle_update", func() { c.serve(h) })))
			var resp api.UpdateResponse
			if err = c.decode(&resp); err != nil {
				return
			}
			res.Attempted++
			if resp.Inserted != len(t.ins) || resp.Deleted != len(t.del) {
				res.Failed++
			}
			refreshed += resp.Refreshed
			incremental += resp.Incremental
		})
		if err != nil {
			return err
		}
	}
	l.obs("views.incremental_share", "ratio", float64(incremental)/float64(refreshed))
	l.obs("persist.wal_bytes_per_triple", "B", float64(scratch.Stats().Bytes)/float64(walTriples))

	// The server's answers after the writes, against the oracle holding them too.
	if err := in.applyTxns(txns); err != nil {
		return err
	}
	after, err := in.queries.take(postVerify)
	if err != nil {
		return err
	}
	for _, text := range after {
		c, err := newCall("/query", api.QueryRequest{Query: text})
		if err != nil {
			return err
		}
		c.serve(h)
		var resp api.QueryResponse
		if err := c.decode(&resp); err != nil {
			return err
		}
		res.Attempted++
		if ok, err := in.matches(text, resp.Rows); err != nil || !ok {
			res.Failed++
			fmt.Fprintf(os.Stderr, "in-process answer after updates differs from the oracle (%v): %s\n", err, text)
		}
	}

	// The fallback maintenance path and compaction, once each: one more
	// transaction's delta refreshed by full recomputation, and the overlay
	// the transactions left folded back into sorted runs.
	last := in.txns.next()
	tr.operation("op.refresh_full", func() {
		cat := chain.Load().Sys.Catalog.Fork()
		cat.SetIncrementalMaintenance(false)
		if _, err = cat.ApplyUpdate(last.ins, last.del); err != nil {
			return
		}
		l.obs("views.refresh_full_ms", "ms", ms(tr.timed("views.refresh_full", func() { _, err = cat.RefreshAllParallel(workers) })))
	})
	if err != nil {
		return err
	}
	tr.operation("op.compact", func() {
		fork := chain.Load().Sys.Graph.Fork()
		l.obs("store.compact_ms", "ms", ms(tr.timed("store.compact", fork.Compact)))
	})
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
