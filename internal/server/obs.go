package server

import (
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"sofos/internal/api"
	"sofos/internal/obs"
)

// serverObs is the server's observability state: the metrics registry behind
// /v1/metrics, the recent-query ring behind /v1/debug/queries, and the
// pre-resolved per-outcome query series so the hot path never touches the
// registry's resolution mutex. Nil when Config.ObsOff — every call site
// guards on s.obs == nil, and the obs handles themselves are nil-safe, so
// the disabled path costs one pointer compare.
type serverObs struct {
	reg  *obs.Registry
	ring *obs.Ring
	slow time.Duration // promote queries at least this slow to the log; 0 = off

	// Per-outcome query series, resolved once at startup. Keyed by the
	// obs.Outcome* constants — the same strings the ring records carry, so
	// /v1/debug/queries outcomes and sofos_query_total reconcile exactly.
	queryTotal   map[string]*obs.Counter
	querySeconds map[string]*obs.Histogram
	slowTotal    *obs.Counter
}

// queryOutcomes is every rewrite-outcome label sofos_query_total can carry.
// Registered eagerly so a scrape before the first query of some outcome
// still shows the family with a zero sample.
var queryOutcomes = []string{
	obs.OutcomeCacheHit,
	obs.OutcomeViewHit,
	obs.OutcomePartialRollup,
	obs.OutcomeFullScan,
	obs.OutcomeError,
}

// newServerObs builds the registry and wires every layer's instruments:
// closure-backed counters over the server's existing atomics, collector
// callbacks that pin one published generation per scrape, and the WAL
// append/fsync hooks on the open log. Scrapes never take the chain writer
// mutex or the admission semaphore — every reading is an atomic load or a
// wait-free chain.Load() — so /v1/metrics can be hammered during a writer
// storm without perturbing serving.
func newServerObs(s *Server, cfg Config) *serverObs {
	reg := obs.NewRegistry()
	o := &serverObs{
		reg:          reg,
		ring:         obs.NewRing(cfg.TraceRing),
		slow:         time.Duration(cfg.SlowQueryMS) * time.Millisecond,
		queryTotal:   make(map[string]*obs.Counter, len(queryOutcomes)),
		querySeconds: make(map[string]*obs.Histogram, len(queryOutcomes)),
	}
	for _, out := range queryOutcomes {
		l := obs.Label{Key: "outcome", Value: out}
		o.queryTotal[out] = reg.Counter("sofos_query_total",
			"Queries answered, by rewrite outcome.", l)
		o.querySeconds[out] = reg.Histogram("sofos_query_seconds",
			"Query latency from parse to response, by rewrite outcome.", nil, l)
	}
	o.slowTotal = reg.Counter("sofos_slow_queries_total",
		"Queries at or above the -slow-query-ms threshold.")

	// Serving state: one wait-free chain.Load() per closure call.
	reg.GaugeFunc("sofos_generation",
		"Published catalog generation.",
		func() float64 { return float64(s.chain.Load().Generation) })
	reg.GaugeFunc("sofos_graph_version",
		"Published base-graph version (WAL position).",
		func() float64 { return float64(s.chain.Load().Sys.GraphVersion()) })
	reg.GaugeFunc("sofos_inflight_queries",
		"Queries holding an admission slot right now.",
		func() float64 { return float64(len(s.sem)) })
	reg.CounterFunc("sofos_updates_total",
		"Update transactions committed.",
		func() float64 { return float64(s.updates.Load()) })

	// Result cache, when enabled: the cache's own atomics, read lock-free.
	if s.cache != nil {
		reg.CounterFunc("sofos_cache_hits_total",
			"Result-cache hits.",
			func() float64 { return float64(s.cache.hits.Load()) })
		reg.CounterFunc("sofos_cache_misses_total",
			"Result-cache misses.",
			func() float64 { return float64(s.cache.misses.Load()) })
		reg.CounterFunc("sofos_cache_evictions_total",
			"Result-cache evictions.",
			func() float64 { return float64(s.cache.evictions.Load()) })
		reg.GaugeFunc("sofos_cache_entries",
			"Rendered responses held by the result cache.",
			func() float64 { e, _ := s.cache.usage(); return float64(e) })
		reg.GaugeFunc("sofos_cache_bytes",
			"Rendered bytes held by the result cache.",
			func() float64 { _, b := s.cache.usage(); return float64(b) })
	}

	// Durability: checkpoint age plus the WAL's own instruments. The append
	// histogram and fsync counter are handed to the log here — before any
	// traffic — through its nil-safe hook fields, so persist stays free of
	// server imports.
	reg.CounterFunc("sofos_checkpoints_total",
		"Checkpoints written since boot.",
		func() float64 { return float64(s.checkpoints.Load()) })
	reg.GaugeFunc("sofos_checkpoint_age_seconds",
		"Seconds since the newest checkpoint was written (-1 when none).",
		func() float64 { return s.checkpointAge() })
	if s.dur != nil {
		s.dur.Log.AppendHist = reg.Histogram("sofos_wal_append_seconds",
			"WAL append latency, including sync under -wal-sync=always.", nil)
		s.dur.Log.FsyncCounter = reg.Counter("sofos_wal_fsyncs_total",
			"WAL fsyncs issued.")
		reg.GaugeFunc("sofos_wal_bytes",
			"Bytes appended to the live WAL segments.",
			func() float64 { return float64(s.dur.Log.Stats().Bytes) })
		reg.GaugeFunc("sofos_wal_segments",
			"WAL segments on disk.",
			func() float64 { return float64(s.dur.Log.Stats().Segments) })
	}
	if s.repl != nil {
		reg.GaugeFunc("sofos_replica_lag_generations",
			"Generations this replica trails its primary.",
			func() float64 { return float64(s.replicaLag(s.system())) })
	}

	// Runtime and store gauges set by one collector call per scrape: a single
	// ReadMemStats and a single Graph.MemStats pass feed all of them, against
	// one pinned snapshot.
	goroutines := reg.Gauge("sofos_goroutines", "Live goroutines.")
	heapAlloc := reg.Gauge("sofos_heap_alloc_bytes", "Heap bytes in use (runtime.MemStats.HeapAlloc).")
	storeMapped := reg.Gauge("sofos_store_mapped_bytes", "Index bytes backed by mmap'd snapshots rather than heap.")
	storeIndex := reg.Gauge("sofos_store_index_bytes", "Heap-resident index bytes across permutations.")
	storeBlocks := reg.Gauge("sofos_store_blocks", "Compressed blocks across permutation runs.")
	reg.OnCollect(func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(float64(runtime.NumGoroutine()))
		heapAlloc.Set(float64(ms.HeapAlloc))

		st := s.chain.Load()
		gm := st.Sys.Graph.MemStats()
		storeMapped.Set(float64(gm.MappedBytes))
		storeIndex.Set(float64(gm.IndexBytes))
		storeBlocks.Set(float64(gm.SPO.Blocks + gm.POS.Blocks + gm.OSP.Blocks))

		// Per-view gauges against the same pinned snapshot. Cardinality is
		// bounded by the materialized set (a handful of views), and series
		// for dropped views simply stop updating.
		for _, m := range st.Sys.Catalog.Materialized() {
			v := m.View()
			l := obs.Label{Key: "view", Value: v.ID()}
			reg.Gauge("sofos_view_groups",
				"Aggregate groups materialized in the view.", l).Set(float64(m.Data.NumGroups()))
			reg.Gauge("sofos_view_stale",
				"1 when the view's contents trail the base graph, else 0.", l).Set(b2f(st.Sys.Catalog.Stale(v.Mask)))
			reg.Gauge("sofos_view_last_refresh_seconds",
				"Cost of the view's last refresh.", l).Set(m.Maint.LastCost.Seconds())
			reg.Gauge("sofos_view_last_delta_size",
				"|ΔG| the view's last incremental refresh consumed.", l).Set(float64(m.Maint.DeltaSize))
			reg.Gauge("sofos_view_staleness_generations",
				"Graph versions the view's contents trail the published base graph.", l).Set(float64(st.Sys.GraphVersion() - m.BaseVersion()))
		}
	})
	return o
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// checkpointAge is seconds since the newest checkpoint manifest, or -1 when
// the server is memory-only or has not checkpointed yet.
func (s *Server) checkpointAge() float64 {
	if s.dur == nil {
		return -1
	}
	m := s.lastCheckpoint.Load()
	if m == nil {
		return -1
	}
	return time.Since(time.Unix(m.CreatedUnix, 0)).Seconds()
}

// finishQuery closes one query's trace and fans its outcome out to every
// consumer: the outcome attr on the root span, the per-outcome counter and
// latency histogram, the per-view hit counter, the slow-query log, and the
// debug ring. It returns the wire-format span tree when the caller asked for
// ?trace=1, nil otherwise. rec.TraceID/Query/Outcome/View/Reason/Generation/
// Rows/Err are the caller's; Start, Elapsed, Slow, and Spans are filled here.
func (o *serverObs) finishQuery(tr *obs.Trace, root obs.SpanHandle, rec obs.QueryRecord, wantTrace bool) []api.TraceSpan {
	rec.Start = tr.Start()
	rec.Elapsed = time.Since(rec.Start)
	root.Attr("outcome", rec.Outcome)
	root.End()
	rec.Spans = tr.Finish()

	if c := o.queryTotal[rec.Outcome]; c != nil {
		c.Inc()
		o.querySeconds[rec.Outcome].Observe(rec.Elapsed.Seconds())
	}
	if rec.View != "" {
		o.reg.Counter("sofos_view_hits_total",
			"Queries answered from a materialized view (hit or partial roll-up).",
			obs.Label{Key: "view", Value: rec.View}).Inc()
	}
	if o.slow > 0 && rec.Elapsed >= o.slow {
		rec.Slow = true
		o.slowTotal.Inc()
		slog.Warn("slow query",
			"trace_id", rec.TraceID,
			"outcome", rec.Outcome,
			"view", rec.View,
			"generation", rec.Generation,
			"rows", rec.Rows,
			"elapsed", rec.Elapsed.Round(time.Microsecond),
			"query", rec.Query)
	}
	o.ring.Add(rec)
	if !wantTrace {
		return nil
	}
	return toWireSpans(rec.Spans)
}

// toWireSpans converts recorded spans to the JSON wire shape: microsecond
// offsets from the trace start, -1 duration for spans never closed.
func toWireSpans(spans []obs.Span) []api.TraceSpan {
	if len(spans) == 0 {
		return nil
	}
	out := make([]api.TraceSpan, len(spans))
	for i, sp := range spans {
		ws := api.TraceSpan{
			Name:    sp.Name,
			Parent:  sp.Parent,
			StartUS: sp.Start.Microseconds(),
			DurUS:   -1,
		}
		if sp.End >= 0 {
			ws.DurUS = (sp.End - sp.Start).Microseconds()
		}
		for _, a := range sp.Attrs {
			ws.Attrs = append(ws.Attrs, api.TraceAttr{Key: a.Key, Value: a.Value})
		}
		out[i] = ws
	}
	return out
}

// instrument wraps a handler with per-endpoint request accounting. The
// endpoint label is the route path without its /v1 prefix — URL cardinality
// never leaks into label space. No-op when obs is disabled.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	if s.obs == nil {
		return h
	}
	reg := s.obs.reg
	hist := reg.Histogram("sofos_http_request_seconds",
		"Request latency by endpoint.", nil,
		obs.Label{Key: "endpoint", Value: endpoint})
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		code := sw.status
		if code == 0 {
			code = http.StatusOK
		}
		reg.Counter("sofos_http_requests_total",
			"Requests served, by endpoint and status code.",
			obs.Label{Key: "endpoint", Value: endpoint},
			obs.Label{Key: "code", Value: strconv.Itoa(code)}).Inc()
		hist.ObserveSince(start)
	}
}

// statusWriter records the status code a handler wrote. It forwards Flush so
// the /v1/wal NDJSON stream keeps pushing lines through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil {
		httpError(w, http.StatusServiceUnavailable, api.CodeUnavailable,
			"observability is disabled (-obs=off)")
		return
	}
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET only")
		return
	}
	s.obs.reg.Handler().ServeHTTP(w, r)
}

// handleDebugQueries lists recent query traces from the ring, newest first.
// ?limit=N bounds the listing (default: the whole ring).
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil {
		httpError(w, http.StatusServiceUnavailable, api.CodeUnavailable,
			"observability is disabled (-obs=off)")
		return
	}
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET only")
		return
	}
	limit := 0
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, api.CodeBadRequest, "bad limit parameter %q", ls)
			return
		}
		limit = n
	}
	recs := s.obs.ring.Snapshot(limit)
	resp := api.DebugQueriesResponse{
		Total:   s.obs.ring.Total(),
		Entries: make([]api.QueryLogEntry, len(recs)),
	}
	for i, rec := range recs {
		resp.Entries[i] = api.QueryLogEntry{
			TraceID:     rec.TraceID,
			Query:       rec.Query,
			Outcome:     rec.Outcome,
			View:        rec.View,
			Reason:      rec.Reason,
			Generation:  rec.Generation,
			StartUnixUS: rec.Start.UnixMicro(),
			ElapsedUS:   rec.Elapsed.Microseconds(),
			Rows:        rec.Rows,
			Slow:        rec.Slow,
			Error:       rec.Err,
			Spans:       toWireSpans(rec.Spans),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
