// Package server exposes a SOFOS system over HTTP: the online module as a
// concurrent analytics service. The versioned /v1 route tree covers the live
// loop — /v1/query answers analytical queries through the rewriter (so
// materialized views are used transparently), /v1/update applies batched
// inserts and deletes, /v1/views lists and manages materializations, and
// /v1/stats reports serving and cache health; paths outside /v1 answer 404.
// Request and response bodies are the typed structs of internal/api; every
// non-200 response of a /v1 endpoint is the uniform
// {"error":{"code","message"}} envelope, and every response carries an
// X-Sofos-Generation header so clients can track the catalog generation they
// have observed.
//
// Concurrency model (snapshot-chain MVCC): the server publishes immutable
// generations through core.Chain — an atomic pointer to a
// {system, generation, view-set hash, cache-key prefix} snapshot. A query
// loads the pointer once and answers entirely against that snapshot, so
// readers are wait-free: they never take a lock, never block each other,
// and never block behind a writer, even mid-refresh. Writers (updates,
// materialize/drop/reset, refresh commits, replica apply) serialize on the
// chain's writer mutex — which readers never touch — prepare the next
// generation on a copy-on-write fork sharing every immutable run with the
// published snapshot, and publish it with a single atomic store. Every
// answer is therefore consistent with exactly one committed generation.
// A global semaphore bounds concurrently executing queries (admission
// control), and a sharded LRU result cache keyed on (normalized query,
// catalog generation, view-set hash) serves repeated queries without
// re-execution while never returning a stale answer.
//
// Durability (optional, Config.Durability): committed /v1/update batches are
// appended to a write-ahead log inside the write critical section before
// the response is sent, catalog mutations the log does not capture write a
// checkpoint before acknowledging, and /v1/admin/checkpoint snapshots on
// demand — see internal/persist and durability.go.
//
// Replication (optional): a durable primary serves its log as an NDJSON
// stream on GET /v1/wal and its newest checkpoint as a tar archive on GET
// /v1/checkpoint; replicas (Config.Replica) bootstrap from the archive, tail
// the stream through the same incremental maintenance path recovery takes,
// reject writes, and report applied progress back via POST /v1/replica/ack —
// which is what /v1/update acknowledgement levels ("ack":"replicas:N") wait
// on. See replication.go (primary side) and replica.go (replica side).
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sofos/internal/api"
	"sofos/internal/core"
	"sofos/internal/obs"
	"sofos/internal/persist"
	"sofos/internal/rewrite"
	"sofos/internal/sparql"
)

// Server roles, advertised in /v1/stats and /healthz.
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
)

// Config tunes a Server; the zero value is the production default.
type Config struct {
	// MaxConcurrent bounds queries executing at once (admission control).
	// Further requests queue until a slot frees. 0 means 2×GOMAXPROCS.
	MaxConcurrent int

	// MaxWorkers caps the per-request intra-query parallelism a client may
	// ask for via the "workers" field. 0 means the system's worker count.
	MaxWorkers int

	// CacheEntries is the result cache capacity in entries. 0 means 4096;
	// negative disables caching.
	CacheEntries int

	// CacheBytes bounds the total rendered bytes the result cache may hold
	// (bodies are stored fully rendered, so sizes are exact). 0 means no
	// byte budget — the entry-count bound alone, today's default behavior.
	CacheBytes int64

	// SelectionSeed seeds cost models for POST /views materialize-by-model
	// actions, so runtime selections reproduce the startup-time ones made
	// with the same seed. 0 means 1.
	SelectionSeed int64

	// Durability, when non-nil, makes the server durable: every committed
	// /update batch is appended to the write-ahead log before it is
	// acknowledged, catalog mutations outside the update path checkpoint the
	// state they produce, and POST /admin/checkpoint is served. Nil keeps
	// the server memory-only.
	Durability *Durability

	// AckTimeout bounds how long an update with "ack":"replicas:N" waits for
	// N replicas to report the batch applied before giving up with a
	// replication_timeout error (the batch is committed and locally durable
	// either way). 0 means 10s.
	AckTimeout time.Duration

	// ReadWait bounds how long a replica holds a query whose
	// X-Sofos-Min-Generation is ahead of the applied state before
	// redirecting the client to the primary. 0 means 2s.
	ReadWait time.Duration

	// Replica, when non-nil, puts the server in read-replica mode: it
	// rejects writes, tails the primary's /v1/wal stream (StartReplication),
	// and reports applied progress back. Durability is ignored for replicas —
	// they re-bootstrap from the primary's checkpoint instead of local disk.
	Replica *ReplicaOptions

	// ObsOff disables observability entirely: no tracing, no metrics, no
	// query ring; /v1/metrics and /v1/debug/queries answer 503. The default
	// (false) keeps it on — the instrumented hot path is within noise of
	// off (see BenchmarkTracedQueryOverhead).
	ObsOff bool

	// SlowQueryMS promotes queries at least this slow to the structured log
	// (and marks them in /v1/debug/queries). 0 means 500ms; negative
	// disables promotion while keeping tracing on.
	SlowQueryMS int

	// TraceRing is the capacity of the recent-query ring behind
	// /v1/debug/queries. 0 means 256.
	TraceRing int
}

// withDefaults resolves zero fields.
func (c Config) withDefaults(sys *core.System) Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = sys.Workers
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.SelectionSeed == 0 {
		c.SelectionSeed = 1
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 10 * time.Second
	}
	if c.ReadWait <= 0 {
		c.ReadWait = 2 * time.Second
	}
	if c.SlowQueryMS == 0 {
		c.SlowQueryMS = 500
	}
	if c.Replica != nil {
		// Replicas hold no local durable state: their data directory is the
		// primary's, reached through bootstrap archives and the WAL stream.
		c.Durability = nil
	}
	return c
}

// Server serves one SOFOS system over HTTP. Create with New, mount via
// Handler.
type Server struct {
	// chain is the MVCC snapshot chain. Handlers load the published
	// generation once per request and answer against it without any lock;
	// mutations run as chain transactions (fork, mutate, publish) under the
	// chain's writer mutex, which readers never acquire. On a replica the
	// apply loop is the only writer, and a re-bootstrap resets the chain to
	// the freshly restored system.
	chain *core.Chain
	cfg   Config
	role  string

	cache *resultCache  // nil when disabled
	sem   chan struct{} // admission semaphore, capacity MaxConcurrent

	mux     *http.ServeMux
	started time.Time

	queries atomic.Int64 // /query requests answered (including cache hits)
	updates atomic.Int64 // /update batches applied

	// dur is the durability wiring (nil = memory-only); lastCheckpoint,
	// checkpoints and checkpointsSkipped track checkpoint activity for
	// /stats. lastCheckpoint starts as the restored checkpoint after a
	// recovered boot. Atomics because the interval checkpointer and
	// /admin/checkpoint can both write them.
	// Checkpoint writers serialize on the chain's writer mutex (see
	// Checkpoint), so two checkpoints never interleave inside one sequence
	// number and a snapshot never races a WAL append.
	// walGap records that a committed batch failed to reach the WAL and no
	// healing checkpoint has succeeded yet; further updates are refused
	// until one does (see commitUpdate).
	dur                *Durability
	lastCheckpoint     atomic.Pointer[persist.Manifest]
	checkpoints        atomic.Int64
	checkpointsSkipped atomic.Int64
	walGap             atomic.Bool

	// tracker follows replica progress on a primary (nil on replicas);
	// repl is the apply-loop state on a replica (nil on primaries).
	tracker *replicaTracker
	repl    *replicaRuntime

	// obs is the observability state (metrics registry, trace ring, slow
	// threshold); nil when Config.ObsOff.
	obs *serverObs
}

// New wraps a system in a server with the given configuration.
func New(sys *core.System, cfg Config) *Server {
	cfg = cfg.withDefaults(sys)
	s := &Server{
		chain:   core.NewChain(sys),
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		mux:     http.NewServeMux(),
		started: time.Now(),
		dur:     cfg.Durability,
	}
	if s.dur != nil && s.dur.Restored != nil {
		s.lastCheckpoint.Store(s.dur.Restored)
	}
	if cfg.Replica != nil {
		s.role = RoleReplica
		s.repl = newReplicaRuntime(cfg.Replica)
	} else {
		s.role = RolePrimary
		s.tracker = newReplicaTracker()
	}
	if cfg.CacheEntries > 0 {
		s.cache = newResultCache(cfg.CacheEntries, cfg.CacheBytes)
	}
	if !cfg.ObsOff {
		s.obs = newServerObs(s, cfg)
	}
	// The versioned route tree is the only one: any path outside it is 404.
	for path, h := range map[string]http.HandlerFunc{
		"/query":            s.handleQuery,
		"/update":           s.handleUpdate,
		"/views":            s.handleViews,
		"/stats":            s.handleStats,
		"/healthz":          s.handleHealthz,
		"/admin/checkpoint": s.handleAdminCheckpoint,
		"/wal":              s.handleWALStream,
		"/checkpoint":       s.handleCheckpointArchive,
		"/replica/ack":      s.handleReplicaAck,
		"/metrics":          s.handleMetrics,
		"/debug/queries":    s.handleDebugQueries,
	} {
		s.mux.HandleFunc(api.Prefix+path, s.instrument(path, h))
	}
	return s
}

// Handler returns the HTTP handler serving all endpoints. Every response is
// stamped with the X-Sofos-Generation header (see genWriter).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mux.ServeHTTP(&genWriter{ResponseWriter: w, srv: s}, r)
	})
}

// genWriter stamps the catalog generation onto the response at header-flush
// time — after the handler finished its critical section, so the advertised
// generation is at least the one the body was computed at (the counter only
// moves forward). It forwards Flush so the /v1/wal stream can push lines
// through any buffering layers.
type genWriter struct {
	http.ResponseWriter
	srv   *Server
	wrote bool
}

func (w *genWriter) WriteHeader(status int) {
	if !w.wrote {
		w.wrote = true
		w.Header().Set(api.HeaderGeneration,
			strconv.FormatInt(w.srv.chain.Load().Generation, 10))
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *genWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

func (w *genWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// system returns the currently published system. Handlers that need a
// single consistent state pin s.chain.Load() once instead and use its Sys
// throughout; this accessor is for one-shot reads (progress reports,
// liveness) where the freshest published pointer is what's wanted.
func (s *Server) system() *core.System { return s.chain.Load().Sys }

// System returns the served system (for tests and embedding callers).
func (s *Server) System() *core.System { return s.system() }

// Chain exposes the MVCC snapshot chain (for tests and embedding callers).
func (s *Server) Chain() *core.Chain { return s.chain }

// Role returns RolePrimary or RoleReplica.
func (s *Server) Role() string { return s.role }

// handleQuery answers one analytical query, consulting the result cache
// first. Admission: cache hits bypass the semaphore (they execute nothing);
// misses wait for an execution slot. On a replica, a request whose
// X-Sofos-Min-Generation is ahead of the applied state first waits briefly
// for the replication stream and then redirects to the primary, preserving
// read-your-writes for clients that funnel writes there.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	switch r.Method {
	case http.MethodGet:
		req.Query = r.URL.Query().Get("q")
		if ws := r.URL.Query().Get("workers"); ws != "" {
			n, err := strconv.Atoi(ws)
			if err != nil {
				httpError(w, http.StatusBadRequest, api.CodeBadRequest, "bad workers parameter %q", ws)
				return
			}
			req.Workers = n
		}
	case http.MethodPost:
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
			return
		}
	default:
		httpError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "use GET ?q= or POST a JSON body")
		return
	}
	if req.Query == "" {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "empty query")
		return
	}
	q, err := sparql.Parse(req.Query)
	if err != nil {
		httpError(w, http.StatusBadRequest, api.CodeParseError, "parse error: %v", err)
		return
	}
	norm := rewrite.CacheKey(q)

	if s.role == RoleReplica && !s.gateMinGeneration(w, r) {
		return
	}

	// Tracing: every query gets a trace id — caller-supplied via the
	// X-Sofos-Trace-Id header or freshly generated — echoed back on the
	// response so clients correlate across primary and replica. ?trace=1
	// additionally returns the span tree in the body; such a request
	// bypasses the cache entirely (cached bodies carry no spans, and a
	// traced body must not be served to untraced requests).
	var (
		tr        *obs.Trace
		root      obs.SpanHandle
		wantTrace bool
	)
	if s.obs != nil {
		id := r.Header.Get(api.HeaderTraceID)
		if id == "" {
			id = obs.NewTraceID()
		}
		w.Header().Set(api.HeaderTraceID, id)
		wantTrace = r.URL.Query().Get("trace") == "1"
		tr = obs.NewTrace(id)
		root = tr.Span("query")
	}

	// Fast path: serve from the cache against the published generation. The
	// key embeds the generation and view-set hash, so an entry stored under
	// an older state simply misses — no lock needed for correctness.
	if s.cache != nil && !wantTrace {
		st := s.chain.Load()
		probe := root.Child("cache.probe")
		body, ok := s.cache.get(st.CacheKeyPrefix + norm)
		probe.Attr("result", cacheResult(ok))
		probe.End()
		if ok {
			s.queries.Add(1)
			if s.obs != nil {
				s.obs.finishQuery(tr, root, obs.QueryRecord{
					TraceID:    tr.ID(),
					Query:      req.Query,
					Outcome:    obs.OutcomeCacheHit,
					Generation: st.Generation,
				}, false)
			}
			writeCachedBody(w, body)
			return
		}
	}

	// Admission control: occupy an execution slot before taking the read
	// lock, so queued queries do not hold the lock and block writers.
	admit := root.Child("admission.wait")
	select {
	case s.sem <- struct{}{}:
		admit.End()
		defer func() { <-s.sem }()
	case <-r.Context().Done():
		admit.End()
		if s.obs != nil {
			s.obs.finishQuery(tr, root, obs.QueryRecord{
				TraceID: tr.ID(),
				Query:   req.Query,
				Outcome: obs.OutcomeError,
				Err:     "request canceled while queued",
			}, false)
		}
		httpError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "request canceled while queued")
		return
	}

	workers := req.Workers
	if workers <= 0 || workers > s.cfg.MaxWorkers {
		workers = s.cfg.MaxWorkers
	}

	// Pin one published generation and answer entirely against it: the
	// snapshot is immutable, so no lock is held while executing, and a
	// writer publishing mid-query never perturbs this answer.
	st := s.chain.Load()
	root.AttrInt("generation", st.Generation)
	var key string
	if s.cache != nil && !wantTrace {
		key = st.CacheKeyPrefix + norm // state may have advanced since the fast path
		recheck := root.Child("cache.recheck")
		body, ok := s.cache.recheck(key)
		recheck.Attr("result", cacheResult(ok))
		recheck.End()
		if ok {
			s.queries.Add(1)
			if s.obs != nil {
				s.obs.finishQuery(tr, root, obs.QueryRecord{
					TraceID:    tr.ID(),
					Query:      req.Query,
					Outcome:    obs.OutcomeCacheHit,
					Generation: st.Generation,
				}, false)
			}
			writeCachedBody(w, body)
			return
		}
	}
	ans, err := st.Sys.AnswerObserved(q, workers, root)
	if err != nil {
		if s.obs != nil {
			s.obs.finishQuery(tr, root, obs.QueryRecord{
				TraceID:    tr.ID(),
				Query:      req.Query,
				Outcome:    obs.OutcomeError,
				Generation: st.Generation,
				Err:        err.Error(),
			}, false)
		}
		httpError(w, http.StatusUnprocessableEntity, api.CodeExecutionError, "execution error: %v", err)
		return
	}
	render := root.Child("render")
	resp := &api.QueryResponse{
		Vars:       ans.Result.Vars,
		Rows:       renderRows(ans),
		Via:        ans.ViaLabel(),
		Reason:     ans.Reason,
		Outcome:    ans.Outcome,
		Generation: st.Generation,
		ElapsedUS:  ans.Elapsed.Microseconds(),
	}
	render.AttrInt("rows", int64(len(resp.Rows)))
	render.End()
	if s.cache != nil && !wantTrace {
		// Render the cached variant once at insert time; hits serve the
		// bytes verbatim instead of re-encoding the rows per request. The
		// body is cached before any trace fields are attached: the trace id
		// header is the canonical per-request carrier, and span trees are
		// never shared across requests.
		resp.Cached = true
		if body, err := json.Marshal(resp); err == nil {
			s.cache.put(st.Generation, key, body)
		}
		resp.Cached = false
	}
	if s.obs != nil {
		view := ""
		if ans.Via != nil {
			view = ans.Via.View().ID()
		}
		spans := s.obs.finishQuery(tr, root, obs.QueryRecord{
			TraceID:    tr.ID(),
			Query:      req.Query,
			Outcome:    ans.Outcome,
			View:       view,
			Reason:     ans.Reason,
			Generation: st.Generation,
			Rows:       len(resp.Rows),
		}, wantTrace)
		if wantTrace {
			resp.TraceID = tr.ID()
			resp.Trace = spans
		}
	}
	s.queries.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// cacheResult labels a cache probe span's outcome.
func cacheResult(ok bool) string {
	if ok {
		return "hit"
	}
	return "miss"
}

// gateMinGeneration enforces X-Sofos-Min-Generation on a replica: wait up to
// cfg.ReadWait for the apply loop to reach the requested generation, then
// redirect to the primary. Reports whether the request may proceed locally
// (on failure the response has been written).
func (s *Server) gateMinGeneration(w http.ResponseWriter, r *http.Request) bool {
	h := r.Header.Get(api.HeaderMinGeneration)
	if h == "" {
		return true
	}
	minGen, err := strconv.ParseInt(h, 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest,
			"bad %s header %q", api.HeaderMinGeneration, h)
		return false
	}
	if minGen <= 0 || s.waitForGeneration(r.Context(), minGen, s.cfg.ReadWait) {
		return true
	}
	// Still behind: route the read to the primary, which by construction has
	// every generation it ever advertised.
	if primary := s.repl.primaryURL(); primary != "" {
		http.Redirect(w, r, strings.TrimSuffix(primary, "/")+r.URL.RequestURI(),
			http.StatusTemporaryRedirect)
		return false
	}
	httpError(w, http.StatusServiceUnavailable, api.CodeStaleReplica,
		"replica is at generation %d, behind the requested %d",
		s.system().Generation(), minGen)
	return false
}

// renderRows renders result values as strings in SELECT order.
func renderRows(ans *rewrite.Answer) [][]string {
	rows := make([][]string, len(ans.Result.Rows))
	for i, row := range ans.Result.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		rows[i] = cells
	}
	return rows
}

// writeCachedBody serves a pre-rendered cached response body.
func writeCachedBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// httpError writes the uniform error envelope: a stable machine-readable
// code plus a human-readable message.
func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, api.ErrorResponse{Error: api.Error{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header are unrecoverable mid-stream; the
	// client sees a truncated body and re-requests.
	_ = json.NewEncoder(w).Encode(v)
}
