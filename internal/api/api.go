// Package api defines the versioned HTTP surface of sofos-serve: the typed
// request and response bodies of every /v1 endpoint, the uniform JSON error
// envelope, and the headers that carry generation provenance between server
// and client. The server (internal/server) encodes these types, the shared
// Go client (internal/client) decodes them, so the two can never drift.
//
// Versioning: every endpoint lives under the /v1 route tree; there are no
// unversioned paths.
//
// Provenance: every response carries an X-Sofos-Generation header — the
// catalog generation the response was produced at. Clients remember the
// highest generation they have seen and send it back as
// X-Sofos-Min-Generation; a replica that has not yet applied that generation
// waits briefly for the replication stream to catch up and then redirects to
// the primary, which gives a client read-your-writes across the whole
// topology from one cheap counter.
package api

import (
	"fmt"

	"sofos/internal/persist"
	"sofos/internal/store"
)

// Prefix is the versioned route prefix every current endpoint lives under.
const Prefix = "/v1"

// Headers carrying generation provenance and trace identity.
const (
	// HeaderGeneration is set on every response: the catalog generation the
	// response was produced at.
	HeaderGeneration = "X-Sofos-Generation"
	// HeaderMinGeneration is set by clients: the highest generation the
	// client has observed. A replica behind it waits or redirects.
	HeaderMinGeneration = "X-Sofos-Min-Generation"
	// HeaderTraceID carries the per-request trace identifier. Clients may
	// supply one (any non-empty token) to correlate traces across primary
	// and replica; the server generates one otherwise and echoes it on the
	// response, where it keys /v1/debug/queries lookups.
	HeaderTraceID = "X-Sofos-Trace-Id"
)

// Error codes used in the uniform envelope. Codes are stable API; messages
// are human-readable and may change.
const (
	CodeBadRequest         = "bad_request"
	CodeParseError         = "parse_error"
	CodeMethodNotAllowed   = "method_not_allowed"
	CodeNotFound           = "not_found"
	CodeExecutionError     = "execution_error"
	CodeUnavailable        = "unavailable"
	CodeInternal           = "internal"
	CodeReadOnlyReplica    = "read_only_replica"
	CodeStaleReplica       = "stale_replica"
	CodeReplicationTimeout = "replication_timeout"
	CodeWALTruncated       = "wal_truncated"
	CodeWALGap             = "wal_gap"
)

// Error is the uniform error payload of every non-200 response.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// ErrorResponse is the JSON body wrapping an Error.
type ErrorResponse struct {
	Error Error `json:"error"`
}

// QueryRequest is the POST /v1/query body. GET requests pass the query in
// the "q" parameter instead.
type QueryRequest struct {
	Query string `json:"query"`
}

// QueryResponse is the /v1/query response body. Rows are rendered terms in
// SELECT order. Cached responses re-serve a previous execution's rows;
// ElapsedUS then reports the original execution time.
type QueryResponse struct {
	Vars       []string   `json:"vars"`
	Rows       [][]string `json:"rows"`
	Via        string     `json:"via"`              // answering view ID or "base"
	Reason     string     `json:"reason,omitempty"` // base fallback reason
	Outcome    string     `json:"outcome,omitempty"`
	Generation int64      `json:"generation"` // catalog generation answered at
	Cached     bool       `json:"cached"`
	ElapsedUS  int64      `json:"elapsed_us"`
	// Trace is the span tree of this execution, populated when the request
	// asked for it with ?trace=1. TraceID matches the X-Sofos-Trace-Id
	// response header.
	TraceID string      `json:"trace_id,omitempty"`
	Trace   []TraceSpan `json:"trace,omitempty"`
}

// TraceAttr is one key/value annotation on a trace span.
type TraceAttr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// TraceSpan is one timed step of a query lifecycle as rendered on the wire.
// Parent indexes into the span list (-1 for roots); offsets and durations
// are microseconds from the trace's monotonic start.
type TraceSpan struct {
	Name    string      `json:"name"`
	Parent  int         `json:"parent"`
	StartUS int64       `json:"start_us"`
	DurUS   int64       `json:"dur_us"`
	Attrs   []TraceAttr `json:"attrs,omitempty"`
}

// QueryLogEntry is one retained query in the GET /v1/debug/queries ring:
// what was asked, how the rewriter answered it, and what it cost — the
// observation stream a future online view-selection loop consumes.
type QueryLogEntry struct {
	TraceID     string      `json:"trace_id"`
	Query       string      `json:"query"`
	Outcome     string      `json:"outcome"` // cache_hit, view_hit, partial_rollup, full_scan, error
	View        string      `json:"view,omitempty"`
	Reason      string      `json:"reason,omitempty"`
	Generation  int64       `json:"generation"`
	StartUnixUS int64       `json:"start_unix_us"`
	ElapsedUS   int64       `json:"elapsed_us"`
	Rows        int         `json:"rows"`
	Slow        bool        `json:"slow,omitempty"` // exceeded -slow-query-ms
	Error       string      `json:"error,omitempty"`
	Spans       []TraceSpan `json:"spans,omitempty"`
}

// DebugQueriesResponse is the GET /v1/debug/queries body. Total counts
// every query ever recorded, including ones the bounded ring has evicted.
type DebugQueriesResponse struct {
	Total   uint64          `json:"total"`
	Entries []QueryLogEntry `json:"entries"`
}

// UpdateRequest is the POST /v1/update body: N-Triples text blocks to insert
// into and delete from the base graph, the view-maintenance mode, and the
// acknowledgement level.
type UpdateRequest struct {
	Insert string `json:"insert,omitempty"` // N-Triples text
	Delete string `json:"delete,omitempty"` // N-Triples text
	// Statements is the multi-statement transaction form: several
	// insert/delete batches applied in order and committed atomically —
	// one WAL record, one generation bump, and readers observe either
	// none or all of them. Mutually exclusive with the top-level
	// Insert/Delete shorthand.
	Statements []UpdateStatement `json:"statements,omitempty"`
	Maintain   string            `json:"maintain,omitempty"` // "", "lazy", or "eager"
	// Ack picks when the batch is acknowledged: "" or "local" acknowledges
	// once the write-ahead log has it (fsync under -wal-sync=always);
	// "replicas:N" additionally waits until N replicas report the batch
	// applied, so a subsequent read from any of them observes it.
	Ack string `json:"ack,omitempty"`
}

// UpdateStatement is one insert/delete batch inside a multi-statement
// /v1/update transaction.
type UpdateStatement struct {
	Insert string `json:"insert,omitempty"` // N-Triples text
	Delete string `json:"delete,omitempty"` // N-Triples text
}

// UpdateResponse reports what one batch changed.
type UpdateResponse struct {
	Inserted     int    `json:"inserted"`              // triples actually new
	Deleted      int    `json:"deleted"`               // triples actually removed
	Statements   int    `json:"statements,omitempty"`  // statements in the transaction (multi-statement form)
	Stale        int    `json:"stale"`                 // materialized views still stale
	Refreshed    int    `json:"refreshed,omitempty"`   // views refreshed (maintain=eager)
	Incremental  int    `json:"incremental,omitempty"` // of those, via the delta path
	Generation   int64  `json:"generation"`
	Ack          string `json:"ack,omitempty"`            // effective ack level
	AckReplicas  int    `json:"ack_replicas,omitempty"`   // replicas that had applied at ack time
	AckElapsedUS int64  `json:"ack_elapsed_us,omitempty"` // time spent waiting for replicas
}

// ViewInfo describes one materialized view in /v1/views responses.
type ViewInfo struct {
	ID      string   `json:"id"`
	Dims    []string `json:"dims"`
	Groups  int      `json:"groups"`
	Triples int      `json:"triples"` // encoding triples in G+
	Stale   bool     `json:"stale"`
}

// ViewsResponse is the GET /v1/views response body.
type ViewsResponse struct {
	Facet        string     `json:"facet"`
	LatticeViews int        `json:"lattice_views"`
	Materialized []ViewInfo `json:"materialized"`
	Generation   int64      `json:"generation"`
}

// ViewsRequest is the POST /v1/views action body.
type ViewsRequest struct {
	// Action is one of "materialize", "refresh", "drop", "reset".
	Action string `json:"action"`
	// View names one view (dimension names joined by "+", or "apex") for
	// materialize/drop. Empty with materialize means select by Model and K.
	View string `json:"view,omitempty"`
	// Model and K drive cost-based selection for "materialize" without View.
	Model string `json:"model,omitempty"`
	K     int    `json:"k,omitempty"`
}

// ViewsActionResponse reports a POST /v1/views outcome.
type ViewsActionResponse struct {
	Action     string   `json:"action"`
	Views      []string `json:"views,omitempty"` // views acted on
	Refreshed  int      `json:"refreshed"`       // refresh only
	Generation int64    `json:"generation"`
}

// ViewMaintStats is one materialized view's maintenance health in /v1/stats.
type ViewMaintStats struct {
	ID            string `json:"id"`
	Groups        int    `json:"groups"`
	Stale         bool   `json:"stale"`
	Mode          string `json:"mode"`              // facet maintainability classification
	LastPath      string `json:"last_refresh_path"` // initial, incremental, or full
	LastRefreshUS int64  `json:"last_refresh_us"`
	LastDeltaSize int    `json:"last_delta_size,omitempty"` // |ΔG| of the last incremental refresh
}

// CacheStats reports result-cache effectiveness and memory footprint.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`     // rendered bytes in use
	MaxBytes  int64 `json:"max_bytes"` // configured byte budget (0 = unlimited)
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// PersistStats is the /v1/stats "persist" section (nil when memory-only).
type PersistStats struct {
	DataDir                  string                 `json:"data_dir"`
	WAL                      persist.LogStats       `json:"wal"`
	WALGap                   bool                   `json:"wal_gap,omitempty"`   // unhealed append failure; updates refused
	Checkpoints              int64                  `json:"checkpoints_written"` // since boot
	LastCheckpointSeq        uint64                 `json:"last_checkpoint_seq,omitempty"`
	LastCheckpointGeneration int64                  `json:"last_checkpoint_generation,omitempty"`
	Recovery                 *persist.RecoveryStats `json:"recovery,omitempty"`
}

// ReplicaInfo is one replica's progress as tracked by the primary.
type ReplicaInfo struct {
	ID          string `json:"id"`
	Version     int64  `json:"version"`    // last graph version reported applied
	Generation  int64  `json:"generation"` // last catalog generation reported applied
	LagVersions int64  `json:"lag_versions"`
	LastSeenMS  int64  `json:"last_seen_ms"` // milliseconds since the last progress report
}

// ReplicationStats is the /v1/stats "replication" section.
type ReplicationStats struct {
	Role string `json:"role"` // "primary" or "replica"

	// Primary side: every replica that has reported progress.
	Replicas []ReplicaInfo `json:"replicas,omitempty"`

	// Replica side.
	Primary              string `json:"primary,omitempty"`                 // primary base URL
	AppliedRecords       int64  `json:"applied_records,omitempty"`         // WAL records applied since boot
	LagGenerations       int64  `json:"lag_generations,omitempty"`         // last-seen primary generation minus applied
	LastPrimaryContactMS int64  `json:"last_primary_contact_ms,omitempty"` // ms since the stream last delivered
	Bootstraps           int64  `json:"bootstraps,omitempty"`              // checkpoint bootstraps (1 = boot only)
}

// StatsResponse is the GET /v1/stats response body.
type StatsResponse struct {
	UptimeS         float64           `json:"uptime_s"`
	Role            string            `json:"role"` // "primary" or "replica"
	Facet           string            `json:"facet"`
	Dims            []string          `json:"dims"`
	BaseTriples     int               `json:"base_triples"`
	ExpandedTriples int               `json:"expanded_triples"`
	Amplification   float64           `json:"amplification"`
	Materialized    int               `json:"materialized_views"`
	StaleViews      int               `json:"stale_views"`
	Maintenance     string            `json:"maintenance"` // facet maintainability classification
	Views           []ViewMaintStats  `json:"views"`
	Generation      int64             `json:"generation"`
	GraphVersion    int64             `json:"graph_version"`
	ViewSetHash     string            `json:"view_set_hash"`
	Workers         int               `json:"workers"`
	MaxConcurrent   int               `json:"max_concurrent"`
	InFlight        int               `json:"in_flight"` // queries holding execution slots
	Queries         int64             `json:"queries"`
	Updates         int64             `json:"updates"`
	Cache           CacheStats        `json:"cache"`
	Store           store.MemStats    `json:"store"`                 // resident bytes per index, storage backend
	Persist         *PersistStats     `json:"persist,omitempty"`     // nil when memory-only
	Replication     *ReplicationStats `json:"replication,omitempty"` // nil when standalone
}

// HealthResponse is the GET /healthz (and /v1/healthz) body: enough for a
// load balancer to route around a lagging replica.
type HealthResponse struct {
	OK         bool   `json:"ok"`
	Role       string `json:"role"`        // "primary" or "replica"
	Generation int64  `json:"generation"`  // applied catalog generation
	WALVersion int64  `json:"wal_version"` // applied base-graph version
	ReplicaLag int64  `json:"replica_lag"` // generations behind the primary (0 on a primary)
	// CheckpointAgeS is seconds since the last durable checkpoint (-1 when
	// memory-only or no checkpoint yet); WALBytes is the appended byte size
	// of the live WAL suffix. Together they let an operator alert on stale
	// checkpoints without parsing /v1/stats.
	CheckpointAgeS float64 `json:"checkpoint_age_s"`
	WALBytes       int64   `json:"wal_bytes"`
}

// CheckpointResponse is the POST /v1/admin/checkpoint response body.
type CheckpointResponse struct {
	Manifest  *persist.Manifest `json:"manifest"`
	ElapsedUS int64             `json:"elapsed_us"`
}

// ReplicaAckRequest is the POST /v1/replica/ack body: one replica's applied
// progress report. Replicas send it after each applied record and on an idle
// heartbeat, so the primary's ack waits and lag stats stay current.
type ReplicaAckRequest struct {
	ID         string `json:"id"`
	Version    int64  `json:"version"`    // applied base-graph version
	Generation int64  `json:"generation"` // applied catalog generation
}

// ReplicaAckResponse confirms a progress report.
type ReplicaAckResponse struct {
	OK bool `json:"ok"`
}

// WALEvent is one line of the GET /v1/wal NDJSON stream. Exactly one of the
// three shapes is populated per line:
//
//   - a record event: Seq + Record (the encoded persist.Record payload,
//     base64 in JSON; decode with persist.DecodeRecord);
//   - a heartbeat: Heartbeat=true with the primary's current Generation and
//     Version, so an in-sync replica can report zero lag without traffic;
//   - a terminal error: Error set (e.g. CodeWALGap when the requested resume
//     version is no longer contiguous with the log) — the client must
//     re-bootstrap from a fresh checkpoint.
type WALEvent struct {
	Seq        uint64 `json:"seq,omitempty"`
	Record     []byte `json:"record,omitempty"`
	Heartbeat  bool   `json:"heartbeat,omitempty"`
	Generation int64  `json:"generation,omitempty"`
	Version    int64  `json:"version,omitempty"`
	Error      *Error `json:"error,omitempty"`
}
