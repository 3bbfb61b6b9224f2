package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sofos/internal/api"
	"sofos/internal/core"
	"sofos/internal/cost"
	"sofos/internal/facet"
	"sofos/internal/persist"
	"sofos/internal/rdf"
	"sofos/internal/store"
)

// handleUpdate applies one write transaction through the catalog so base
// graph and G+ stay consistent, materialized views turn stale, and each
// statement's effective delta is captured for incremental maintenance. The
// body is either the single-statement shorthand (top-level insert/delete) or
// a multi-statement transaction ("statements": several batches applied in
// order). Either way the transaction is prepared on a private fork of the
// published state and made visible with one atomic publish: concurrent
// queries see none or all of it — including maintain=eager refreshes, which
// commit in the same publish. Every statement is parsed before anything is
// applied, and any failure (parse, apply, eager refresh) aborts the fork, so
// a non-200 response always means nothing was applied.
//
// Acknowledgement levels: "" or "local" acknowledges once the transaction
// reached the write-ahead log (the durability point); "replicas:N"
// additionally waits — after publishing, so replication itself is never
// stalled by the wait — until N replicas report the transaction applied.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.rejectReplicaWrite(w) {
		return
	}
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "POST a JSON body")
		return
	}
	var req api.UpdateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
		return
	}
	if req.Maintain != "" && req.Maintain != "lazy" && req.Maintain != "eager" {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest,
			"unknown maintain mode %q (use lazy or eager)", req.Maintain)
		return
	}
	ackN, err := parseAckLevel(req.Ack)
	if err != nil {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	stmts, ok := parseStatements(w, &req)
	if !ok {
		return
	}

	resp, toVersion, ok := s.commitUpdate(w, &req, stmts)
	if !ok {
		return
	}
	if ackN > 0 {
		// The wait runs outside the write lock: replicas catch up by tailing
		// the WAL (file reads) and posting acks, neither of which needs the
		// lock, but queries and further writes must not stall behind us.
		start := time.Now()
		got, waitErr := s.tracker.waitFor(r.Context(), ackN, toVersion, s.cfg.AckTimeout)
		resp.Ack = fmt.Sprintf("replicas:%d", ackN)
		resp.AckReplicas = got
		resp.AckElapsedUS = time.Since(start).Microseconds()
		if waitErr != nil {
			httpError(w, http.StatusGatewayTimeout, api.CodeReplicationTimeout,
				"batch committed and locally durable at generation %d, but only %d of %d replicas acknowledged it: %v",
				resp.Generation, got, ackN, waitErr)
			return
		}
	} else {
		resp.Ack = "local"
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseAckLevel resolves an UpdateRequest.Ack value to the number of replica
// acknowledgements required (0 = local only).
func parseAckLevel(level string) (int, error) {
	switch {
	case level == "" || level == "local":
		return 0, nil
	case strings.HasPrefix(level, "replicas:"):
		n, err := strconv.Atoi(strings.TrimPrefix(level, "replicas:"))
		if err != nil || n < 1 {
			return 0, fmt.Errorf("bad ack level %q: replicas:N needs N >= 1", level)
		}
		return n, nil
	default:
		return 0, fmt.Errorf("unknown ack level %q (use local or replicas:N)", level)
	}
}

// updateStatement is one parsed statement of an update transaction.
type updateStatement struct {
	inserts, deletes []rdf.Triple
}

// parseStatements resolves an UpdateRequest body to its parsed statements —
// the multi-statement transaction form, or the single-statement shorthand.
// Everything is parsed before anything is applied; on false the error
// response has been written.
func parseStatements(w http.ResponseWriter, req *api.UpdateRequest) ([]updateStatement, bool) {
	if len(req.Statements) > 0 {
		if req.Insert != "" || req.Delete != "" {
			httpError(w, http.StatusBadRequest, api.CodeBadRequest,
				"use either the top-level insert/delete shorthand or statements, not both")
			return nil, false
		}
		stmts := make([]updateStatement, 0, len(req.Statements))
		for i, st := range req.Statements {
			ins, err := parseTriples(st.Insert)
			if err != nil {
				httpError(w, http.StatusBadRequest, api.CodeParseError, "statement %d insert: %v", i+1, err)
				return nil, false
			}
			del, err := parseTriples(st.Delete)
			if err != nil {
				httpError(w, http.StatusBadRequest, api.CodeParseError, "statement %d delete: %v", i+1, err)
				return nil, false
			}
			if len(ins) == 0 && len(del) == 0 {
				httpError(w, http.StatusBadRequest, api.CodeBadRequest, "statement %d is empty", i+1)
				return nil, false
			}
			stmts = append(stmts, updateStatement{inserts: ins, deletes: del})
		}
		return stmts, true
	}
	inserts, err := parseTriples(req.Insert)
	if err != nil {
		httpError(w, http.StatusBadRequest, api.CodeParseError, "insert: %v", err)
		return nil, false
	}
	deletes, err := parseTriples(req.Delete)
	if err != nil {
		httpError(w, http.StatusBadRequest, api.CodeParseError, "delete: %v", err)
		return nil, false
	}
	if len(inserts) == 0 && len(deletes) == 0 {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "empty update batch")
		return nil, false
	}
	return []updateStatement{{inserts: inserts, deletes: deletes}}, true
}

// commitUpdate is handleUpdate's writer transaction: fork the published
// state, apply every statement, run eager maintenance if asked, reach the
// local durability point, and publish. Readers are never blocked — they keep
// answering against the old snapshot until the atomic publish. It reports
// whether the caller may proceed to acknowledgement (on false the error
// response has been written and nothing was applied) plus the transaction's
// end version, which is what replica acknowledgements are counted against.
func (s *Server) commitUpdate(w http.ResponseWriter, req *api.UpdateRequest, stmts []updateStatement) (*api.UpdateResponse, int64, bool) {
	// An earlier transaction committed in memory but never reached the WAL:
	// until a checkpoint captures it, logging any further transaction would
	// write a version interval recovery cannot chain to (it would replay
	// onto a graph missing the unlogged one). Heal by checkpointing first,
	// or refuse before applying anything.
	if s.dur != nil && s.walGap.Load() {
		err := s.chain.Exclusive(func(st *core.GenerationState) error {
			_, cperr := s.checkpointState(st.Sys)
			return cperr
		})
		if err != nil {
			httpError(w, http.StatusServiceUnavailable, api.CodeUnavailable,
				"write-ahead log has an unhealed gap and checkpointing failed: %v; update refused (nothing applied)", err)
			return nil, 0, false
		}
		s.walGap.Store(false)
	}

	txn := s.chain.Begin()
	baseGen := txn.Base.Generation
	resp := &api.UpdateResponse{}
	if len(stmts) > 1 {
		resp.Statements = len(stmts)
	}
	// Apply statement by statement (rather than as one merged batch) so the
	// catalog's delta log records each statement's precise effective delta —
	// what keeps the eager refresh below on the O(|ΔG|) incremental path.
	deltas := make([]store.Delta, 0, len(stmts))
	for i, st := range stmts {
		d, err := txn.Sys.Catalog.ApplyUpdate(st.inserts, st.deletes)
		if err != nil {
			txn.Abort()
			if len(stmts) > 1 {
				httpError(w, http.StatusUnprocessableEntity, api.CodeExecutionError,
					"statement %d: applying batch: %v (transaction aborted, nothing applied)", i+1, err)
			} else {
				httpError(w, http.StatusUnprocessableEntity, api.CodeExecutionError, "applying batch: %v", err)
			}
			return nil, 0, false
		}
		resp.Inserted += len(d.Inserted)
		resp.Deleted += len(d.Deleted)
		deltas = append(deltas, d)
	}
	if req.Maintain == "eager" {
		plan, err := txn.Sys.Catalog.PlanRefresh(txn.Sys.Workers)
		if err != nil {
			txn.Abort()
			httpError(w, http.StatusInternalServerError, api.CodeInternal,
				"eager refresh failed to plan: %v (transaction aborted, nothing applied)", err)
			return nil, 0, false
		}
		if plan != nil {
			resp.Incremental = plan.Incremental()
		}
		n, err := txn.Sys.Catalog.CommitRefresh(plan)
		if err != nil {
			txn.Abort()
			httpError(w, http.StatusInternalServerError, api.CodeInternal,
				"eager refresh failed after %d views: %v (transaction aborted, nothing applied)", n, err)
			return nil, 0, false
		}
		resp.Refreshed = n
	}
	// Nothing changed (every statement was a no-op and no view refreshed):
	// keep the published state as is — no generation bump, no WAL record.
	if txn.Sys.Generation() == baseGen {
		resp.Stale = len(txn.Sys.Catalog.StaleViews())
		resp.Generation = baseGen
		toVersion := txn.Sys.GraphVersion()
		txn.Abort()
		s.updates.Add(1)
		return resp, toVersion, true
	}
	// One transaction, one generation: the statements and the eager refresh
	// each moved the fork's (unpublished) counter; normalize to a single
	// bump so clients and replicas observe exactly one new generation per
	// committed transaction.
	txn.Sys.Catalog.SetGeneration(baseGen + 1)

	// Durability point: the transaction reaches the write-ahead log as one
	// net record — under -wal-sync=always, stable storage — before it is
	// published or acknowledged. The recorded generation is the one the
	// client will see; replay reinstates it exactly.
	net := store.ComposeDeltas(deltas)
	if s.dur != nil && net.FromVersion != net.ToVersion {
		rec := &persist.Record{
			FromVersion: net.FromVersion,
			ToVersion:   net.ToVersion,
			Generation:  txn.Sys.Generation(),
			Eager:       req.Maintain == "eager",
			Inserts:     net.Inserted,
			Deletes:     net.Deleted,
		}
		if err := s.dur.Log.Append(rec); err != nil {
			// The prepared transaction cannot be logged — a gap every later
			// logged record would be unrecoverable across. A checkpoint of
			// the pending fork heals it: the snapshot captures the
			// transaction and rotates the log past the gap, after which the
			// transaction IS durable and publishing can proceed. If even
			// that fails, abort: the published state never contained the
			// transaction, so the client can simply re-send it once the gap
			// heals.
			if _, cperr := s.checkpointState(txn.Sys); cperr != nil {
				txn.Abort()
				s.walGap.Store(true)
				httpError(w, http.StatusInternalServerError, api.CodeInternal,
					"transaction failed to reach the write-ahead log (%v) and the healing checkpoint failed (%v); nothing was applied, and further updates are refused until a checkpoint succeeds",
					err, cperr)
				return nil, 0, false
			}
		}
	}
	// A no-op delta (nothing logged) can still have eagerly refreshed views
	// left stale by earlier lazy batches — a generation bump the WAL does
	// not capture. Snapshot the pending state before publishing it, as
	// manual /views refreshes do.
	if s.dur != nil && net.FromVersion == net.ToVersion && resp.Refreshed > 0 &&
		!s.persistViewChange(w, "eager refresh", txn.Sys) {
		txn.Abort()
		return nil, 0, false
	}
	resp.Stale = len(txn.Sys.Catalog.StaleViews())
	resp.Generation = txn.Sys.Generation()
	txn.Commit()
	s.updates.Add(1)
	return resp, net.ToVersion, true
}

// rejectReplicaWrite refuses mutations on a read replica, naming the
// primary. It reports whether the response has been written.
func (s *Server) rejectReplicaWrite(w http.ResponseWriter) bool {
	if s.role != RoleReplica {
		return false
	}
	httpError(w, http.StatusForbidden, api.CodeReadOnlyReplica,
		"this server is a read replica; send writes to the primary at %s", s.repl.primaryURL())
	return true
}

// parseTriples parses an N-Triples text block ("" means none).
func parseTriples(text string) ([]rdf.Triple, error) {
	if strings.TrimSpace(text) == "" {
		return nil, nil
	}
	return rdf.NewParser(strings.NewReader(text)).ParseAll()
}

// handleViews lists (GET) or manages (POST) materializations.
func (s *Server) handleViews(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		// One pointer load pins a consistent snapshot; no lock.
		st := s.chain.Load()
		sys := st.Sys
		resp := api.ViewsResponse{
			Facet:        sys.Facet.Name,
			LatticeViews: sys.Lattice.Size(),
			Materialized: []api.ViewInfo{},
			Generation:   st.Generation,
		}
		for _, m := range sys.Catalog.Materialized() {
			v := m.View()
			resp.Materialized = append(resp.Materialized, api.ViewInfo{
				ID:      v.ID(),
				Dims:    v.Dims(),
				Groups:  m.Data.NumGroups(),
				Triples: m.Triples,
				Stale:   sys.Catalog.Stale(v.Mask),
			})
		}
		writeJSON(w, http.StatusOK, resp)
	case http.MethodPost:
		if s.rejectReplicaWrite(w) {
			return
		}
		var req api.ViewsRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
			return
		}
		s.handleViewsAction(w, req)
	default:
		httpError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET lists views, POST manages them")
	}
}

// handleViewsAction dispatches one POST /views action.
func (s *Server) handleViewsAction(w http.ResponseWriter, req api.ViewsRequest) {
	switch req.Action {
	case "materialize":
		s.actionMaterialize(w, req)
	case "refresh":
		s.actionRefresh(w)
	case "drop":
		v, err := s.resolveView(req.View)
		if err != nil {
			httpError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
			return
		}
		txn := s.chain.Begin()
		if !txn.Sys.Catalog.Drop(v) {
			txn.Abort()
			httpError(w, http.StatusNotFound, api.CodeNotFound, "view %s is not materialized", v.ID())
			return
		}
		if !s.persistViewChange(w, "drop", txn.Sys) {
			txn.Abort()
			return
		}
		gen := txn.Sys.Generation()
		txn.Commit()
		writeJSON(w, http.StatusOK, api.ViewsActionResponse{
			Action: "drop", Views: []string{v.ID()}, Generation: gen,
		})
	case "reset":
		txn := s.chain.Begin()
		txn.Sys.Reset()
		if !s.persistViewChange(w, "reset", txn.Sys) {
			txn.Abort()
			return
		}
		gen := txn.Sys.Generation()
		txn.Commit()
		writeJSON(w, http.StatusOK, api.ViewsActionResponse{
			Action: "reset", Generation: gen,
		})
	default:
		httpError(w, http.StatusBadRequest, api.CodeBadRequest,
			"unknown action %q (use materialize, refresh, drop, reset)", req.Action)
	}
}

// actionMaterialize materializes one named view, or a cost-model selection
// when no view is named. The expensive read-only phases — lattice
// statistics, selection, view-content computation — run against the
// published snapshot with no lock held, so queries keep flowing; only the
// G+ encoding runs inside a writer transaction (Catalog.PlanMaterialize /
// CommitMaterialize), and even that never blocks readers.
func (s *Server) actionMaterialize(w http.ResponseWriter, req api.ViewsRequest) {
	st := s.chain.Load()
	targets, err := s.materializeTargets(st.Sys, req)
	if err != nil {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	plan, err := st.Sys.Catalog.PlanMaterialize(targets, st.Sys.Workers)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, api.CodeExecutionError, "computing view contents: %v", err)
		return
	}
	if plan == nil {
		// Every target was already materialized at plan time.
		writeJSON(w, http.StatusOK, api.ViewsActionResponse{
			Action: "materialize", Generation: st.Generation,
		})
		return
	}

	txn := s.chain.Begin()
	mats, err := txn.Sys.Catalog.CommitMaterialize(plan)
	if err != nil {
		txn.Abort()
		httpError(w, http.StatusUnprocessableEntity, api.CodeExecutionError, "materializing: %v", err)
		return
	}
	// Report what was actually committed: targets materialized between plan
	// and commit keep their existing record and must not be listed twice.
	resp := api.ViewsActionResponse{Action: "materialize"}
	for _, m := range mats {
		resp.Views = append(resp.Views, m.View().ID())
	}
	if len(mats) == 0 {
		resp.Generation = txn.Base.Generation
		txn.Abort()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if !s.persistViewChange(w, "materialize", txn.Sys) {
		txn.Abort()
		return
	}
	resp.Generation = txn.Sys.Generation()
	txn.Commit()
	writeJSON(w, http.StatusOK, resp)
}

// materializeTargets resolves a materialize request to concrete views: the
// named view, or a cost-model selection. Read-only against a pinned
// snapshot (System.Provider serializes its own lazy initialization).
func (s *Server) materializeTargets(sys *core.System, req api.ViewsRequest) ([]facet.View, error) {
	if req.View != "" {
		v, err := s.resolveView(req.View)
		if err != nil {
			return nil, err
		}
		return []facet.View{v}, nil
	}
	model := req.Model
	if model == "" {
		model = "aggvalues"
	}
	k := req.K
	if k <= 0 {
		k = 3
	}
	models, err := sys.AnalyticModels(s.cfg.SelectionSeed)
	if err != nil {
		return nil, fmt.Errorf("computing lattice statistics: %w", err)
	}
	var picked cost.Model
	for _, m := range models {
		if m.Name() == model {
			picked = m
			break
		}
	}
	if picked == nil {
		return nil, fmt.Errorf("unknown model %q (use random, triples, aggvalues, or nodes)", model)
	}
	sel, err := sys.SelectViews(picked, k)
	if err != nil {
		return nil, fmt.Errorf("selecting views: %w", err)
	}
	return sel.Views, nil
}

// actionRefresh refreshes stale views: contents are recomputed against the
// published snapshot with no lock held (queries keep flowing), only the
// diff apply runs inside a writer transaction — and readers stay wait-free
// even through that.
func (s *Server) actionRefresh(w http.ResponseWriter) {
	st := s.chain.Load()
	plan, err := st.Sys.Catalog.PlanRefresh(st.Sys.Workers)
	if err != nil {
		httpError(w, http.StatusInternalServerError, api.CodeInternal, "recomputing stale views: %v", err)
		return
	}
	if plan == nil {
		writeJSON(w, http.StatusOK, api.ViewsActionResponse{
			Action: "refresh", Refreshed: 0, Generation: st.Generation,
		})
		return
	}
	txn := s.chain.Begin()
	n, err := txn.Sys.Catalog.CommitRefresh(plan)
	if err != nil {
		txn.Abort()
		httpError(w, http.StatusInternalServerError, api.CodeInternal, "applying refresh: %v", err)
		return
	}
	if n == 0 {
		// Every planned view was dropped or re-recorded since planning;
		// nothing moved, so keep the published state.
		gen := txn.Base.Generation
		txn.Abort()
		writeJSON(w, http.StatusOK, api.ViewsActionResponse{
			Action: "refresh", Refreshed: 0, Generation: gen,
		})
		return
	}
	// A manual refresh moves the generation without a WAL record (only
	// /update transactions are logged), so snapshot the state it produced —
	// durably, before publishing it.
	if !s.persistViewChange(w, "refresh", txn.Sys) {
		txn.Abort()
		return
	}
	gen := txn.Sys.Generation()
	txn.Commit()
	writeJSON(w, http.StatusOK, api.ViewsActionResponse{
		Action: "refresh", Refreshed: n, Generation: gen,
	})
}

// resolveView maps a view ID ("lang+year" or "apex") to a facet view.
func (s *Server) resolveView(id string) (facet.View, error) {
	f := s.system().Facet
	if id == "apex" {
		return f.View(0), nil
	}
	return f.ViewByDims(strings.Split(id, "+")...)
}

// handleStats reports serving health.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET only")
		return
	}
	// Pin one published snapshot; every reported number is consistent with
	// every other, and no lock is held.
	st := s.chain.Load()
	sys := st.Sys
	resp := api.StatsResponse{
		UptimeS:         time.Since(s.started).Seconds(),
		Role:            s.role,
		Facet:           sys.Facet.Name,
		Dims:            sys.Facet.Dims,
		BaseTriples:     sys.Graph.Len(),
		ExpandedTriples: sys.Graph.Len() + sys.Catalog.AddedTriples(),
		Amplification:   sys.Catalog.StorageAmplification(),
		Materialized:    len(sys.Catalog.Materialized()),
		StaleViews:      len(sys.Catalog.StaleViews()),
		Maintenance:     sys.Catalog.MaintenanceMode().String(),
		Views:           []api.ViewMaintStats{},
		Generation:      st.Generation,
		GraphVersion:    sys.GraphVersion(),
		ViewSetHash:     strconv.FormatUint(st.ViewSetHash, 16),
		Workers:         sys.Workers,
		MaxConcurrent:   s.cfg.MaxConcurrent,
		InFlight:        len(s.sem),
		Queries:         s.queries.Load(),
		Updates:         s.updates.Load(),
		Store:           sys.Graph.MemStats(),
	}
	for _, m := range sys.Catalog.Materialized() {
		v := m.View()
		resp.Views = append(resp.Views, api.ViewMaintStats{
			ID:            v.ID(),
			Groups:        m.Data.NumGroups(),
			Stale:         sys.Catalog.Stale(v.Mask),
			Mode:          m.Maint.Mode,
			LastPath:      m.Maint.LastPath,
			LastRefreshUS: m.Maint.LastCost.Microseconds(),
			LastDeltaSize: m.Maint.DeltaSize,
		})
	}
	if s.cache != nil {
		resp.Cache = s.cache.stats()
	}
	resp.Persist = s.persistStatsNow()
	resp.Replication = s.replicationStatsNow(sys)
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is the liveness probe: enough for a load balancer to route
// around a lagging replica without parsing full stats.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sys := s.system()
	resp := api.HealthResponse{
		OK:             true,
		Role:           s.role,
		Generation:     sys.Generation(),
		WALVersion:     sys.GraphVersion(),
		ReplicaLag:     s.replicaLag(sys),
		CheckpointAgeS: s.checkpointAge(),
	}
	if s.dur != nil {
		resp.WALBytes = s.dur.Log.Stats().Bytes
	}
	writeJSON(w, http.StatusOK, resp)
}
