// Command sofos-serve runs the SOFOS online module as a concurrent HTTP
// analytics server over one dataset's facet: queries are answered through
// the view rewriter, updates flow through the catalog so views turn stale,
// and a result cache keyed on the catalog generation serves repeated
// queries without re-execution.
//
// Every endpoint lives under /v1:
//
//	sofos-serve -dataset dbpedia -k 3                 # serve on :8080
//	curl 'localhost:8080/v1/query?q=SELECT+...'       # answer a query
//	curl -X POST localhost:8080/v1/update -d '{"insert": "<s> <p> <o> ."}'
//	curl localhost:8080/v1/views                      # list materializations
//	curl localhost:8080/v1/stats                      # serving health
//
// With -data-dir the server is durable: committed /v1/update batches are
// written ahead to a log before they are acknowledged, checkpoints pair a
// graph snapshot with the catalog state, and a restart — even from SIGKILL —
// recovers the exact committed state by loading the newest checkpoint and
// replaying the log suffix:
//
//	sofos-serve -dataset dbpedia -k 3 -data-dir /var/lib/sofos \
//	    -wal-sync always -checkpoint-interval 5m
//	curl -X POST localhost:8080/v1/admin/checkpoint   # checkpoint on demand
//
// With -replica the server is a read replica of a durable primary: it
// bootstraps from the primary's newest checkpoint (GET /v1/checkpoint),
// tails the primary's write-ahead log stream (GET /v1/wal), applies every
// record through the same incremental maintenance path, rejects writes, and
// reports applied progress back — which is what "ack":"replicas:N" updates
// on the primary wait for. Replicas keep no local state; dataset, scale,
// and seed come from the primary's manifest:
//
//	sofos-serve -replica http://primary:8080 -addr :8081
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"sofos/internal/core"
	"sofos/internal/cost"
	"sofos/internal/datasets"
	"sofos/internal/persist"
	"sofos/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sofos-serve:", err)
		os.Exit(1)
	}
}

// config is the parsed command line.
type config struct {
	addr               string
	dataset            string
	scale              int
	seed               int64
	model              string
	k                  int
	workers            int
	maxConcurrent      int
	cacheEntries       int
	cacheBytes         int64
	dataDir            string
	walSync            string
	checkpointInterval time.Duration
	replica            string
	replicaID          string
	ackTimeout         time.Duration
	readWait           time.Duration
	obsMode            string
	slowQueryMS        int
	traceRing          int
	debugAddr          string
}

// parseFlags parses the command line into a config.
func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("sofos-serve", flag.ContinueOnError)
	c := &config{}
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.dataset, "dataset", "dbpedia", "dataset: lubm, dbpedia, swdf")
	fs.IntVar(&c.scale, "scale", 0, "dataset scale (0 = default)")
	fs.Int64Var(&c.seed, "seed", 1, "dataset seed")
	fs.StringVar(&c.model, "model", "aggvalues", "cost model for the initial view selection")
	fs.IntVar(&c.k, "k", 3, "views to materialize at startup (0 = none)")
	fs.IntVar(&c.workers, "workers", 0, "intra-query parallelism (0 = all CPUs)")
	fs.IntVar(&c.maxConcurrent, "max-concurrent", 0, "admission limit on concurrently executing queries (0 = 2x CPUs)")
	fs.IntVar(&c.cacheEntries, "cache", 0, "result cache capacity in entries (0 = default 4096, negative = disabled)")
	fs.Int64Var(&c.cacheBytes, "cache-bytes", 0, "result cache byte budget over rendered bodies (0 = entry bound only)")
	fs.StringVar(&c.dataDir, "data-dir", "", "durable data directory (write-ahead log + checkpoints); empty = memory-only")
	fs.StringVar(&c.walSync, "wal-sync", "always", "WAL fsync policy: always (sync before every ack), interval (background sync), none")
	fs.DurationVar(&c.checkpointInterval, "checkpoint-interval", 0, "write a checkpoint this often, skipping ticks when nothing changed (0 = only at boot, on view changes, and via /admin/checkpoint; a recovered boot writes its checkpoint once serving starts)")
	fs.StringVar(&c.replica, "replica", "", "run as a read replica of the primary at this base URL (e.g. http://primary:8080); ignores -data-dir and dataset flags")
	fs.StringVar(&c.replicaID, "replica-id", "", "replica identity in progress reports and the primary's /v1/stats (default replica-<pid>)")
	fs.DurationVar(&c.ackTimeout, "ack-timeout", 0, `how long an update with "ack":"replicas:N" waits for N replica acknowledgements (0 = 10s)`)
	fs.DurationVar(&c.readWait, "read-wait", 0, "how long a replica holds a read ahead of its applied state before redirecting to the primary (0 = 2s)")
	fs.StringVar(&c.obsMode, "obs", "on", "observability: on (tracing, /v1/metrics, /v1/debug/queries) or off")
	fs.IntVar(&c.slowQueryMS, "slow-query-ms", 0, "promote queries at least this slow to the structured log (0 = 500, negative = disabled)")
	fs.IntVar(&c.traceRing, "trace-ring", 0, "recent-query trace ring capacity behind /v1/debug/queries (0 = 256)")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "serve net/http/pprof profiling on this address (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if c.obsMode != "on" && c.obsMode != "off" {
		return nil, fmt.Errorf("bad -obs value %q (use on or off)", c.obsMode)
	}
	if c.replica != "" && c.dataDir != "" {
		return nil, fmt.Errorf("-replica and -data-dir are mutually exclusive: replicas keep no durable state")
	}
	return c, nil
}

// opts maps the flags to system options.
func (c *config) opts() core.Options {
	return core.Options{Workers: c.workers}
}

// buildServer constructs the system and server for a config — separated
// from run so tests can build without listening. With a data dir it prefers
// recovery (checkpoint load + WAL replay) over generator rebuild and opens
// the WAL. A recovered boot also returns foldIn, the checkpoint that folds
// the replayed WAL suffix into a new snapshot, for the caller to run once
// serving has started; it is nil on every other boot.
func buildServer(c *config) (srv *server.Server, foldIn func() error, err error) {
	if c.replica != "" {
		srv, err = buildReplica(c)
		return srv, nil, err
	}
	var (
		dur *server.Durability
		sys *core.System
	)
	if c.dataDir != "" {
		policy, err := persist.ParseSyncPolicy(c.walSync)
		if err != nil {
			return nil, nil, err
		}
		dir, err := persist.Open(c.dataDir)
		if err != nil {
			return nil, nil, err
		}
		cp, err := dir.LatestCheckpoint()
		if err != nil {
			return nil, nil, err
		}
		dur = &server.Durability{Dir: dir, Dataset: c.dataset, Scale: c.scale, Seed: c.seed}
		if cp != nil {
			if cp.Manifest.Dataset != c.dataset || cp.Manifest.Scale != c.scale || cp.Manifest.Seed != c.seed {
				return nil, nil, fmt.Errorf("data dir %s holds %s scale %d seed %d, flags ask for %s scale %d seed %d",
					c.dataDir, cp.Manifest.Dataset, cp.Manifest.Scale, cp.Manifest.Seed,
					c.dataset, c.scale, c.seed)
			}
			spec, ok := datasets.ByName(c.dataset)
			if !ok {
				return nil, nil, fmt.Errorf("unknown dataset %q in data dir manifest", c.dataset)
			}
			f, err := spec.Facet()
			if err != nil {
				return nil, nil, err
			}
			var rec *core.RecoveryStats
			sys, rec, err = core.Restore(dir, f, c.opts())
			if err != nil {
				return nil, nil, err
			}
			rec.LogRecovery()
			dur.Restored, dur.Recovery = &cp.Manifest, rec
		} else {
			// No checkpoint. Leftover WAL segments are tolerable only when
			// they hold no records — the debris of a first boot that died
			// before its initial checkpoint, with nothing ever acknowledged.
			// Any record without a checkpoint means committed data with no
			// snapshot to replay it onto: refuse rather than guess.
			cur := persist.OpenWALCursor(dir.WALDir(), 0, 0)
			_, _, err := cur.Next()
			cur.Close()
			switch {
			case err == nil || errors.Is(err, persist.ErrWALGap):
				return nil, nil, fmt.Errorf("data dir %s has wal records but no checkpoint; cannot recover", c.dataDir)
			case !errors.Is(err, persist.ErrWALNoMore):
				return nil, nil, fmt.Errorf("data dir %s has no checkpoint and a damaged wal: %w", c.dataDir, err)
			}
		}
		dur.Log, err = persist.OpenLog(dir.WALDir(), policy)
		if err != nil {
			return nil, nil, err
		}
	}

	if sys == nil {
		sys, err = buildFresh(c)
		if err != nil {
			return nil, nil, err
		}
	}
	srv = server.New(sys, server.Config{
		MaxConcurrent: c.maxConcurrent,
		CacheEntries:  c.cacheEntries,
		CacheBytes:    c.cacheBytes,
		SelectionSeed: c.seed,
		Durability:    dur,
		AckTimeout:    c.ackTimeout,
		ObsOff:        c.obsMode == "off",
		SlowQueryMS:   c.slowQueryMS,
		TraceRing:     c.traceRing,
	})
	switch {
	case dur == nil:
	case dur.Recovery == nil || dur.Recovery.TornTail:
		// A fresh boot needs a snapshot on disk before the first update can
		// be acknowledged: recovery must never depend on re-running the
		// generators. A recovered log that ended at a torn record folds in
		// before serving too: a record appended after the damage would make
		// every later reader take it for mid-log corruption, and the
		// checkpoint truncates the damaged segment.
		m, err := srv.Checkpoint()
		if err != nil {
			return nil, nil, fmt.Errorf("writing boot checkpoint: %w", err)
		}
		slog.Info("wrote boot checkpoint", "checkpoint_seq", m.Sequence,
			"triples", m.BaseTriples, "views", m.Views,
			"generation", m.Generation, "data_dir", c.dataDir)
	default:
		// Otherwise the state is already durable as the restored checkpoint
		// plus the WAL, so the fold-in — which keeps the suffix from being
		// replayed again on every restart — can wait until serving starts.
		foldIn = func() error {
			start := time.Now()
			m, err := srv.Checkpoint()
			if err != nil {
				slog.Error("fold-in checkpoint failed; the restored checkpoint and the wal still hold the state", "err", err)
				return err
			}
			slog.Info("wrote fold-in checkpoint", "checkpoint_seq", m.Sequence,
				"generation", m.Generation, "elapsed", time.Since(start).Round(time.Millisecond))
			return nil
		}
	}
	return srv, foldIn, nil
}

// buildReplica bootstraps a read replica from its primary's newest
// checkpoint. The replication loop itself starts in run (it needs the
// process lifetime context); a test can start it separately.
func buildReplica(c *config) (*server.Server, error) {
	opts := server.ReplicaOptions{Primary: c.replica, ID: c.replicaID}
	sys, man, err := server.BootstrapReplica(context.Background(), opts, c.opts())
	if err != nil {
		return nil, fmt.Errorf("bootstrapping from %s: %w", c.replica, err)
	}
	slog.Info("bootstrapped replica", "primary", c.replica,
		"dataset", man.Dataset, "scale", man.Scale, "seed", man.Seed,
		"generation", man.Generation)
	return server.New(sys, server.Config{
		MaxConcurrent: c.maxConcurrent,
		CacheEntries:  c.cacheEntries,
		CacheBytes:    c.cacheBytes,
		SelectionSeed: c.seed,
		ReadWait:      c.readWait,
		Replica:       &opts,
		ObsOff:        c.obsMode == "off",
		SlowQueryMS:   c.slowQueryMS,
		TraceRing:     c.traceRing,
	}), nil
}

// buildFresh builds the system from the dataset generators — the memory-only
// path and the first boot of a durable directory.
func buildFresh(c *config) (*core.System, error) {
	g, f, err := datasets.BuildWithFacet(c.dataset, c.scale, c.seed)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewWithOptions(g, f, c.opts())
	if err != nil {
		return nil, err
	}
	if c.k > 0 {
		models, err := sys.AnalyticModels(c.seed)
		if err != nil {
			return nil, err
		}
		var picked cost.Model
		for _, m := range models {
			if m.Name() == c.model {
				picked = m
				break
			}
		}
		if picked == nil {
			return nil, fmt.Errorf("unknown model %q (use random, triples, aggvalues, or nodes)", c.model)
		}
		sel, err := sys.SelectViews(picked, c.k)
		if err != nil {
			return nil, err
		}
		if _, err := sys.Materialize(sel); err != nil {
			return nil, err
		}
		ids := make([]string, 0, len(sel.Views))
		for _, v := range sel.Views {
			ids = append(ids, v.ID())
		}
		slog.Info("materialized initial views", "model", c.model, "k", len(ids), "views", ids)
	}
	return sys, nil
}

// checkpointLoop writes checkpoints on the configured interval until stop is
// closed, skipping a tick when nothing changed since the last checkpoint.
// Failures are logged and retried next tick — the WAL keeps every committed
// batch recoverable in the meantime.
func checkpointLoop(srv *server.Server, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if m, err := srv.CheckpointIfChanged(); err != nil {
				slog.Error("interval checkpoint failed", "err", err)
			} else if m != nil {
				slog.Info("interval checkpoint written", "checkpoint_seq", m.Sequence,
					"generation", m.Generation, "wal_from_segment", m.WALSeq)
			}
		case <-stop:
			return
		}
	}
}

// serveDebug exposes net/http/pprof on its own listener — separate from the
// public API address so profiling is never reachable through the service
// port. Failures are logged, not fatal: profiling is an operator aid.
func serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	slog.Info("profiling listener up", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		slog.Error("profiling listener failed", "addr", addr, "err", err)
	}
}

func run(args []string) error {
	c, err := parseFlags(args)
	if err != nil {
		return err
	}
	srv, foldIn, err := buildServer(c)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	if foldIn != nil {
		go foldIn() // logs its own outcome; a failure leaves the boot serving
	}
	if c.dataDir != "" && c.checkpointInterval > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go checkpointLoop(srv, c.checkpointInterval, stop)
	}
	if c.replica != "" {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if err := srv.StartReplication(ctx); err != nil {
			return err
		}
	}
	if c.debugAddr != "" {
		go serveDebug(c.debugAddr)
	}
	sys := srv.System()
	slog.Info("serving", "facet", sys.Facet.Name, "triples", sys.Graph.Len(),
		"workers", sys.Workers, "role", srv.Role(), "addr", ln.Addr().String())
	// No WriteTimeout: analytical queries can legitimately run long, and the
	// admission semaphore already bounds concurrent execution. The header and
	// idle timeouts stop slow or stalled clients from pinning connections and
	// goroutines forever.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	return hs.Serve(ln)
}
