package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sofos/internal/api"
	"sofos/internal/client"
	"sofos/internal/core"
	"sofos/internal/datasets"
	"sofos/internal/facet"
	"sofos/internal/persist"
)

// Replica side of replication. A replica holds no durable state of its own:
// it bootstraps by downloading the primary's newest checkpoint archive,
// restoring it through the same loader a primary restart uses, and then
// tailing GET /v1/wal — every record flows through core.ReplayRecord, the
// incremental O(|ΔG|) maintenance path, landing on the exact generation the
// primary acknowledged the batch at. When the stream reports that the
// replica's resume version was truncated away (the primary checkpointed past
// it while the replica was down), the loop re-bootstraps and swaps the fresh
// system in under the write lock.

// Replica pacing: how often an idle replica re-reports progress (keeps the
// primary's lastSeen and the replica's lag stats fresh), and the reconnect
// backoff bounds for a dropped stream.
const (
	replicaAckInterval = 1 * time.Second
	replicaRetryMin    = 250 * time.Millisecond
	replicaRetryMax    = 5 * time.Second
)

// ReplicaOptions configures read-replica mode (Config.Replica).
type ReplicaOptions struct {
	// Primary is the primary's base URL, e.g. "http://primary:8080".
	Primary string
	// ID identifies this replica in progress reports and the primary's
	// /v1/stats. Empty derives one from the process ID.
	ID string
	// Client is the HTTP client for bootstrap, streaming, and progress
	// reports (nil = http.DefaultClient).
	Client *http.Client
	// ScratchRoot is where bootstrap archives are unpacked before loading
	// (empty = the OS temp dir). Each bootstrap uses a fresh subdirectory,
	// removed once the system is in memory.
	ScratchRoot string
	// Facet resolves the dataset named in a bootstrap manifest to its
	// analytical facet (nil = the built-in datasets registry). Tests inject
	// fixture facets that no registry knows.
	Facet func(dataset string) (*facet.Facet, error)
}

func (o ReplicaOptions) withDefaults() ReplicaOptions {
	if o.ID == "" {
		o.ID = fmt.Sprintf("replica-%d", os.Getpid())
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.Facet == nil {
		o.Facet = func(dataset string) (*facet.Facet, error) {
			spec, ok := datasets.ByName(dataset)
			if !ok {
				return nil, fmt.Errorf("bootstrap checkpoint names unknown dataset %q", dataset)
			}
			return spec.Facet()
		}
	}
	return o
}

// replicaRuntime is a replica server's apply-loop state.
type replicaRuntime struct {
	opts ReplicaOptions
	cl   *client.Client

	applied     atomic.Int64 // WAL records applied since boot
	bootstraps  atomic.Int64 // checkpoint bootstraps (1 = boot only)
	primaryGen  atomic.Int64 // last generation the primary advertised
	primaryVer  atomic.Int64 // last graph version the primary advertised
	lastContact atomic.Int64 // unixnano of the last stream delivery

	// progress is closed and replaced whenever applied state moves, waking
	// min-generation waiters (gateMinGeneration).
	mu       sync.Mutex
	progress chan struct{}
}

func newReplicaRuntime(opts *ReplicaOptions) *replicaRuntime {
	o := opts.withDefaults()
	r := &replicaRuntime{
		opts:     o,
		cl:       client.New(o.Primary, o.Client),
		progress: make(chan struct{}),
	}
	r.bootstraps.Store(1) // the system New was given came from a bootstrap
	return r
}

func (r *replicaRuntime) primaryURL() string { return r.opts.Primary }

// notifyProgress wakes every waiter blocked on applied progress.
func (r *replicaRuntime) notifyProgress() {
	r.mu.Lock()
	close(r.progress)
	r.progress = make(chan struct{})
	r.mu.Unlock()
}

func (r *replicaRuntime) progressChan() chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.progress
}

// lag is how many generations the replica trails the primary's last
// advertised state.
func (r *replicaRuntime) lag(sys *core.System) int64 {
	lag := r.primaryGen.Load() - sys.Generation()
	if lag < 0 {
		return 0
	}
	return lag
}

// statsNow renders the replica's /v1/stats replication section.
func (r *replicaRuntime) statsNow(sys *core.System) *api.ReplicationStats {
	rs := &api.ReplicationStats{
		Role:           RoleReplica,
		Primary:        r.opts.Primary,
		AppliedRecords: r.applied.Load(),
		LagGenerations: r.lag(sys),
		Bootstraps:     r.bootstraps.Load(),
	}
	if t := r.lastContact.Load(); t > 0 {
		rs.LastPrimaryContactMS = time.Since(time.Unix(0, t)).Milliseconds()
	}
	return rs
}

// BootstrapReplica builds a replica's system from the primary's newest
// checkpoint: download the archive, unpack it into a scratch data directory,
// and restore through the same loader a primary restart uses (manifest
// validation and facet resolution included). The scratch directory is
// removed once the system is in memory — replicas keep no durable state.
// sysOpts are the restored system's options.
func BootstrapReplica(ctx context.Context, opts ReplicaOptions, sysOpts core.Options) (*core.System, *persist.Manifest, error) {
	opts = opts.withDefaults()
	cl := client.New(opts.Primary, opts.Client)
	body, err := cl.FetchCheckpoint(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("fetching bootstrap checkpoint from %s: %w", opts.Primary, err)
	}
	defer body.Close()
	scratch, err := os.MkdirTemp(opts.ScratchRoot, "sofos-replica-bootstrap-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(scratch)
	dir, man, err := persist.RestoreArchive(body, scratch)
	if err != nil {
		return nil, nil, fmt.Errorf("unpacking bootstrap checkpoint: %w", err)
	}
	f, err := opts.Facet(man.Dataset)
	if err != nil {
		return nil, nil, err
	}
	sys, rec, err := core.Restore(dir, f, sysOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("restoring bootstrap checkpoint: %w", err)
	}
	rec.LogRecovery()
	return sys, man, nil
}

// StartReplication launches the replica's apply loop: tail the primary's WAL
// stream, apply every record, report progress, and re-bootstrap when the
// stream says the replica fell behind the log. It returns immediately; the
// loop runs until ctx is canceled.
func (s *Server) StartReplication(ctx context.Context) error {
	if s.role != RoleReplica {
		return errors.New("server: StartReplication on a non-replica")
	}
	go s.replicationLoop(ctx)
	return nil
}

// replicationLoop reconnects (and re-bootstraps when necessary) until ctx
// ends, backing off on repeated failures.
func (s *Server) replicationLoop(ctx context.Context) {
	backoff := replicaRetryMin
	for ctx.Err() == nil {
		applied, err := s.tailPrimary(ctx)
		if ctx.Err() != nil {
			return
		}
		if applied > 0 {
			backoff = replicaRetryMin
		}
		if needsBootstrap(err) {
			slog.Warn("replica behind the primary's log; re-bootstrapping", "err", err)
			if berr := s.rebootstrap(ctx); berr != nil {
				slog.Error("replica re-bootstrap failed", "err", berr)
			} else {
				backoff = replicaRetryMin
				continue
			}
		} else if err != nil {
			slog.Warn("replica wal stream interrupted", "err", err)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > replicaRetryMax {
			backoff = replicaRetryMax
		}
	}
}

// divergenceError marks a streamed record the replica could not chain onto
// its state — only a fresh bootstrap can heal that.
type divergenceError struct{ err error }

func (e *divergenceError) Error() string { return e.err.Error() }
func (e *divergenceError) Unwrap() error { return e.err }

// needsBootstrap reports whether a stream failure means the replica must
// re-bootstrap from a checkpoint rather than just reconnect.
func needsBootstrap(err error) bool {
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae.Err.Code == api.CodeWALTruncated || ae.Err.Code == api.CodeWALGap
	}
	var de *divergenceError
	return errors.As(err, &de)
}

// tailPrimary runs one streaming session: connect at the applied version and
// apply records until the stream ends. Returns how many records it applied
// plus the terminating error.
func (s *Server) tailPrimary(ctx context.Context) (int, error) {
	applied := 0
	lastAck := time.Now()
	err := s.repl.cl.StreamWAL(ctx, s.system().GraphVersion(), func(ev *api.WALEvent) error {
		s.repl.lastContact.Store(time.Now().UnixNano())
		if ev.Heartbeat {
			s.repl.primaryGen.Store(ev.Generation)
			s.repl.primaryVer.Store(ev.Version)
			if time.Since(lastAck) >= replicaAckInterval {
				s.ackProgress(ctx)
				lastAck = time.Now()
			}
			return nil
		}
		rec, err := persist.DecodeRecord(ev.Record)
		if err != nil {
			return fmt.Errorf("decoding streamed record (segment %d): %w", ev.Seq, err)
		}
		// Apply the record as one chain transaction: fork, replay, publish.
		// Replica reads stay wait-free through every apply, exactly as on
		// the primary.
		txn := s.chain.Begin()
		if err = core.ReplayRecord(txn.Sys, rec, nil); err != nil {
			txn.Abort()
			return &divergenceError{err}
		}
		txn.Commit()
		s.repl.primaryGen.Store(rec.Generation)
		s.repl.primaryVer.Store(rec.ToVersion)
		s.repl.applied.Add(1)
		applied++
		s.repl.notifyProgress()
		s.ackProgress(ctx)
		lastAck = time.Now()
		return nil
	})
	return applied, err
}

// ackProgress reports the replica's applied state to the primary. Failures
// are logged, not fatal: the next record or heartbeat retries.
func (s *Server) ackProgress(ctx context.Context) {
	sys := s.system()
	actx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	err := s.repl.cl.Ack(actx, api.ReplicaAckRequest{
		ID:         s.repl.opts.ID,
		Version:    sys.GraphVersion(),
		Generation: sys.Generation(),
	})
	if err != nil && ctx.Err() == nil {
		slog.Warn("replica progress report failed", "err", err)
	}
}

// rebootstrap replaces the served system with a freshly bootstrapped one.
// The chain reset is one atomic publish, so every query sees either the old
// complete state or the new one; the result cache needs no flush because its
// keys embed the generation, which only moved forward. The new system keeps
// the current one's worker count.
func (s *Server) rebootstrap(ctx context.Context) error {
	sys, _, err := BootstrapReplica(ctx, s.repl.opts, core.Options{Workers: s.system().Workers})
	if err != nil {
		return err
	}
	s.chain.Reset(sys)
	s.repl.bootstraps.Add(1)
	s.repl.notifyProgress()
	s.ackProgress(ctx)
	return nil
}

// waitForGeneration blocks until the applied generation reaches gen, the
// wait budget runs out, or ctx ends; it reports whether gen was reached.
func (s *Server) waitForGeneration(ctx context.Context, gen int64, wait time.Duration) bool {
	if s.system().Generation() >= gen {
		return true
	}
	if s.repl == nil {
		return false
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		ch := s.repl.progressChan()
		if s.system().Generation() >= gen {
			return true
		}
		select {
		case <-ch:
		case <-deadline.C:
			return s.system().Generation() >= gen
		case <-ctx.Done():
			return false
		}
	}
}
