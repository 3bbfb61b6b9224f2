package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sofos/internal/api"
)

const (
	benchScale    = 5000 // dbpedia countries: 215k base triples; the one scale every run and comparison uses
	setupRepeats  = 3    // fresh boots per run; setup_s is their median
	hotSet        = 256  // distinct queries of read_hot; fits the 4096-entry result cache
	warmupQueries = 50   // throw-away queries before read_cold and read_write_mix
	coldPerSecond = 75   // read_cold issues this many queries per -seconds, each once
	writeRate     = 2    // read_write_mix: open-loop transactions per second
	walBatches    = 16   // crash_recovery: transactions in the WAL suffix replayed per cycle
	canaries      = 8    // crash_recovery: queries whose answers must survive the crash
	verifyEvery   = 19   // every n-th read response is checked against the oracle; coprime with the query block, so every shape gets checked
	postVerify    = 20   // queries checked against the oracle after a write phase
)

// workloadSpec names one workload; run measures it.
type workloadSpec struct {
	name    string
	clients int // concurrent connections to the server, at most nproc
	run     func(r *run) (*phase, error)
}

var workloads = []workloadSpec{
	{"read_hot", 2, (*run).readHot},
	{"read_cold", 1, (*run).readCold},
	{"read_write_mix", 2, (*run).readWriteMix},
	{"write_eager", 1, (*run).writeEager},
	{"crash_recovery", 1, (*run).crashRecovery},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// run is the state of one end-to-end run of one workload.
type run struct {
	cfg    config
	spec   workloadSpec
	in     *inputs
	bin    string // sofos-serve binary
	tmp    string // scratch directory for data dirs, removed at exit
	srv    *child // server under test after set-up
	srvDir string // its data dir
}

// phase is what a workload's measured phase produced.
type phase struct {
	opMS      []float64      // latency of every gated operation
	wallS     float64        // measured wall time
	attempted int            // operations issued, verification reads included
	failed    int            // errors, wrong answers, generations going backwards
	rssMB     []float64      // child VmHWM at the end of the measured phase
	outcomes  map[string]int // answered reads by rewrite outcome
	info      []metric       // ungated numbers printed beside the metrics
}

func newPhase() *phase { return &phase{outcomes: map[string]int{}} }

// invalidRun marks a run whose workload lost its shape (cache used where it
// must be bypassed, writer late, ...): no metrics are printed.
type invalidRun struct{ why string }

func (e *invalidRun) Error() string { return "invalid run: " + e.why }

// runE2E boots real sofos-serve children, drives the workload over loopback
// HTTP and returns the end-to-end metrics.
func runE2E(cfg config, spec workloadSpec) (*result, error) {
	in, err := buildInputs(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	bin, err := buildServer(cfg.root, cfg.outDir)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	defer killAllChildren()
	r := &run{cfg: cfg, spec: spec, in: in, bin: bin, tmp: tmp}

	// Set-up, repeated: child spawn -> first /healthz ok covers dataset
	// generation, cost-model selection, materializing 3 views and the boot
	// checkpoint. The last boot is the server under test.
	var setupS []float64
	for i := 0; i < setupRepeats; i++ {
		if r.srv != nil {
			r.srv.kill()
			os.RemoveAll(r.srvDir)
		}
		syscall.Sync() // what the last child left dirty is not this boot's fsync to pay
		start := time.Now()
		if err := r.boot(filepath.Join(tmp, fmt.Sprintf("boot%d", i)), 0); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	syscall.Sync()
	ph, err := spec.run(r)
	if err != nil {
		return nil, err
	}
	if len(ph.opMS) == 0 {
		return nil, &invalidRun{"no operation completed"}
	}
	sort.Float64s(ph.opMS)
	res := &result{Attempted: ph.attempted, Failed: ph.failed}
	res.add("setup_s", "s", median(setupS), len(setupS))
	res.add("op_mid_ms", "ms", midmean(ph.opMS), len(ph.opMS))
	res.add("op_p95_ms", "ms", quantile(ph.opMS, 0.95), len(ph.opMS))
	res.add("ops_per_s", "1/s", float64(len(ph.opMS))/ph.wallS, len(ph.opMS))
	res.add("peak_rss_mb", "MB", median(ph.rssMB), len(ph.rssMB))
	res.Info = append(ph.info,
		metric{Name: "op_p50_ms", Unit: "ms", Value: quantile(ph.opMS, 0.50), N: len(ph.opMS)},
		metric{Name: "op_p99_ms", Unit: "ms", Value: quantile(ph.opMS, 0.99), N: len(ph.opMS)})
	return res, nil
}

// boot starts a child on dataDir and waits until it is healthy (at
// generation wantGen when recovering). It becomes r.srv.
func (r *run) boot(dataDir string, wantGen int64) error {
	c, err := startChild(r.bin, dataDir, filepath.Join(r.cfg.outDir, "serve-"+r.spec.name+".log"),
		r.cfg.seed, r.cfg.scale, r.spec.clients)
	if err != nil {
		return err
	}
	r.srv, r.srvDir = c, dataDir
	return c.waitHealthy(wantGen)
}

// sampleRSS records the server's peak RSS at the end of a measured phase.
func (r *run) sampleRSS(ph *phase) error {
	mb, err := r.srv.peakRSSMB()
	if err != nil {
		return err
	}
	ph.rssMB = append(ph.rssMB, mb)
	return nil
}

// readResult is one answered query kept for checking.
type readResult struct {
	query string
	resp  *api.QueryResponse
}

// eachOnce hands out qs in order, once each, to any number of clients.
func eachOnce(qs []string) func() (string, bool) {
	var i atomic.Int64
	return func() (string, bool) {
		n := int(i.Add(1)) - 1
		if n >= len(qs) {
			return "", false
		}
		return qs[n], true
	}
}

// reads drives closed-loop query clients. next hands out the next query (ok
// false ends the client); every verifyEvery-th response is kept for the
// oracle. It returns the kept responses; latencies and failures land in ph.
func (r *run) reads(ph *phase, clients int, next func() (string, bool)) []readResult {
	var (
		mu   sync.Mutex // guards ph and kept
		kept []readResult
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen int64
			for {
				q, ok := next()
				if !ok {
					return
				}
				start := time.Now()
				resp, err := r.srv.cl.Query(context.Background(), api.QueryRequest{Query: q})
				d := time.Since(start)
				if err == nil && resp.Generation < lastGen {
					err = fmt.Errorf("generation went back from %d to %d", lastGen, resp.Generation)
				}
				mu.Lock()
				ph.attempted++
				if err != nil {
					fmt.Fprintln(os.Stderr, "read failed:", err)
					ph.failed++ // a failed read has no latency: it misses every figure
				} else {
					lastGen = resp.Generation
					ph.opMS = append(ph.opMS, float64(d)/float64(time.Millisecond))
					ph.outcomes[resp.Outcome]++
					if len(ph.opMS)%verifyEvery == 0 {
						kept = append(kept, readResult{q, resp})
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return kept
}

// warmUp issues qs once each, untimed, and returns the kept responses.
func (r *run) warmUp(clients int, qs []string) ([]readResult, error) {
	warm := newPhase()
	kept := r.reads(warm, clients, eachOnce(qs))
	if warm.failed > 0 {
		return nil, fmt.Errorf("%d warm-up queries failed", warm.failed)
	}
	return kept, nil
}

// verify checks kept responses against the oracle in its current state; each
// distinct query is checked once.
func (r *run) verify(ph *phase, kept []readResult) error {
	seen := map[string]bool{}
	for _, k := range kept {
		if seen[k.query] {
			continue
		}
		seen[k.query] = true
		ok, err := r.in.matches(k.query, k.resp.Rows)
		if err != nil {
			return err
		}
		if !ok {
			ph.failed++
			fmt.Fprintf(os.Stderr, "answer differs from the oracle: %s\n", k.query)
		}
	}
	return nil
}

// ask issues queries one by one, outside any measured phase.
func (r *run) ask(queries []string) ([]readResult, error) {
	var out []readResult
	for _, q := range queries {
		resp, err := r.srv.cl.Query(context.Background(), api.QueryRequest{Query: q})
		if err != nil {
			return nil, err
		}
		out = append(out, readResult{q, resp})
	}
	return out, nil
}

// verifyAfterWrites lets the oracle apply the acknowledged transactions and
// checks fresh answers to postVerify queries against it.
func (r *run) verifyAfterWrites(ph *phase, acked []txn) error {
	if err := r.in.applyTxns(acked); err != nil {
		return err
	}
	queries, err := r.in.queries.take(postVerify)
	if err != nil {
		return err
	}
	ph.attempted += len(queries)
	got, err := r.ask(queries)
	if err != nil {
		return err
	}
	return r.verify(ph, got)
}

// cacheHitRatio measures the result cache's hits/(hits+misses) over fn.
func (r *run) cacheHitRatio(ph *phase, fn func()) (float64, error) {
	before, err := r.srv.cl.Stats(context.Background())
	if err != nil {
		return 0, err
	}
	fn()
	after, err := r.srv.cl.Stats(context.Background())
	if err != nil {
		return 0, err
	}
	hits := after.Cache.Hits - before.Cache.Hits
	ratio := float64(hits) / float64(max(1, hits+after.Cache.Misses-before.Cache.Misses))
	ph.info = append(ph.info, metric{Name: "server.cache_hit_ratio", Unit: "ratio", Value: ratio})
	return ratio, nil
}

// readHot: a working set that fits the result cache, warmed once, then cycled
// by closed-loop clients. Parse, cache key, probe and HTTP are the whole cost.
func (r *run) readHot() (*phase, error) {
	ph := newPhase()
	set, err := r.in.queries.take(hotSet)
	if err != nil {
		return nil, err
	}
	uncached, err := r.warmUp(r.spec.clients, set)
	if err != nil {
		return nil, err
	}
	var kept []readResult
	ratio, err := r.cacheHitRatio(ph, func() {
		var i atomic.Int64
		start := time.Now()
		deadline := start.Add(time.Duration(r.cfg.seconds) * time.Second)
		kept = r.reads(ph, r.spec.clients, func() (string, bool) {
			return set[int(i.Add(1))%len(set)], time.Now().Before(deadline)
		})
		ph.wallS = time.Since(start).Seconds()
	})
	if err != nil {
		return nil, err
	}
	if ratio < 0.99 {
		return nil, &invalidRun{fmt.Sprintf("read_hot cache hit ratio %.4f < 0.99", ratio)}
	}
	if err := r.sampleRSS(ph); err != nil {
		return nil, err
	}
	return ph, r.verify(ph, append(uncached, kept...))
}

// readCold: distinct queries, each issued exactly once, so the cache only
// misses and every query runs rewrite -> engine -> store -> render. The work
// is fixed (coldPerSecond x seconds queries), not the time: both sides of a
// comparison answer the same queries.
func (r *run) readCold() (*phase, error) {
	ph := newPhase()
	queries, err := r.in.queries.take(warmupQueries + coldPerSecond*r.cfg.seconds)
	if err != nil {
		return nil, err
	}
	if _, err := r.warmUp(r.spec.clients, queries[:warmupQueries]); err != nil {
		return nil, err
	}
	var kept []readResult
	ratio, err := r.cacheHitRatio(ph, func() {
		start := time.Now()
		kept = r.reads(ph, r.spec.clients, eachOnce(queries[warmupQueries:]))
		ph.wallS = time.Since(start).Seconds()
	})
	if err != nil {
		return nil, err
	}
	if ratio > 0.01 {
		return nil, &invalidRun{fmt.Sprintf("read_cold cache hit ratio %.4f > 0.01", ratio)}
	}
	if err := r.sampleRSS(ph); err != nil {
		return nil, err
	}
	for _, o := range []string{"view_hit", "partial_rollup", "full_scan"} {
		ph.info = append(ph.info, metric{Name: "outcome_share." + o, Unit: "ratio",
			Value: float64(ph.outcomes[o]) / float64(len(ph.opMS)), N: len(ph.opMS)})
	}
	return ph, r.verify(ph, kept)
}

// update sends one transaction and checks its acknowledgement: applied in
// full, on a new generation, every refreshed view through the delta path.
func (r *run) update(t txn, lastGen *int64) error {
	resp, err := r.srv.cl.Update(context.Background(), t.request())
	if err != nil {
		return err
	}
	if resp.Inserted != len(t.ins) || resp.Deleted != len(t.del) || resp.Generation <= *lastGen {
		return fmt.Errorf("update acknowledged %d inserts, %d deletes at generation %d after %d",
			resp.Inserted, resp.Deleted, resp.Generation, *lastGen)
	}
	if resp.Incremental != resp.Refreshed {
		return &invalidRun{fmt.Sprintf("eager refresh left the incremental path: %d of %d views", resp.Incremental, resp.Refreshed)}
	}
	*lastGen = resp.Generation
	return nil
}

// counted is update inside a measured phase: it counts the attempt, and a
// failure that is not an invalid run counts as failed and reports ok false,
// which must end the stream, because later deletes depend on this insert.
func (r *run) counted(ph *phase, t txn, lastGen *int64) (ok bool, err error) {
	ph.attempted++
	err = r.update(t, lastGen)
	var invalid *invalidRun
	if err == nil || errors.As(err, &invalid) {
		return err == nil, err
	}
	fmt.Fprintln(os.Stderr, "update failed:", err)
	ph.failed++
	return false, nil
}

// readWriteMix: one closed-loop reader over distinct queries beside one
// open-loop writer at writeRate transactions/s. The gated operation is the
// read; the fixed write rate keeps the read work independent of write speed.
func (r *run) readWriteMix() (*phase, error) {
	ph := newPhase()
	warm, err := r.in.queries.take(warmupQueries)
	if err != nil {
		return nil, err
	}
	if _, err := r.warmUp(1, warm); err != nil {
		return nil, err
	}
	var (
		done      atomic.Bool
		updateMS  []float64
		lateMS    []float64
		acked     []txn
		writerErr error
		writer    = newPhase() // the writer's own counts, merged once it has stopped
		wg        sync.WaitGroup
	)
	start := time.Now()
	wg.Add(1)
	go func() { // open-loop writer: each update is timed from the instant it was due
		defer wg.Done()
		defer done.Store(true)
		var gen int64
		for n := 0; n < writeRate*r.cfg.seconds; n++ {
			due := start.Add(time.Duration(n) * time.Second / writeRate)
			time.Sleep(time.Until(due))
			lateMS = append(lateMS, float64(time.Since(due))/float64(time.Millisecond))
			t := r.in.txns.next()
			ok, err := r.counted(writer, t, &gen)
			if !ok {
				writerErr = err
				return
			}
			updateMS = append(updateMS, float64(time.Since(due))/float64(time.Millisecond))
			acked = append(acked, t)
		}
	}()
	r.reads(ph, 1, func() (string, bool) { // one reader: the stream needs no lock
		q, ok := r.in.queries.next()
		return q, ok && !done.Load()
	})
	wg.Wait()
	ph.wallS = time.Since(start).Seconds()
	if writerErr != nil {
		return nil, writerErr
	}
	ph.attempted += writer.attempted
	ph.failed += writer.failed
	sort.Float64s(lateMS)
	sort.Float64s(updateMS)
	late := quantile(lateMS, 0.95)
	if late > 100 {
		return nil, &invalidRun{fmt.Sprintf("open-loop writer ran %.0f ms late at p95", late)}
	}
	ph.info = append(ph.info,
		metric{Name: "update_p50_ms", Unit: "ms", Value: quantile(updateMS, 0.5), N: len(updateMS)},
		metric{Name: "bench.writer_lateness_p95_ms", Unit: "ms", Value: late, N: len(lateMS)})
	if err := r.sampleRSS(ph); err != nil {
		return nil, err
	}
	// Reads raced the writer, so answers are checked after it has stopped.
	return ph, r.verifyAfterWrites(ph, acked)
}

// writeEager: one closed-loop writer and no reader; the gated operation is
// the eager transaction's acknowledgement. Fork, incremental maintenance,
// WAL append and fsync are the cost; the query path is bypassed.
func (r *run) writeEager() (*phase, error) {
	ph := newPhase()
	var gen int64
	var acked []txn
	start := time.Now()
	deadline := start.Add(time.Duration(r.cfg.seconds) * time.Second)
	for time.Now().Before(deadline) {
		t := r.in.txns.next()
		t0 := time.Now()
		ok, err := r.counted(ph, t, &gen)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		ph.opMS = append(ph.opMS, float64(time.Since(t0))/float64(time.Millisecond))
		acked = append(acked, t)
	}
	ph.wallS = time.Since(start).Seconds()
	if err := r.sampleRSS(ph); err != nil {
		return nil, err
	}
	return ph, r.verifyAfterWrites(ph, acked)
}

// crashRecovery: SIGKILL a server that holds acknowledged transactions in its
// WAL, then time restarts from a copy of that data dir until /healthz answers
// at the exact pre-kill generation and the canaries answer as before. The
// process is killed, not the machine: the OS cache stays warm, so the time is
// the sandbox's, not a device's.
func (r *run) crashRecovery() (*phase, error) {
	ph := newPhase()
	var gen int64
	txns := r.in.txns.take(walBatches)
	for _, t := range txns {
		if err := r.update(t, &gen); err != nil {
			return nil, err
		}
	}
	if err := r.in.applyTxns(txns); err != nil {
		return nil, err
	}
	queries, err := r.in.queries.take(canaries)
	if err != nil {
		return nil, err
	}
	want, err := r.ask(queries)
	if err != nil {
		return nil, err
	}
	if err := r.verify(ph, want); err != nil {
		return nil, err
	}
	r.srv.kill()
	template := r.srvDir // boot checkpoint + a WAL suffix of walBatches records

	start := time.Now()
	deadline := start.Add(time.Duration(r.cfg.seconds) * time.Second)
	for cycle := 0; cycle < 3 || time.Now().Before(deadline); cycle++ {
		// A recovered boot writes a fresh checkpoint, so every cycle
		// restarts from its own copy of the template.
		dir := filepath.Join(r.tmp, fmt.Sprintf("cycle%d", cycle))
		if out, err := exec.Command("cp", "-r", template, dir).CombinedOutput(); err != nil {
			return nil, fmt.Errorf("copying the template data dir: %v: %s", err, out)
		}
		syscall.Sync() // the copy's dirty pages are not the recovery's fsync to pay
		ph.attempted++
		t0 := time.Now()
		err := r.boot(dir, gen)
		d := time.Since(t0)
		if err == nil {
			var got []readResult
			if got, err = r.ask(queries); err == nil {
				for i := range got {
					if got[i].resp.Generation != gen || !sameRows(got[i].resp.Rows, want[i].resp.Rows) {
						err = fmt.Errorf("acknowledged state differs after restart: %s", queries[i])
					}
				}
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "recovery failed:", err)
			ph.failed++
		} else {
			ph.opMS = append(ph.opMS, float64(d)/float64(time.Millisecond))
			if err := r.sampleRSS(ph); err != nil {
				return nil, err
			}
		}
		r.srv.kill()
		os.RemoveAll(dir)
	}
	ph.wallS = time.Since(start).Seconds()
	ph.info = append(ph.info, metric{Name: "wal_batches_replayed", Unit: "count", Value: walBatches})
	return ph, nil
}
