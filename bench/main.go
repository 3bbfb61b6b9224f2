// Command bench is the repository's end-to-end and per-layer benchmark: the
// one instrument every performance claim is measured with. See README.md.
//
//	bash bench/run.sh --workload read_cold --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1 --trace 1
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	scale    int    // benchScale; only the self-test runs smaller
	root     string // repository root (holds cmd/sofos-serve and BENCHMARK.json)
	outDir   string // bench/out: binaries, child logs, span files, run records
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"` // samples behind the value
}

// result is one run's outcome: the metrics the contract gates (end-to-end
// with -trace 0, per-layer with -trace 1) plus ungated observations.
type result struct {
	Attempted int
	Failed    int
	Metrics   []metric
	Info      []metric
}

// correct reports whether every operation and every check succeeded.
func (r *result) correct() bool { return r.Failed == 0 }

func (r *result) add(name, unit string, v float64, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, N: n})
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	cfg := config{scale: benchScale}
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "dataset and workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 8, "length of the measured phase")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end run against a child sofos-serve; 1: in-process traced run for the per-layer metrics")
	flag.BoolVar(&compare, "compare", false, "compare two run-record files: -compare base.jsonl new.jsonl")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg.root, cfg.outDir = root, filepath.Join(root, "bench", "out")
	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two run-record files")
			return 2
		}
		return runCompare(root, flag.Arg(0), flag.Arg(1))
	}
	if cfg.seconds < 1 || cfg.trace < 0 || cfg.trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive, -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	// Children die with us on every exit path, SIGINT included.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAllChildren()
		os.Exit(130)
	}()
	defer killAllChildren()

	specs := workloads
	if cfg.workload != "all" {
		spec, ok := findWorkload(cfg.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", cfg.workload)
			return 2
		}
		specs = []workloadSpec{spec}
	}
	if cfg.trace == 1 {
		// The traced pass samples the seed's streams, not a workload's traffic,
		// and BENCHMARK.json's per-layer list has no workload dimension: one
		// pass, whichever workload the driver names.
		res, err := runTraced(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: traced run:", err)
			return 1
		}
		return finish(cfg, 1, res)
	}
	code := 0
	for _, spec := range specs {
		cfg.workload = spec.name
		res, err := runE2E(cfg, spec)
		if err != nil {
			killAllChildren()
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", spec.name, err)
			return 1
		}
		code = max(code, finish(cfg, spec.clients, res))
	}
	return code
}

// finish reports one run and returns its exit code.
func finish(cfg config, clients int, res *result) int {
	if err := report(cfg, clients, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// findRoot locates the repository root from the working directory, which is
// bench/ under `go run -C bench .` and the root under a built binary.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "sofos-serve")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root or from bench/")
}

// runRecord is one line of bench/out/runs.jsonl: a run with everything
// needed to judge whether two runs are comparable.
type runRecord struct {
	Time       string   `json:"time"`
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	CPU        string   `json:"cpu"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Scale      int      `json:"scale"`
	Seconds    int      `json:"seconds"`
	Trace      int      `json:"trace"`
	Clients    int      `json:"clients"`
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Metrics    []metric `json:"metrics"`
	Info       []metric `json:"info,omitempty"`
}

// report prints every metric by name with unit and sample count, appends the
// run record, and ends with the one-line JSON result the driver reads.
func report(cfg config, clients int, res *result) error {
	fmt.Printf("workload=%s seed=%d scale=%d seconds=%d trace=%d clients=%d nproc=%d\n",
		cfg.workload, cfg.seed, cfg.scale, cfg.seconds, cfg.trace, clients, runtime.NumCPU())
	line := func(kind string, m metric) {
		fmt.Printf("  %-5s %-36s %14.4f %-8s n=%d\n", kind, m.Name, m.Value, m.Unit, m.N)
	}
	for _, m := range res.Metrics {
		line("gate", m)
	}
	for _, m := range res.Info {
		line("info", m)
	}
	rec := runRecord{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: commit(cfg.root), GoVersion: runtime.Version(),
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload: cfg.workload, Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds, Trace: cfg.trace,
		Clients: clients, Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed,
		Metrics: res.Metrics, Info: res.Info,
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(cfg.outDir, "runs.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, map[string]value{}}
	for _, m := range res.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	raw, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// commit names the measured commit; a driver checkout is not a git repository.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	raw, _ := os.ReadFile("/proc/cpuinfo") // absent off Linux: the model is then unknown
	for _, l := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// median returns the middle of xs (not necessarily sorted).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// midmean is the mean of the middle half of sorted xs (the interquartile
// mean): a median that does not jump when the middle of the distribution
// sits on a cliff between two classes of operation, as it does for queries
// whose answers are either a few rows or thousands.
func midmean(sorted []float64) float64 {
	mid := sorted[len(sorted)/4 : len(sorted)-len(sorted)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// quantile reads the q-quantile off sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}
