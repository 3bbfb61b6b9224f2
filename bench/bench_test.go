package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"sofos/internal/rdf"
)

// testConfig is a run small enough for a unit test: dbpedia@200, one-second
// phases.
func testConfig(t *testing.T) config {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "bench", "out"), 0o755); err != nil {
		t.Fatal(err)
	}
	out, err := os.MkdirTemp(filepath.Join(root, "bench", "out"), "test-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(out) })
	return config{seed: 1, seconds: 1, scale: 200, root: root, outDir: out}
}

func names(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func declared(gs []gated) []string {
	var out []string
	for _, g := range gs {
		out = append(out, g.Name)
	}
	sort.Strings(out)
	return out
}

// Every workload runs clean against a real child, emits exactly the metrics
// BENCHMARK.json declares, and leaves no process behind.
func TestRunsEmitDeclaredMetrics(t *testing.T) {
	cfg := testConfig(t)
	bf, err := readBenchmarkFile(cfg.root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, spec := range workloads {
		if bf.Workloads[i].Name != spec.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, bf.Workloads[i].Name, spec.name)
		}
		cfg.workload = spec.name
		res, err := runE2E(cfg, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: attempted=%d failed=%d", spec.name, res.Attempted, res.Failed)
		}
		if got, want := names(res.Metrics), declared(bf.EndToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json declares %v", spec.name, got, want)
		}
		for _, m := range res.Metrics {
			if !valid.MatchString(m.Name) || m.Value <= 0 {
				t.Errorf("%s: metric %q = %v", spec.name, m.Name, m.Value)
			}
		}
	}
	res, err := runTraced(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("traced run: %d of %d checks failed", res.Failed, res.Attempted)
	}
	if got, want := names(res.Metrics), declared(bf.PerLayer); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
	for _, m := range res.Metrics {
		if !valid.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}

	children.Lock()
	live := len(children.live)
	children.Unlock()
	if live != 0 {
		t.Errorf("%d children still registered", live)
	}
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		if raw, err := os.ReadFile(p); err == nil && strings.Contains(string(raw), cfg.outDir) {
			t.Errorf("process survived the run: %s", strings.ReplaceAll(string(raw), "\x00", " "))
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	hash := func(seed int64) string {
		in, err := buildInputs(seed, 200)
		if err != nil {
			t.Fatal(err)
		}
		queries, err := in.queries.take(600) // into the second block
		if err != nil {
			t.Fatal(err)
		}
		text := strings.Join(queries, "\n")
		for _, txn := range in.txns.take(20) {
			text += rdf.NTriplesString(txn.ins) + "--" + rdf.NTriplesString(txn.del)
		}
		return text
	}
	if a, b := hash(1), hash(1); a != b {
		t.Error("seed 1 gave two different input streams")
	}
	if hash(1) == hash(2) {
		t.Error("seeds 1 and 2 gave the same inputs")
	}
}

func TestOracleCatchesCorruptAnswer(t *testing.T) {
	in, err := buildInputs(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := in.queries.take(40)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, q := range queries {
		ans, err := in.oracle.AnswerString(q) // stands in for the server's response
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]string, len(ans.Result.Rows))
		for i, row := range ans.Result.Rows {
			for _, v := range row {
				rows[i] = append(rows[i], v.String())
			}
		}
		if ok, err := in.matches(q, rows); err != nil || !ok {
			t.Fatalf("a correct answer was rejected (%v): %s", err, q)
		}
		if len(rows) == 0 {
			continue
		}
		// Reordered rows are the same answer; one changed cell is not.
		rows[0], rows[len(rows)-1] = rows[len(rows)-1], rows[0]
		if ok, _ := in.matches(q, rows); !ok {
			t.Errorf("a reordered answer was rejected: %s", q)
		}
		rows[0][len(rows[0])-1] += "0"
		if ok, _ := in.matches(q, rows); ok {
			t.Errorf("a corrupted answer passed: %s", q)
		}
		checked++
	}
	if checked == 0 {
		t.Error("no query had rows to corrupt")
	}
}

func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// writeRuns writes one run record per value of setup_s on a one-metric,
// one-workload benchmark; a negative value stands for an incorrect run.
func writeRuns(t *testing.T, scale int, values ...float64) string {
	t.Helper()
	var lines []string
	for _, v := range values {
		rec := runRecord{Workload: "w", Scale: scale, Seconds: 8, Correct: v > 0, Attempted: 10,
			Metrics: []metric{{Name: "setup_s", Unit: "s", Value: v}}}
		if !rec.Correct {
			rec.Failed = 1
		}
		raw, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(raw))
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Compare exits non-zero on a median worse than the bound and on more
// incorrect runs than the base, and refuses sets of different scale. A wide
// spread is unresolved, not a failure — for setup_s as for any metric.
func TestCompareVerdicts(t *testing.T) {
	bf := &benchmarkFile{EndToEnd: []gated{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}}}
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	steady := []float64{10, 10.1, 10.2, 10.3, 10.4}
	compare := func(base, cur string) (int, string) {
		t.Helper()
		a, err := readRuns(base)
		if err != nil {
			t.Fatal(err)
		}
		b, err := readRuns(cur)
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		code := printComparison(bf, a, b)
		os.Stdout = stdout
		w.Close()
		out, _ := io.ReadAll(r)
		return code, string(out)
	}
	base := writeRuns(t, 5000, steady...)
	if code, out := compare(base, base); code != 0 || !strings.Contains(out, " ok ") {
		t.Errorf("A/A: exit %d\n%s", code, out)
	}
	if code, out := compare(base, writeRuns(t, 5000, 13, 13.1, 13.2, 13.3, 13.4)); code == 0 || !strings.Contains(out, "worse") {
		t.Errorf("a 30 %% slower set: exit %d\n%s", code, out)
	}
	if code, out := compare(base, writeRuns(t, 5000, 6, 8, 10, 12, 14)); code != 0 || !strings.Contains(out, "unresolved") {
		t.Errorf("a setup_s spread above the bound: exit %d\n%s", code, out)
	}
	if code, out := compare(base, writeRuns(t, 5000, append([]float64{-1}, steady...)...)); code == 0 {
		t.Errorf("an incorrect run on the new side only: exit %d\n%s", code, out)
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	if code := runCompare(root, base, writeRuns(t, 200, steady...)); code != 2 {
		t.Errorf("sets of different scale: exit %d, want 2 (refused)", code)
	}
}
