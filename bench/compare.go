package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// gated is one end-to-end metric declared in BENCHMARK.json.
type gated struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []gated `json:"end_to_end"`
	PerLayer []gated `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// runSet is one run-record file: the end-to-end values of its correct runs
// by workload and metric, and per workload what compare must not hide — how
// many runs there were, how many were incorrect, and their operation counts.
type runSet struct {
	values                             map[string]map[string][]float64
	runs, incorrect, attempted, failed map[string]int
	scale, seconds                     int
}

// readRuns loads a run-record file (one JSON object per line). An incorrect
// run contributes no values, as a failed operation contributes no latency,
// but it is counted. Records of different scale or seconds are not one set.
func readRuns(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &runSet{values: map[string]map[string][]float64{},
		runs: map[string]int{}, incorrect: map[string]int{}, attempted: map[string]int{}, failed: map[string]int{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if set.scale == 0 {
			set.scale, set.seconds = rec.Scale, rec.Seconds
		}
		if rec.Scale != set.scale || rec.Seconds != set.seconds {
			return nil, fmt.Errorf("%s mixes runs of scale %d, %d s with runs of scale %d, %d s",
				path, set.scale, set.seconds, rec.Scale, rec.Seconds)
		}
		w := rec.Workload
		set.runs[w]++
		set.attempted[w] += rec.Attempted
		set.failed[w] += rec.Failed
		if !rec.Correct {
			set.incorrect[w]++
			continue
		}
		if set.values[w] == nil {
			set.values[w] = map[string][]float64{}
		}
		for _, m := range rec.Metrics {
			set.values[w][m.Name] = append(set.values[w][m.Name], m.Value)
		}
	}
	return set, sc.Err()
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles of Python's statistics.quantiles(xs, n=4).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / quantile(s, 0.5)
}

// runCompare prints, per workload and end-to-end metric, the base and new
// medians, how much worse the new one is, both spreads and the bound, and
// marks each row ok, worse (beyond the bound) or unresolved (a spread wider
// than the bound hides the answer). It exits non-zero on any worse row, and
// when the new side has more incorrect runs than the base on any workload.
func runCompare(root, basePath, newPath string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return fail(err)
	}
	base, err := readRuns(basePath)
	if err != nil {
		return fail(err)
	}
	cur, err := readRuns(newPath)
	if err != nil {
		return fail(err)
	}
	if base.scale != cur.scale || base.seconds != cur.seconds {
		return fail(fmt.Errorf("not comparable: %s ran scale %d for %d s, %s scale %d for %d s",
			basePath, base.scale, base.seconds, newPath, cur.scale, cur.seconds))
	}
	return printComparison(bf, base, cur)
}

func printComparison(bf *benchmarkFile, base, cur *runSet) int {
	code := 0
	fmt.Printf("%-15s %-12s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "base", "new", "worse", "spreadA", "spreadB", "bound", "verdict")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			a, b := base.values[w.Name][m.Name], cur.values[w.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("%-15s %-12s missing on one side\n", w.Name, m.Name)
				code = 1
				continue
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma // share of the base median by which the metric got worse
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "worse"
				code = 1
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-15s %-12s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d)\n",
				w.Name, m.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict, len(a), len(b))
		}
	}
	fmt.Printf("\n%-15s %10s %10s %15s %15s %22s %22s\n", "workload", "runs base", "runs new",
		"incorrect base", "incorrect new", "failed/attempted base", "failed/attempted new")
	for _, w := range bf.Workloads {
		n := w.Name
		verdict := ""
		if cur.incorrect[n] > base.incorrect[n] {
			verdict = "  worse"
			code = 1
		}
		fmt.Printf("%-15s %10d %10d %15d %15d %22s %22s%s\n", n, base.runs[n], cur.runs[n], base.incorrect[n], cur.incorrect[n],
			fmt.Sprintf("%d/%d", base.failed[n], base.attempted[n]), fmt.Sprintf("%d/%d", cur.failed[n], cur.attempted[n]), verdict)
	}
	return code
}
