// Command sofos-bench regenerates every paper experiment (E1–E10): the four
// GUI panels of the paper's Figure 3 plus the cost-fidelity, learned-model,
// memory-budget, hands-on-challenge, workload-skew, and estimated-model
// studies, across the three demonstration datasets.
//
// Usage:
//
//	sofos-bench                      # full run, tables to stdout
//	sofos-bench -quick               # reduced probes/epochs
//	sofos-bench -markdown -out report.md
//	sofos-bench -seed 7 -workload 60 -k 3
//	sofos-bench -workers 1           # force serial query execution
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sofos/internal/core"
	"sofos/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sofos-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sofos-bench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "experiment seed (datasets, workloads, models)")
	workload := fs.Int("workload", 60, "queries per workload")
	k := fs.Int("k", 3, "view budget for the cost-model comparison")
	quick := fs.Bool("quick", false, "reduced probes and training epochs")
	markdown := fs.Bool("markdown", false, "render tables as markdown")
	out := fs.String("out", "", "also write the report to this file")
	workers := fs.Int("workers", 0, "parallel execution workers per query (0 = all CPUs, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	start := time.Now()
	tables, err := experiments.MeasureAllWithOptions(*seed, *workload, *k, *quick,
		core.Options{Workers: *workers})
	if err != nil {
		return err
	}
	w := stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("creating %s: %w", *out, err)
		}
		defer file.Close()
		w = io.MultiWriter(stdout, file)
	}
	fmt.Fprintf(w, "SOFOS experiment suite (seed=%d, workload=%d, k=%d, quick=%v)\n\n",
		*seed, *workload, *k, *quick)
	for _, t := range tables {
		if *markdown {
			fmt.Fprintln(w, t.Markdown())
		} else {
			if err := t.Render(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "total experiment time: %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}
