// Package experiments implements the reproducible experiments of the
// demonstration scenario (§4 of the paper), one per artifact: the four GUI
// panels of Figure 3 (full lattice exploration, cost-function selection,
// materialized-lattice trade-off, query performance analyzer), cost-model
// fidelity against measured times, learned-model training, the
// memory-budget variant, the hands-on challenge (greedy vs exhaustive
// optimum regret), workload-skew sensitivity, and the estimated-model
// offline path.
//
// Every experiment takes a deterministic Env — a dataset at a scale, its
// facet's system, and a seeded workload — and returns a benchkit.Table, so
// the same code serves three consumers: cmd/sofos-bench renders the full
// formatted report, bench_test.go wraps each experiment as a testing.B
// benchmark that CI runs once per push, and the CLI's compare/analyze
// subcommands show single panels interactively.
package experiments
