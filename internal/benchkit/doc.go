// Package benchkit provides the measurement utilities behind SOFOS's
// performance comparisons: duration aggregates with percentiles (Timing),
// Spearman rank correlation for cost-model fidelity, compact metric
// formatting (FmtDuration/FmtBytes/FmtFloat), and plain-text/markdown
// table rendering (Table) for the experiment reports.
package benchkit
