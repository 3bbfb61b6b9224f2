package benchkit

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Timing accumulates duration samples and reports order statistics.
type Timing struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (t *Timing) Add(d time.Duration) {
	t.samples = append(t.samples, d)
	t.sorted = false
}

// N returns the sample count.
func (t *Timing) N() int { return len(t.samples) }

// Total returns the sum of samples.
func (t *Timing) Total() time.Duration {
	var sum time.Duration
	for _, d := range t.samples {
		sum += d
	}
	return sum
}

// Mean returns the average sample, 0 with no samples.
func (t *Timing) Mean() time.Duration {
	if len(t.samples) == 0 {
		return 0
	}
	return t.Total() / time.Duration(len(t.samples))
}

// ensureSorted sorts the samples once.
func (t *Timing) ensureSorted() {
	if !t.sorted {
		sort.Slice(t.samples, func(i, j int) bool { return t.samples[i] < t.samples[j] })
		t.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) by nearest-rank.
func (t *Timing) Percentile(p float64) time.Duration {
	if len(t.samples) == 0 {
		return 0
	}
	t.ensureSorted()
	rank := int(math.Ceil(p/100*float64(len(t.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(t.samples) {
		rank = len(t.samples) - 1
	}
	return t.samples[rank]
}

// P50 is the median.
func (t *Timing) P50() time.Duration { return t.Percentile(50) }

// P95 is the 95th percentile.
func (t *Timing) P95() time.Duration { return t.Percentile(95) }

// Spearman computes the Spearman rank correlation of two equal-length
// vectors, handling ties by average ranks. It returns NaN for vectors
// shorter than 2 or with zero variance.
func Spearman(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return math.NaN()
	}
	ra := ranks(a)
	rb := ranks(b)
	return pearson(ra, rb)
}

// ranks returns average ranks (1-based) of the values.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
	out := make([]float64, n)
	i := 0
	for i < n {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// pearson computes the Pearson correlation coefficient.
func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(va*vb)
}

// Table is a simple text/markdown table for experiment reports.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable builds a table with a title and header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends one row; short rows are padded.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Header) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes an aligned plain-text table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// String renders the plain-text form.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b) //nolint:errcheck // strings.Builder never fails
	return b.String()
}

// FmtDuration renders a duration compactly with microsecond precision for
// small values.
func FmtDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// FmtFloat renders a float with adaptive precision.
func FmtFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%.3f", f)
}

// FmtBytes renders a byte count in human units.
func FmtBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
