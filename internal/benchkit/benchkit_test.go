package benchkit

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestTimingStats(t *testing.T) {
	var tm Timing
	if tm.Mean() != 0 || tm.P50() != 0 || tm.N() != 0 {
		t.Error("empty timing not zero")
	}
	for i := 1; i <= 100; i++ {
		tm.Add(time.Duration(i) * time.Millisecond)
	}
	if tm.N() != 100 {
		t.Errorf("N = %d", tm.N())
	}
	if tm.Mean() != 50500*time.Microsecond {
		t.Errorf("Mean = %v", tm.Mean())
	}
	if tm.P50() != 50*time.Millisecond {
		t.Errorf("P50 = %v", tm.P50())
	}
	if tm.P95() != 95*time.Millisecond {
		t.Errorf("P95 = %v", tm.P95())
	}
	if tm.Total() != 5050*time.Millisecond {
		t.Errorf("Total = %v", tm.Total())
	}
}

func TestTimingAddAfterPercentile(t *testing.T) {
	var tm Timing
	tm.Add(3 * time.Millisecond)
	tm.Add(1 * time.Millisecond)
	_ = tm.P50()
	tm.Add(2 * time.Millisecond)
	if tm.P50() != 2*time.Millisecond {
		t.Errorf("P50 after re-add = %v", tm.P50())
	}
}

func TestSpearmanPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 20, 30, 40, 50}
	if got := Spearman(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", got)
	}
	rev := []float64{50, 40, 30, 20, 10}
	if got := Spearman(a, rev); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", got)
	}
}

func TestSpearmanMonotoneTransformInvariant(t *testing.T) {
	a := []float64{1, 4, 9, 16, 25, 36}
	b := []float64{2, 3, 5, 8, 13, 21} // both increasing: rho = 1
	if got := Spearman(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("monotone correlation = %v", got)
	}
}

func TestSpearmanTies(t *testing.T) {
	a := []float64{1, 1, 2, 2}
	b := []float64{1, 1, 2, 2}
	if got := Spearman(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("tied correlation = %v", got)
	}
}

func TestSpearmanDegenerate(t *testing.T) {
	if !math.IsNaN(Spearman([]float64{1}, []float64{2})) {
		t.Error("single sample should be NaN")
	}
	if !math.IsNaN(Spearman([]float64{1, 2}, []float64{3})) {
		t.Error("mismatched lengths should be NaN")
	}
	if !math.IsNaN(Spearman([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Error("zero variance should be NaN")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "model", "time")
	tb.AddRow("random", "5ms")
	tb.AddRow("triples") // short row padded
	text := tb.String()
	if !strings.Contains(text, "Demo") || !strings.Contains(text, "random") {
		t.Errorf("text table:\n%s", text)
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), text)
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| model | time |") || !strings.Contains(md, "### Demo") {
		t.Errorf("markdown:\n%s", md)
	}
	if !strings.Contains(md, "| random | 5ms |") {
		t.Errorf("markdown row:\n%s", md)
	}
}

func TestFormatters(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{500 * time.Microsecond, "500µs"},
		{2500 * time.Microsecond, "2.50ms"},
		{1500 * time.Millisecond, "1.500s"},
	}
	for _, tc := range cases {
		if got := FmtDuration(tc.d); got != tc.want {
			t.Errorf("FmtDuration(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
	if FmtFloat(3) != "3" || FmtFloat(3.14159) != "3.142" {
		t.Errorf("FmtFloat: %q %q", FmtFloat(3), FmtFloat(3.14159))
	}
	if FmtBytes(512) != "512B" {
		t.Errorf("FmtBytes(512) = %q", FmtBytes(512))
	}
	if FmtBytes(2048) != "2.0KiB" {
		t.Errorf("FmtBytes(2048) = %q", FmtBytes(2048))
	}
	if FmtBytes(3<<20) != "3.0MiB" {
		t.Errorf("FmtBytes(3MiB) = %q", FmtBytes(3<<20))
	}
}
