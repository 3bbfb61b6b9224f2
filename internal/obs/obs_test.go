package obs

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- Prometheus text-format grammar ---

// Exposition format, version 0.0.4: each non-comment line is
// `name{labels} value`, labels are `key="escaped"` pairs, and every sample
// line for a family follows its # HELP / # TYPE pair.
var (
	sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$`)
	helpLine   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	typeLine   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func checkGrammar(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP"):
			if !helpLine.MatchString(line) {
				t.Errorf("bad HELP line: %q", line)
			}
		case strings.HasPrefix(line, "# TYPE"):
			if !typeLine.MatchString(line) {
				t.Errorf("bad TYPE line: %q", line)
			}
		default:
			if !sampleLine.MatchString(line) {
				t.Errorf("bad sample line: %q", line)
			}
		}
	}
}

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sofos_test_total", "test counter", Label{"outcome", "view_hit"})
	c.Inc()
	c.Inc()
	c.Inc()
	r.Gauge("sofos_test_gauge", "test gauge").Set(2.5)
	text := render(t, r)
	checkGrammar(t, text)
	for _, want := range []string{
		"# HELP sofos_test_total test counter\n",
		"# TYPE sofos_test_total counter\n",
		`sofos_test_total{outcome="view_hit"} 3` + "\n",
		"# TYPE sofos_test_gauge gauge\n",
		"sofos_test_gauge 2.5\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestHandleDedup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("sofos_dedup_total", "h", Label{"k", "v"})
	b := r.Counter("sofos_dedup_total", "h", Label{"k", "v"})
	if a != b {
		t.Fatal("same name+labels must return the same handle")
	}
	other := r.Counter("sofos_dedup_total", "h", Label{"k", "w"})
	if a == other {
		t.Fatal("different label values must be distinct series")
	}
	a.Inc()
	text := render(t, r)
	if !strings.Contains(text, `sofos_dedup_total{k="v"} 1`) ||
		!strings.Contains(text, `sofos_dedup_total{k="w"} 0`) {
		t.Fatalf("unexpected render:\n%s", text)
	}
	if strings.Count(text, "# TYPE sofos_dedup_total") != 1 {
		t.Fatal("one family must render one TYPE header")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sofos_lat_seconds", "latency", []float64{0.01, 0.1, 1})
	h.Observe(0.005) // le=0.01
	h.Observe(0.01)  // le is inclusive: still 0.01
	h.Observe(0.05)  // le=0.1
	h.Observe(5)     // +Inf only
	text := render(t, r)
	checkGrammar(t, text)
	for _, want := range []string{
		`sofos_lat_seconds_bucket{le="0.01"} 2`,
		`sofos_lat_seconds_bucket{le="0.1"} 3`,
		`sofos_lat_seconds_bucket{le="1"} 3`,
		`sofos_lat_seconds_bucket{le="+Inf"} 4`,
		`sofos_lat_seconds_sum 5.065`,
		`sofos_lat_seconds_count 4`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestHistogramLabeledSeries(t *testing.T) {
	r := NewRegistry()
	r.Histogram("sofos_h_seconds", "h", []float64{1}, Label{"endpoint", "/query"}).Observe(0.5)
	r.Histogram("sofos_h_seconds", "h", []float64{1}, Label{"endpoint", "/update"}).Observe(2)
	text := render(t, r)
	checkGrammar(t, text)
	for _, want := range []string{
		`sofos_h_seconds_bucket{endpoint="/query",le="1"} 1`,
		`sofos_h_seconds_bucket{endpoint="/query",le="+Inf"} 1`,
		`sofos_h_seconds_bucket{endpoint="/update",le="1"} 0`,
		`sofos_h_seconds_bucket{endpoint="/update",le="+Inf"} 1`,
		`sofos_h_seconds_count{endpoint="/update"} 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestFuncsAndCollectors(t *testing.T) {
	r := NewRegistry()
	var hits int64 = 41
	r.CounterFunc("sofos_fn_total", "fn counter", func() float64 { return float64(hits) })
	collected := false
	r.OnCollect(func() {
		collected = true
		r.Gauge("sofos_dyn_gauge", "dynamic", Label{"view", "v0"}).Set(7)
	})
	hits++
	text := render(t, r)
	checkGrammar(t, text)
	if !collected {
		t.Fatal("collector hook did not run before render")
	}
	if !strings.Contains(text, "sofos_fn_total 42\n") {
		t.Errorf("CounterFunc not read at scrape time:\n%s", text)
	}
	if !strings.Contains(text, `sofos_dyn_gauge{view="v0"} 7`+"\n") {
		t.Errorf("collector-registered gauge missing:\n%s", text)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("sofos_esc", "has \\ and\nnewline", Label{"q", "a\"b\\c\nd"}).Set(1)
	text := render(t, r)
	checkGrammar(t, text)
	if !strings.Contains(text, `# HELP sofos_esc has \\ and\nnewline`+"\n") {
		t.Errorf("help not escaped:\n%s", text)
	}
	if !strings.Contains(text, `sofos_esc{q="a\"b\\c\nd"} 1`+"\n") {
		t.Errorf("label value not escaped:\n%s", text)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x", "x").Inc()
	r.Gauge("x", "x").Set(1)
	r.Histogram("x", "x", nil).Observe(1)
	r.CounterFunc("x", "x", func() float64 { return 0 })
	r.GaugeFunc("x", "x", func() float64 { return 0 })
	r.OnCollect(func() {})
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var tr *Trace
	sp := tr.Span("root")
	sp.Attr("k", "v")
	sp.Child("child").End()
	sp.End()
	if got := tr.Finish(); got != nil {
		t.Fatalf("nil trace Finish = %v", got)
	}
	var ring *Ring
	ring.Add(QueryRecord{})
	if ring.Snapshot(10) != nil || ring.Total() != 0 {
		t.Fatal("nil ring must be inert")
	}
}

func TestConcurrentScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sofos_conc_total", "c")
	h := r.Histogram("sofos_conc_seconds", "h", nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				render(t, r)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 4000 {
		t.Fatalf("counter = %d, want 4000", c.Value())
	}
	if text := render(t, r); !strings.Contains(text, "sofos_conc_seconds_count 4000\n") {
		t.Fatalf("histogram count is not 4000:\n%s", text)
	}
}

// TestConcurrentFirstUse looks the same labeled series up from several
// goroutines at once, as request handlers do on a fresh server: every
// caller must get the one metric, fully set, whoever created it (run under
// -race).
func TestConcurrentFirstUse(t *testing.T) {
	const workers, series = 8, 200
	r := NewRegistry()
	label := func(i int) Label { return Label{Key: "code", Value: strconv.Itoa(i)} }
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < series; i++ {
				r.Counter("sofos_first_total", "c", label(i)).Inc()
				r.Histogram("sofos_first_seconds", "h", nil, label(i)).Observe(0.001)
			}
		}()
	}
	close(start)
	wg.Wait()
	text := render(t, r)
	for i := 0; i < series; i++ {
		if got := r.Counter("sofos_first_total", "c", label(i)).Value(); got != workers {
			t.Fatalf("counter %d = %d, want %d", i, got, workers)
		}
		want := fmt.Sprintf("sofos_first_seconds_count{code=%q} %d\n", strconv.Itoa(i), workers)
		if !strings.Contains(text, want) {
			t.Fatalf("histogram %d: missing %q", i, want)
		}
	}
}

// --- Trace ---

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("abc123")
	if tr.ID() != "abc123" {
		t.Fatalf("ID = %q", tr.ID())
	}
	root := tr.Span("query")
	exec := root.Child("execute")
	exec.AttrInt("workers", 4)
	p0 := exec.Child("partition")
	p0.End()
	exec.End()
	root.Attr("outcome", "view_hit")
	root.End()
	spans := tr.Finish()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Name != "query" || spans[0].Parent != -1 {
		t.Fatalf("root span = %+v", spans[0])
	}
	if spans[1].Name != "execute" || spans[1].Parent != 0 {
		t.Fatalf("exec span = %+v", spans[1])
	}
	if spans[2].Name != "partition" || spans[2].Parent != 1 {
		t.Fatalf("partition span = %+v", spans[2])
	}
	for i, sp := range spans {
		if sp.End < sp.Start {
			t.Fatalf("span %d not closed: %+v", i, sp)
		}
	}
	if spans[1].Attrs[0] != (Attr{"workers", "4"}) {
		t.Fatalf("attrs = %+v", spans[1].Attrs)
	}
	if spans[0].Attrs[0] != (Attr{"outcome", "view_hit"}) {
		t.Fatalf("root attrs = %+v", spans[0].Attrs)
	}
}

func TestTraceConcurrentChildren(t *testing.T) {
	tr := NewTrace(NewTraceID())
	root := tr.Span("run")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := root.Child("partition")
			sp.AttrInt("rows", 1)
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	spans := tr.Finish()
	if len(spans) != 9 {
		t.Fatalf("got %d spans, want 9", len(spans))
	}
	for _, sp := range spans[1:] {
		if sp.Parent != 0 {
			t.Fatalf("partition parented to %d", sp.Parent)
		}
	}
}

func TestTracePoolReuseDoesNotAlias(t *testing.T) {
	tr := NewTrace("one")
	sp := tr.Span("a")
	sp.Attr("k", "v")
	sp.End()
	first := tr.Finish()
	tr2 := NewTrace("two")
	sp2 := tr2.Span("b")
	sp2.Attr("k2", "v2")
	sp2.End()
	tr2.Finish()
	if first[0].Name != "a" || first[0].Attrs[0].Key != "k" {
		t.Fatalf("finished spans mutated by pool reuse: %+v", first[0])
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 16 || seen[id] {
			t.Fatalf("bad or duplicate id %q", id)
		}
		seen[id] = true
	}
}

// --- Ring ---

func TestRingWraparound(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Add(QueryRecord{TraceID: string(rune('a' + i)), Start: time.Now()})
	}
	got := r.Snapshot(0)
	if len(got) != 3 {
		t.Fatalf("retained %d, want 3", len(got))
	}
	// Newest first: e, d, c.
	for i, want := range []string{"e", "d", "c"} {
		if got[i].TraceID != want {
			t.Fatalf("snapshot[%d] = %q, want %q", i, got[i].TraceID, want)
		}
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
	if limited := r.Snapshot(2); len(limited) != 2 || limited[0].TraceID != "e" {
		t.Fatalf("limited snapshot = %+v", limited)
	}
}

func TestRingDefaultCapacity(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 300; i++ {
		r.Add(QueryRecord{})
	}
	if got := len(r.Snapshot(0)); got != 256 {
		t.Fatalf("default capacity retained %d, want 256", got)
	}
}
