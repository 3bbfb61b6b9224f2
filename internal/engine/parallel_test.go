package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sofos/internal/rdf"
	"sofos/internal/store"
)

// parallelGraph builds a synthetic graph wide enough to cross every parallel
// threshold: ~nItems subjects in nGroups groups, each with a type edge, a
// group edge, a numeric score, and (for two thirds) a link to a hub — so
// joins fan out and the leading `?s ex:type ex:item` range holds nItems
// triples (well above parallelMinScan).
func parallelGraph(t testing.TB, nItems, nGroups int) *store.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	term := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	var ts []rdf.Triple
	typeP, groupP, scoreP, linkP := term("type"), term("group"), term("score"), term("link")
	item := term("item")
	for i := 0; i < nItems; i++ {
		s := term(fmt.Sprintf("s%05d", i))
		ts = append(ts,
			rdf.Triple{S: s, P: typeP, O: item},
			rdf.Triple{S: s, P: groupP, O: term(fmt.Sprintf("g%03d", i%nGroups))},
			rdf.Triple{S: s, P: scoreP, O: rdf.NewInteger(int64(rng.Intn(1000)))},
		)
		if i%3 != 0 {
			ts = append(ts, rdf.Triple{S: s, P: linkP, O: term(fmt.Sprintf("hub%02d", i%17))})
		}
	}
	g := store.NewGraph()
	if _, err := g.LoadTriples(ts); err != nil {
		t.Fatalf("fixture load: %v", err)
	}
	return g
}

// render flattens result rows in order, so comparisons include row order —
// the parallel engine must be bit-identical to serial, not just set-equal.
func render(res *Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		var line string
		for i, v := range row {
			if i > 0 {
				line += "\t"
			}
			line += v.String()
		}
		out = append(out, line)
	}
	return out
}

// parallelQueries covers every operator the engine supports: multi-pattern
// joins, filters, OPTIONAL, UNION, VALUES, all aggregates with GROUP BY and
// HAVING, DISTINCT, ORDER BY, and LIMIT/OFFSET.
var parallelQueries = []struct {
	name string
	src  string
}{
	{"join", `PREFIX ex: <http://ex.org/>
SELECT ?s ?g ?v WHERE {
  ?s ex:type ex:item .
  ?s ex:group ?g .
  ?s ex:score ?v .
}`},
	{"join-filter", `PREFIX ex: <http://ex.org/>
SELECT ?s ?v WHERE {
  ?s ex:type ex:item .
  ?s ex:score ?v .
  FILTER (?v > 500)
}`},
	{"join-hub", `PREFIX ex: <http://ex.org/>
SELECT ?s ?o ?h WHERE {
  ?s ex:group ex:g000 .
  ?s ex:link ?h .
  ?o ex:link ?h .
}`},
	{"optional", `PREFIX ex: <http://ex.org/>
SELECT ?s ?h WHERE {
  ?s ex:type ex:item .
  OPTIONAL { ?s ex:link ?h . }
}`},
	{"union", `PREFIX ex: <http://ex.org/>
SELECT ?s WHERE {
  { ?s ex:link ex:hub00 . }
  UNION
  { ?s ex:link ex:hub01 . }
}`},
	{"optional-wide-tail", `PREFIX ex: <http://ex.org/>
SELECT ?s ?o ?v WHERE {
  ?s ex:link ex:hub00 .
  ?s ex:group ?g .
  ?o ex:group ?g .
  OPTIONAL { ?o ex:score ?v . FILTER (?v > 900) }
}`},
	{"values", `PREFIX ex: <http://ex.org/>
SELECT ?s ?g WHERE {
  VALUES ?g { ex:g000 ex:g001 ex:g002 }
  ?s ex:group ?g .
  ?s ex:type ex:item .
}`},
	{"agg-count-star", `PREFIX ex: <http://ex.org/>
SELECT ?g (COUNT(*) AS ?n) WHERE {
  ?s ex:type ex:item .
  ?s ex:group ?g .
} GROUP BY ?g`},
	{"agg-all", `PREFIX ex: <http://ex.org/>
SELECT ?g (SUM(?v) AS ?sum) (AVG(?v) AS ?avg) (MIN(?v) AS ?min) (MAX(?v) AS ?max) (COUNT(?v) AS ?n) WHERE {
  ?s ex:type ex:item .
  ?s ex:group ?g .
  ?s ex:score ?v .
} GROUP BY ?g ORDER BY ?g`},
	{"agg-having", `PREFIX ex: <http://ex.org/>
SELECT ?h (COUNT(?s) AS ?n) WHERE {
  ?s ex:type ex:item .
  ?s ex:link ?h .
} GROUP BY ?h HAVING (?n > 100) ORDER BY ?h`},
	{"agg-global", `PREFIX ex: <http://ex.org/>
SELECT (SUM(?v) AS ?total) (COUNT(?s) AS ?n) WHERE {
  ?s ex:type ex:item .
  ?s ex:score ?v .
}`},
	{"distinct", `PREFIX ex: <http://ex.org/>
SELECT DISTINCT ?g WHERE {
  ?s ex:type ex:item .
  ?s ex:group ?g .
}`},
	{"limit-offset", `PREFIX ex: <http://ex.org/>
SELECT ?s ?v WHERE {
  ?s ex:type ex:item .
  ?s ex:score ?v .
} LIMIT 37 OFFSET 11`},
	{"order-limit", `PREFIX ex: <http://ex.org/>
SELECT ?s ?v WHERE {
  ?s ex:type ex:item .
  ?s ex:score ?v .
} ORDER BY ?v LIMIT 25`},
}

// TestParallelMatchesSerial is the differential suite of the parallel
// execution engine: for every query shape and worker count, parallel results
// (including row order and stats invariants) must equal serial execution.
// Run under -race in CI, this also proves the partitions share no state.
func TestParallelMatchesSerial(t *testing.T) {
	g := parallelGraph(t, 6000, 40)
	serial := NewWithOptions(g, Options{Workers: 1})
	for _, tc := range parallelQueries {
		t.Run(tc.name, func(t *testing.T) {
			want, err := execWith(serial, tc.src)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			for _, workers := range []int{1, 2, 8} {
				par := NewWithOptions(g, Options{Workers: workers})
				got, err := execWith(par, tc.src)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(render(got), render(want)) {
					t.Errorf("workers=%d: %d rows differ from serial %d rows",
						workers, len(got.Rows), len(want.Rows))
				}
				if got.Stats.Workers != workers {
					t.Errorf("workers=%d: Stats.Workers = %d", workers, got.Stats.Workers)
				}
				if workers == 1 && got.Stats.Partitions != 0 {
					t.Errorf("serial run reported %d partitions", got.Stats.Partitions)
				}
			}
		})
	}
}

// TestParallelUsesPartitions asserts the wide join actually takes the
// parallel path (guarding against a silently-serial regression).
func TestParallelUsesPartitions(t *testing.T) {
	g := parallelGraph(t, 6000, 40)
	eng := NewWithOptions(g, Options{Workers: 4})
	res, err := execWith(eng, `PREFIX ex: <http://ex.org/>
SELECT ?s ?g WHERE { ?s ex:type ex:item . ?s ex:group ?g . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Partitions == 0 {
		t.Error("wide scan executed serially; expected Split partitions")
	}
	if res.Stats.ResultRows != 6000 {
		t.Errorf("ResultRows = %d, want 6000", res.Stats.ResultRows)
	}
}

// TestParallelWithDeltaOverlay checks parallel equality on a graph whose
// delta overlay is non-empty, exercising Split's extra/tombstone routing
// through the engine.
func TestParallelWithDeltaOverlay(t *testing.T) {
	g := parallelGraph(t, 4000, 20)
	term := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	// Remove a slice of type edges and add late items, staying under the
	// compaction threshold so scans see a live overlay.
	var ins, dels []rdf.Triple
	for i := 0; i < 300; i += 7 {
		dels = append(dels, rdf.Triple{S: term(fmt.Sprintf("s%05d", i)), P: term("type"), O: term("item")})
	}
	for i := 0; i < 200; i++ {
		ins = append(ins,
			rdf.Triple{S: term(fmt.Sprintf("late%04d", i)), P: term("type"), O: term("item")},
			rdf.Triple{S: term(fmt.Sprintf("late%04d", i)), P: term("score"), O: rdf.NewInteger(int64(i))})
	}
	if _, err := g.Apply(nil, dels); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Apply(ins, nil); err != nil {
		t.Fatal(err)
	}
	if g.MemStats().OverlayAdds == 0 || g.MemStats().OverlayDels == 0 {
		t.Fatal("updates left no live overlay")
	}
	src := `PREFIX ex: <http://ex.org/>
SELECT ?s ?v WHERE { ?s ex:type ex:item . ?s ex:score ?v . }`
	want, err := execWith(NewWithOptions(g, Options{Workers: 1}), src)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := execWith(NewWithOptions(g, Options{Workers: workers}), src)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(render(got), render(want)) {
			t.Errorf("workers=%d: delta-overlay results differ from serial", workers)
		}
	}
}

// TestDefaultWorkersIsGOMAXPROCS pins the documented default.
func TestDefaultWorkersIsGOMAXPROCS(t *testing.T) {
	if got := (Options{}).EffectiveWorkers(); got < 1 {
		t.Errorf("EffectiveWorkers = %d", got)
	}
	if got := (Options{Workers: 3}).EffectiveWorkers(); got != 3 {
		t.Errorf("EffectiveWorkers(3) = %d", got)
	}
}
