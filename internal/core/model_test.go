package core

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sofos/internal/datasets"
	"sofos/internal/engine"
	"sofos/internal/facet"
	"sofos/internal/persist"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
	"sofos/internal/views"
)

// FuzzSystemModel is the model-based test of the system (QuickCheck-style):
// the input decodes to an aggregate over the dbpedia facet and a list of
// operations, which drive a core.Chain the way the server does. Updates run
// as writer transactions — insert/delete statements, then an eager refresh
// at 1, 2 or 4 workers or none (lazy), then Commit or Abort — and between
// transactions the list materializes and drops views, compacts the graph,
// checkpoints, restores from the checkpoint plus the WAL, pins a published
// state and queries it later. The model is the base triple set at every
// committed graph version. After every op:
//   - the published base graph holds exactly the model's triples;
//   - every materialized view's groups equal views.Compute over the model at
//     the view's BaseVersion, so stale views are checked as well as fresh;
//   - a restore yields the live catalog's state byte for byte (stateBytes);
//   - a query's rows equal the base engine's answer over the model at the
//     version it was answered from.
//
// A failure prints the decoded op list; the fuzzer's minimizer shrinks it.
// Run the seeds alone with go test, or fuzz with
// go test -run '^$' -fuzz '^FuzzSystemModel$' ./internal/core.
func FuzzSystemModel(f *testing.F) {
	for _, s := range modelSeeds() {
		f.Add(s)
	}
	cov := modelCoverage{seen: map[string]bool{}}
	f.Fuzz(func(t *testing.T, data []byte) {
		agg, ops := decodeModel(data)
		defer func() {
			if t.Failed() {
				var b strings.Builder
				for i, op := range ops {
					fmt.Fprintf(&b, "%3d %s\n", i, op)
				}
				t.Logf("decoded input: aggregate %s\n%s", agg, b.String())
			}
		}()
		runModel(t, agg, ops, &cov)
	})
	// The seeds ran in this process when the run was not fuzzing and no
	// -run pattern left one out: they must reach every path check names.
	if cov.runs == len(modelSeeds()) {
		cov.check(f)
	}
}

// modelOp is one decoded operation with its two parameter bytes.
//   - update: x holds the insert count (bits 0-1), the delete count (bits
//     3-4) and the updBirth, updWhole and updSplit flags; y holds the
//     maintenance (bits 0-1: lazy, or eager at 1, 2 or 4 workers), updAbort,
//     and a seed for the choices (bits 3-7).
//   - materialize: the view mask x&15, plus y>>4 when y&1 is set, planned at
//     1, 2 or 4 workers by (y>>1)%3.
//   - drop: the materialized view x, counted modulo their number.
//   - query: the analytical query of view mask x&15.
type modelOp struct {
	kind opKind
	x, y byte
}

type opKind byte

const (
	opUpdate opKind = iota
	opMaterialize
	opDrop
	opCompact
	opCheckpoint
	opRestore
	opPin
	opQuery
	numOpKinds
)

var opNames = [numOpKinds]string{"update", "materialize", "drop", "compact", "checkpoint", "restore", "pin", "query"}

const (
	updBirth = 1 << 2 // in x: inserted observations found new countries
	updWhole = 1 << 5 // in x: deletes remove whole observations, not one triple
	updSplit = 1 << 6 // in x: inserts and deletes are two statements
	updAbort = 1 << 2 // in y: the transaction aborts
)

var modelWorkers = [...]int{0, 1, 2, 4} // 0: lazy

var modelAggs = [...]sparql.AggKind{sparql.AggSum, sparql.AggCount, sparql.AggMin, sparql.AggMax, sparql.AggAvg}

// maxModelOps bounds one input's op list, so each fuzzed input runs in
// milliseconds.
const maxModelOps = 40

// decodeModel reads the aggregate from the first byte and one op from each
// following three bytes.
func decodeModel(data []byte) (sparql.AggKind, []modelOp) {
	if len(data) == 0 {
		return modelAggs[0], nil
	}
	var ops []modelOp
	for p := data[1:]; len(p) >= 3 && len(ops) < maxModelOps; p = p[3:] {
		ops = append(ops, modelOp{opKind(p[0] % byte(numOpKinds)), p[1], p[2]})
	}
	return modelAggs[int(data[0])%len(modelAggs)], ops
}

func (op modelOp) String() string {
	x, y := op.x, op.y
	switch op.kind {
	case opUpdate:
		return fmt.Sprintf("update ins=%d dels=%d birth=%t whole=%t split=%t workers=%d abort=%t choice=%d",
			x&3, x>>3&3, x&updBirth != 0, x&updWhole != 0, x&updSplit != 0, modelWorkers[y&3], y&updAbort != 0, y>>3)
	case opMaterialize:
		return fmt.Sprintf("materialize %04b (and %04b: %t) workers=%d", x&15, y>>4, y&1 != 0, modelWorkers[1+int(y>>1)%3])
	case opDrop:
		return fmt.Sprintf("drop #%d", x)
	case opQuery:
		return fmt.Sprintf("query %04b", x&15)
	}
	return opNames[op.kind]
}

// modelCoverage records what the seeds reached, by name.
type modelCoverage struct {
	runs int
	seen map[string]bool
}

func (c *modelCoverage) check(f *testing.F) {
	want := []string{"incremental refresh", "full-refresh fallback", "two-window refresh plan", "restore"}
	for _, a := range modelAggs {
		want = append(want, "aggregate "+a.String())
	}
	for _, k := range opNames {
		want = append(want, "op "+k)
	}
	for _, w := range want {
		if !c.seen[w] {
			f.Errorf("no seed reaches %s", w)
		}
	}
}

// tripleSet is the model's base graph at one version.
type tripleSet map[rdf.Triple]struct{}

// sorted lists the set in a fixed order, so choices drawn from it repeat.
func (s tripleSet) sorted() []rdf.Triple {
	out := make([]rdf.Triple, 0, len(s))
	for t := range s {
		out = append(out, t)
	}
	key := func(t rdf.Triple) string { return t.S.String() + t.P.String() + t.O.String() }
	slices.SortFunc(out, func(a, b rdf.Triple) int { return strings.Compare(key(a), key(b)) })
	return out
}

// model is the system under test beside its reference state.
type model struct {
	t     *testing.T
	f     *facet.Facet
	chain *Chain
	dir   *persist.Dir
	log   *persist.Log
	cov   *modelCoverage

	hist    map[int64]tripleSet // committed base graph per version
	engines map[int64]*engine.Engine
	groups  map[string][]views.Group // views.Compute memo by version and mask

	pinned *GenerationState
	i      int // the op running, named in failures
	op     modelOp
}

func runModel(t *testing.T, agg sparql.AggKind, ops []modelOp, cov *modelCoverage) {
	g, pop, err := datasets.BuildWithFacet("dbpedia", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	f, err := facet.New(pop.Name+"-"+agg.String(), pop.Dims, pop.Measure, agg, pop.Pattern, pop.Prefixes)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewWithOptions(g, f, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, err := persist.OpenLog(dir.WALDir(), persist.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	checkpointSystem(t, dir, l, sys) // the boot checkpoint
	m := &model{t: t, f: f, chain: NewChain(sys), dir: dir, log: l, cov: cov,
		hist: map[int64]tripleSet{}, engines: map[int64]*engine.Engine{}, groups: map[string][]views.Group{}}
	m.hist[g.Version()] = tripleSet{}
	for _, tr := range g.Triples() {
		m.hist[g.Version()][tr] = struct{}{}
	}
	cov.runs++
	cov.seen["aggregate "+agg.String()] = true
	for m.i, m.op = range ops {
		cov.seen["op "+opNames[m.op.kind]] = true
		m.apply()
		m.checkGraph()
		m.checkViews()
	}
}

func (m *model) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("op %d (%s): %s", m.i, m.op, fmt.Sprintf(format, args...))
}

func (m *model) must(err error) {
	m.t.Helper()
	if err != nil {
		m.fatalf("%v", err)
	}
}

func (m *model) apply() {
	t, x, y := m.t, m.op.x, m.op.y
	switch m.op.kind {
	case opUpdate:
		m.update()
	case opMaterialize:
		vs := []facet.View{m.f.View(facet.Mask(x & 15))}
		if y&1 != 0 {
			vs = append(vs, m.f.View(facet.Mask(y>>4)))
		}
		// Plan on the published state, commit in a transaction, and
		// checkpoint before publishing: the WAL does not hold view changes.
		plan, err := m.chain.Load().Sys.Catalog.PlanMaterialize(vs, modelWorkers[1+int(y>>1)%3])
		m.must(err)
		if plan == nil {
			return
		}
		txn := m.chain.Begin()
		mats, err := txn.Sys.Catalog.CommitMaterialize(plan)
		m.must(err)
		for _, v := range vs {
			if !txn.Sys.Catalog.Has(v.Mask) {
				m.fatalf("view %s not materialized", v)
			}
		}
		if len(mats) == 0 {
			txn.Abort()
			return
		}
		checkpointSystem(t, m.dir, m.log, txn.Sys)
		txn.Commit()
	case opDrop:
		mats := m.chain.Load().Sys.Catalog.Materialized()
		if len(mats) == 0 {
			return
		}
		txn := m.chain.Begin()
		txn.Sys.Catalog.Drop(mats[int(x)%len(mats)].View())
		checkpointSystem(t, m.dir, m.log, txn.Sys)
		txn.Commit()
	case opCompact:
		txn := m.chain.Begin()
		txn.Sys.Graph.Compact()
		txn.Commit()
	case opCheckpoint:
		m.must(m.chain.Exclusive(func(st *GenerationState) error {
			checkpointSystem(t, m.dir, m.log, st.Sys)
			return nil
		}))
	case opRestore:
		live := m.chain.Load().Sys
		restored, rec, err := Restore(m.dir, m.f, Options{Workers: 2})
		m.must(err)
		m.cov.seen["restore"] = true
		if rec.IncrementalRefreshes > 0 {
			m.cov.seen["incremental refresh"] = true
		}
		if restored.Generation() != live.Generation() || restored.GraphVersion() != live.GraphVersion() {
			m.fatalf("restored generation %d at version %d, live %d at %d",
				restored.Generation(), restored.GraphVersion(), live.Generation(), live.GraphVersion())
		}
		if got, want := stateBytes(t, restored.Catalog), stateBytes(t, live.Catalog); !bytes.Equal(got, want) {
			m.fatalf("restored catalog state differs from live (%d vs %d bytes)", len(got), len(want))
		}
		m.chain.Reset(restored)
	case opPin:
		m.pinned = m.chain.Load()
	case opQuery:
		st := m.pinned
		if st == nil {
			st = m.chain.Load()
		}
		q := m.f.View(facet.Mask(x & 15)).AnalyticalQuery()
		ans, err := st.Sys.Answer(q)
		m.must(err)
		// A view answers from the base version it reflects, stale or not.
		version := st.Sys.GraphVersion()
		if ans.Via != nil {
			version = ans.Via.BaseVersion()
		}
		base, err := m.engine(version).Execute(q)
		m.must(err)
		if got, want := sortedRows(ans.Result), sortedRows(base); !rowsEqual(got, want, m.f) {
			m.fatalf("answer via %s at version %d:\n got %v\nwant %v", ans.ViaLabel(), version, got, want)
		}
	}
}

// update runs one writer transaction as the server's /v1/update does.
func (m *model) update() {
	x, y := m.op.x, m.op.y
	rng := rand.New(rand.NewSource(int64(m.i)<<16 | int64(x)<<8 | int64(y)))
	txn := m.chain.Begin()
	baseGen := txn.Base.Generation
	cur := m.hist[txn.Sys.GraphVersion()]
	all := cur.sorted()
	dbpIRI := func(s string) rdf.Term { return rdf.NewIRI(dbp + s) }
	var countries, langs []rdf.Term
	for _, tr := range all {
		switch tr.P {
		case dbpIRI("name"):
			countries = append(countries, tr.S)
		case dbpIRI("language"):
			langs = append(langs, tr.O)
		}
	}

	var ins, del []rdf.Triple
	add := func(s rdf.Term, p string, o rdf.Term) { ins = append(ins, rdf.Triple{S: s, P: dbpIRI(p), O: o}) }
	for k := range int(x & 3) {
		tag := fmt.Sprintf("m%d_%d", m.i, k)
		obs, c := rdf.NewIRI("http://ex.org/obs_"+tag), rdf.NewIRI("http://ex.org/c_"+tag)
		lang := rdf.NewLiteral(fmt.Sprintf("L%d", rng.Intn(3)))
		if x&updBirth != 0 || len(countries) == 0 {
			add(c, "name", rdf.NewLiteral("C"+tag))
			add(c, "continent", rdf.NewLiteral([]string{"Europe", "Asia"}[rng.Intn(2)]))
		} else {
			c = countries[rng.Intn(len(countries))]
			if len(langs) > 0 && rng.Intn(2) == 0 {
				lang = langs[rng.Intn(len(langs))]
			}
		}
		add(obs, "country", c)
		add(obs, "language", lang)
		add(obs, "year", rdf.NewYear(2015+rng.Intn(5)))
		add(obs, "population", rdf.NewInteger(int64(1+rng.Intn(1000))))
	}
	for k := 0; k < int(x>>3&3) && len(all) > 0; k++ {
		victim := all[rng.Intn(len(all))]
		for _, tr := range all {
			if tr == victim || (x&updWhole != 0 && tr.S == victim.S) {
				del = append(del, tr)
			}
		}
	}
	stmts := [][2][]rdf.Triple{{ins, del}}
	if x&updSplit != 0 {
		stmts = [][2][]rdf.Triple{{ins, nil}, {nil, del}}
	}

	pending := map[int64]tripleSet{}
	work := maps.Clone(cur)
	var deltas []store.Delta
	for _, st := range stmts {
		d, err := txn.Sys.Catalog.ApplyUpdate(st[0], st[1])
		m.must(err)
		for _, tr := range st[0] {
			work[tr] = struct{}{}
		}
		for _, tr := range st[1] {
			delete(work, tr)
		}
		pending[d.ToVersion] = maps.Clone(work)
		deltas = append(deltas, d)
	}
	if w := modelWorkers[y&3]; w > 0 {
		m.refresh(txn.Sys, w)
	}
	if y&updAbort != 0 || txn.Sys.Generation() == baseGen {
		txn.Abort()
		return
	}
	txn.Sys.Catalog.SetGeneration(baseGen + 1)
	if net := store.ComposeDeltas(deltas); net.FromVersion != net.ToVersion {
		m.must(m.log.Append(&persist.Record{FromVersion: net.FromVersion, ToVersion: net.ToVersion,
			Generation: txn.Sys.Generation(), Eager: y&3 != 0, Inserts: net.Inserted, Deletes: net.Deleted}))
	} else {
		// Only a refresh moved the generation: the WAL cannot hold it.
		checkpointSystem(m.t, m.dir, m.log, txn.Sys)
	}
	maps.Copy(m.hist, pending)
	txn.Commit()
}

// refresh runs a transaction's eager maintenance, recording which paths
// its plan takes.
func (m *model) refresh(sys *System, workers int) {
	stale := sys.Catalog.StaleViews()
	windows := map[int64]bool{}
	for _, mat := range sys.Catalog.Materialized() {
		if sys.Catalog.Stale(mat.View().Mask) {
			windows[mat.BaseVersion()] = true
		}
	}
	plan, err := sys.Catalog.PlanRefresh(workers)
	m.must(err)
	_, err = sys.Catalog.CommitRefresh(plan)
	m.must(err)
	if plan != nil {
		m.cov.seen["incremental refresh"] = m.cov.seen["incremental refresh"] || plan.Incremental() > 0
		m.cov.seen["full-refresh fallback"] = m.cov.seen["full-refresh fallback"] || plan.Incremental() < len(stale)
		m.cov.seen["two-window refresh plan"] = m.cov.seen["two-window refresh plan"] || len(windows) > 1
	}
	if left := sys.Catalog.StaleViews(); len(left) > 0 {
		m.fatalf("views %v still stale after an eager refresh", left)
	}
}

// engine returns an engine over a fresh graph holding the model at version.
func (m *model) engine(version int64) *engine.Engine {
	if e, ok := m.engines[version]; ok {
		return e
	}
	s, ok := m.hist[version]
	if !ok {
		m.fatalf("no model state at graph version %d", version)
	}
	g, err := store.BuildFrom(s.sorted())
	m.must(err)
	m.engines[version] = engine.NewWithOptions(g, engine.Options{Workers: 1})
	return m.engines[version]
}

// checkGraph requires the published base graph to hold the model's triples.
func (m *model) checkGraph() {
	sys := m.chain.Load().Sys
	want := m.hist[sys.GraphVersion()]
	got := sys.Graph.Triples()
	for _, tr := range got {
		if _, ok := want[tr]; !ok {
			m.fatalf("base graph holds %s, which the model does not", tr)
		}
	}
	if len(got) != len(want) {
		m.fatalf("base graph holds %d triples, the model %d", len(got), len(want))
	}
}

// checkViews requires every published view to equal its defining query
// over the model at the version it reflects.
func (m *model) checkViews() {
	groups := func(d *views.Data) (out []views.Group) {
		d.Each(func(g views.Group) bool {
			out = append(out, g)
			return true
		})
		return out
	}
	for _, mat := range m.chain.Load().Sys.Catalog.Materialized() {
		v := mat.View()
		key := fmt.Sprintf("%d/%d", mat.BaseVersion(), v.Mask)
		if _, ok := m.groups[key]; !ok {
			d, err := views.Compute(m.engine(mat.BaseVersion()), v)
			m.must(err)
			m.groups[key] = groups(d)
		}
		if got, want := groups(mat.Data), m.groups[key]; !reflect.DeepEqual(got, want) {
			m.fatalf("view %s at version %d (%s):\n got %v\nwant %v", v, mat.BaseVersion(), mat.Maint.LastPath, got, want)
		}
	}
}

// modelSeeds is FuzzSystemModel's seed corpus: four scripts, each run under
// every aggregate.
func modelSeeds() [][]byte {
	upd := func(ins, dels int, x, y byte) modelOp {
		return modelOp{opUpdate, byte(ins) | byte(dels)<<3 | x, y}
	}
	const lazy, w1, w2, w4 = 0, 1, 2, 3
	scripts := [][]modelOp{
		{ // maintenance of a small lattice through births and deaths
			{opMaterialize, 15, 2}, {opMaterialize, 3, 1 | 0<<4},
			upd(2, 0, updBirth, w1), upd(1, 1, 0, w2|1<<3), upd(0, 2, updWhole, w4|2<<3),
			{opPin, 0, 0}, upd(3, 1, updSplit, lazy|3<<3), {opQuery, 3, 0},
			upd(1, 2, updWhole|updSplit, w4|4<<3), {opQuery, 5, 0}, {opCompact, 0, 0},
			upd(2, 1, updBirth, w2|updAbort), {opCheckpoint, 0, 0},
			upd(1, 1, updWhole, w2|5<<3), upd(2, 0, 0, lazy|6<<3), {opRestore, 0, 0},
			upd(1, 1, 0, w1|7<<3), {opDrop, 0, 0}, {opQuery, 1, 0},
		},
		{ // a roll-up from a stale view, two staleness windows, a restore that folds eager runs
			{opMaterialize, 3, 4}, upd(2, 1, updBirth, lazy|1<<3), {opMaterialize, 1, 0}, {opMaterialize, 12, 2},
			upd(2, 0, 0, w2|2<<3), {opPin, 0, 0},
			upd(2, 0, 0, w4|3<<3), upd(0, 1, 0, w1|4<<3), upd(1, 0, updBirth, lazy|5<<3),
			upd(1, 1, updWhole, w2|6<<3), {opQuery, 2, 0}, {opRestore, 0, 0}, {opQuery, 0, 0},
			{opMaterialize, 1, 1 | 8<<4}, upd(2, 2, updSplit, w4|7<<3), {opRestore, 0, 0},
		},
		{ // drops and re-materializations beside stale views
			{opMaterialize, 15, 1 | 5<<4}, upd(1, 0, 0, lazy|1<<3), {opDrop, 0, 0}, {opMaterialize, 15, 0},
			upd(1, 2, 0, w2|2<<3), {opCheckpoint, 0, 0}, upd(2, 1, updWhole, lazy|3<<3), {opCompact, 0, 0},
			{opRestore, 0, 0}, upd(0, 1, updWhole, w4|4<<3), {opQuery, 6, 0},
		},
		{ // the facet pattern loses its last solution, then regains one
			{opMaterialize, 0, 0}, {opPin, 0, 0}, upd(1, 3, updSplit, w2|6<<3), upd(0, 2, updWhole, w1|6<<3),
			upd(1, 2, updWhole, w4|updAbort|6<<3), upd(1, 3, updWhole, w2|6<<3), {opQuery, 0, 0},
			upd(1, 0, updBirth, w2|1<<3), {opRestore, 0, 0},
		},
	}
	var out [][]byte
	for _, s := range scripts {
		for a := range modelAggs {
			b := []byte{byte(a)}
			for _, op := range s {
				b = append(b, byte(op.kind), op.x, op.y)
			}
			out = append(out, b)
		}
	}
	return out
}
