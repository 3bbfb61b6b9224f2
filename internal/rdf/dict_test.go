package rdf

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestDictInternLookup(t *testing.T) {
	d := NewDict()
	a := NewIRI("http://a")
	b := NewLiteral("b")

	ida := d.Intern(a)
	idb := d.Intern(b)
	if ida == NoID || idb == NoID {
		t.Fatal("interned IDs must not be the sentinel")
	}
	if ida == idb {
		t.Fatal("distinct terms got the same ID")
	}
	if again := d.Intern(a); again != ida {
		t.Errorf("re-intern returned %d, want %d", again, ida)
	}
	if got, ok := d.Lookup(a); !ok || got != ida {
		t.Errorf("Lookup = %d,%v", got, ok)
	}
	if _, ok := d.Lookup(NewIRI("http://missing")); ok {
		t.Error("Lookup of missing term succeeded")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if !d.Term(ida).Equal(a) || !d.Term(idb).Equal(b) {
		t.Error("Term() did not resolve to original terms")
	}
}

func TestDictTermPanicsOnInvalidID(t *testing.T) {
	d := NewDict()
	for _, id := range []ID{NoID, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Term(%d) did not panic", id)
				}
			}()
			d.Term(id)
		}()
	}
}

func TestDictEachTerm(t *testing.T) {
	d := NewDict()
	want := []Term{NewIRI("http://a"), NewBlank("b"), NewLiteral("c")}
	for _, w := range want {
		d.Intern(w)
	}
	var got []Term
	d.EachTerm(func(id ID, term Term) bool {
		if d.Term(id) != term {
			t.Errorf("EachTerm id %d mismatch", id)
		}
		got = append(got, term)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("EachTerm visited %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("EachTerm[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	// Early stop.
	n := 0
	d.EachTerm(func(ID, Term) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d, want 1", n)
	}
}

// TestDictRoundTripProperty checks intern/resolve identity over random terms.
func TestDictRoundTripProperty(t *testing.T) {
	d := NewDict()
	prop := func(kind uint8, value string, dt uint8, lang bool) bool {
		term := randomTerm(kind, value, dt, lang)
		id := d.Intern(term)
		return d.Term(id).Equal(term)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestDictStableIDsProperty checks that interning is idempotent and IDs are
// dense (1..Len).
func TestDictStableIDsProperty(t *testing.T) {
	d := NewDict()
	rng := rand.New(rand.NewSource(7))
	seen := make(map[Term]ID)
	for i := 0; i < 2000; i++ {
		term := randomTerm(uint8(rng.Intn(3)), randString(rng), uint8(rng.Intn(4)), rng.Intn(2) == 0)
		id := d.Intern(term)
		if prev, ok := seen[term]; ok && prev != id {
			t.Fatalf("term %s changed ID %d -> %d", term, prev, id)
		}
		seen[term] = id
		if int(id) < 1 || int(id) > d.Len() {
			t.Fatalf("ID %d out of dense range 1..%d", id, d.Len())
		}
	}
	if d.Len() != len(seen) {
		t.Errorf("Len = %d, distinct terms = %d", d.Len(), len(seen))
	}
}

// randomTerm builds a term from fuzz inputs, normalizing into valid shapes.
func randomTerm(kind uint8, value string, dt uint8, lang bool) Term {
	switch kind % 3 {
	case 0:
		return NewIRI("http://ex.org/" + value)
	case 1:
		if value == "" {
			value = "b"
		}
		return NewBlank(value)
	default:
		dts := []string{"", XSDInteger, XSDDouble, XSDGYear}
		term := NewTypedLiteral(value, dts[dt%4])
		if lang && term.Datatype == "" {
			term.Lang = "en"
		}
		return term
	}
}

func randString(rng *rand.Rand) string {
	const alpha = "abcdefgh0123"
	n := rng.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(b)
}

// dictModel is the trivially correct dictionary the base+tail Dict is
// checked against: a map and the terms in first-intern order.
type dictModel struct {
	ids   map[Term]ID
	terms []Term
}

func (m *dictModel) intern(t Term) ID {
	if id, ok := m.ids[t]; ok {
		return id
	}
	m.terms = append(m.terms, t)
	m.ids[t] = ID(len(m.terms))
	return ID(len(m.terms))
}

// anyTerm draws IRIs, blank nodes, typed and language-tagged literals, with
// empty strings wherever a term allows them.
func anyTerm(rng *rand.Rand) Term {
	s := randString(rng)
	switch rng.Intn(5) {
	case 0:
		return NewIRI(s)
	case 1:
		return NewBlank(s)
	case 2:
		return NewTypedLiteral(s, []string{"", XSDInteger, XSDGYear}[rng.Intn(3)])
	case 3:
		return NewLangLiteral(s, []string{"", "en", "fr-CA"}[rng.Intn(3)])
	default:
		return NewLiteral(s)
	}
}

// openedDict interns terms into a fresh Dict and opens its serialized form,
// so every one of them lands in the base.
func openedDict(t testing.TB, terms []Term) *Dict {
	t.Helper()
	fresh := NewDict()
	for _, term := range terms {
		fresh.Intern(term)
	}
	var buf bytes.Buffer
	if _, err := fresh.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d, n, err := OpenDict(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Fatalf("OpenDict consumed %d of %d bytes", n, buf.Len())
	}
	return d
}

// checkAgainstModel compares every ID, term and the EachTerm order of d with
// the model.
func checkAgainstModel(t *testing.T, d *Dict, m *dictModel) {
	t.Helper()
	if d.Len() != len(m.terms) {
		t.Fatalf("Len = %d, model has %d", d.Len(), len(m.terms))
	}
	for i, want := range m.terms {
		id := ID(i + 1)
		if got := d.Term(id); got != want {
			t.Fatalf("Term(%d) = %#v, want %#v", id, got, want)
		}
		if got, ok := d.Lookup(want); !ok || got != id {
			t.Fatalf("Lookup(%#v) = %d,%v, want %d", want, got, ok, id)
		}
	}
	next := ID(1)
	d.EachTerm(func(id ID, term Term) bool {
		if id != next || term != m.terms[id-1] {
			t.Fatalf("EachTerm gave (%d, %#v) at position %d", id, term, next)
		}
		next++
		return true
	})
	if int(next) != len(m.terms)+1 {
		t.Fatalf("EachTerm visited %d terms, want %d", next-1, len(m.terms))
	}
}

// TestDictBaseTailDifferential checks a Dict opened from its serialized form
// and then grown by Intern against the map model: IDs, terms, absent
// lookups, EachTerm order and re-serialization.
func TestDictBaseTailDifferential(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &dictModel{ids: make(map[Term]ID)}
		var drawn []Term
		for i := 0; i < 300; i++ {
			term := anyTerm(rng)
			drawn = append(drawn, term)
			m.intern(term)
		}
		d := openedDict(t, drawn)
		checkAgainstModel(t, d, m)

		// Interning after open: repeats resolve to base IDs, new terms
		// extend the tail with the next dense IDs.
		for i := 0; i < 300; i++ {
			term := anyTerm(rng)
			if got, want := d.Intern(term), m.intern(term); got != want {
				t.Fatalf("seed %d: Intern(%#v) = %d, model %d", seed, term, got, want)
			}
		}
		checkAgainstModel(t, d, m)
		for i := 0; i < 100; i++ {
			absent := NewIRI("absent:" + randString(rng))
			if _, ok := m.ids[absent]; ok {
				continue
			}
			if id, ok := d.Lookup(absent); ok {
				t.Fatalf("seed %d: Lookup of absent %#v = %d", seed, absent, id)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("seed %d: Term past the tail did not panic", seed)
				}
			}()
			d.Term(ID(d.Len() + 1))
		}()

		// Base and tail serialize back to a dictionary that opens equal.
		checkAgainstModel(t, openedDict(t, m.terms), m)
	}
}

// TestDictConcurrentBaseAndTail resolves base IDs and looks up terms from
// several goroutines while others intern: run under -race, base reads take
// no lock and must not race with tail growth.
func TestDictConcurrentBaseAndTail(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var base []Term
	for i := 0; i < 500; i++ {
		base = append(base, anyTerm(rng))
	}
	d := openedDict(t, base)
	n := d.Len()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := ID(1 + (i*7+w)%n)
				if got, ok := d.Lookup(d.Term(id)); !ok || got != id {
					t.Errorf("base id %d round-tripped to %d,%v", id, got, ok)
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				term := NewLiteral(fmt.Sprintf("tail-%d", i%50))
				id := d.Intern(term)
				if int(id) <= n || d.Term(id) != term {
					t.Errorf("tail intern of %#v gave id %d", term, id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if d.Len() != n+50 {
		t.Fatalf("Len = %d, want %d base + 50 tail", d.Len(), n)
	}
}

// TestDictBaseBudget pins the point of the base: resolving a base ID and
// looking up a base term allocate nothing.
func TestDictBaseBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var terms []Term
	for i := 0; i < 200; i++ {
		terms = append(terms, anyTerm(rng))
	}
	d := openedDict(t, terms)
	id := ID(d.Len() / 2)
	term := d.Term(id)
	var sink Term
	if allocs := testing.AllocsPerRun(100, func() { sink = d.Term(id) }); allocs != 0 {
		t.Errorf("Term on a base id: %.1f allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { d.Lookup(term) }); allocs != 0 {
		t.Errorf("Lookup of a base term: %.1f allocs, want 0", allocs)
	}
	_ = sink
}
