package store

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sofos/internal/rdf"
)

func TestSnapshotRoundTrip(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(41)), 500)
	addOne(g, rdf.Triple{S: iri("s"), P: iri("p"), O: rdf.NewLangLiteral("héllo", "fr")})
	addOne(g, rdf.Triple{S: rdf.NewBlank("b1"), P: iri("p"), O: rdf.NewInteger(-5)})

	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Len() != g.Len() {
		t.Fatalf("loaded %d triples, want %d", loaded.Len(), g.Len())
	}
	for _, tr := range g.Triples() {
		if !loaded.Contains(tr) {
			t.Fatalf("loaded graph missing %s", tr)
		}
	}
	// Index integrity on the loaded graph: estimates match matches.
	st := loaded.Snapshot()
	if st.Triples != g.Len() {
		t.Errorf("loaded stats = %+v", st)
	}
}

func TestSnapshotEmptyGraph(t *testing.T) {
	var buf bytes.Buffer
	if err := NewGraph().Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 0 {
		t.Errorf("len = %d", g.Len())
	}
}

func TestSnapshotRoundTripProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)), int(n))
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			return false
		}
		loaded, err := Load(&buf)
		if err != nil {
			return false
		}
		if loaded.Len() != g.Len() {
			return false
		}
		for _, tr := range g.Triples() {
			if !loaded.Contains(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"bad magic", "NOTSOFOS"},
		{"truncated after magic", "SOFOSGR3"},
		{"truncated terms", "SOFOSGR3\x01\x80\x08\x80\x04\x05"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tc.data)); err == nil {
				t.Error("corrupt snapshot accepted")
			}
		})
	}
}

// TestLoadRejectsRetiredFormats pins that v1 and v2 snapshots, which no
// longer load, fail with an error naming the format and the way out — from a
// stream and from a file.
func TestLoadRejectsRetiredFormats(t *testing.T) {
	for _, tc := range []struct{ magic, version string }{
		{retiredMagicV1, "v1"},
		{retiredMagicV2, "v2"},
	} {
		// A plausible body after the magic: one IRI term, then counts.
		data := tc.magic + "\x01\x00\x01x\x00\x00\x00"
		check := func(how string, err error) {
			t.Helper()
			if err == nil {
				t.Fatalf("%s %s snapshot loaded", how, tc.version)
			}
			for _, want := range []string{tc.version, tc.magic, "retired", "regenerate"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("%s %s: error %q does not mention %q", how, tc.version, err, want)
				}
			}
		}
		_, err := Load(strings.NewReader(data))
		check("Load", err)
		_, err = LoadFile(writeSnapshotFile(t, []byte(data)))
		check("LoadFile", err)
	}
}

func TestSnapshotPreservesTermDetails(t *testing.T) {
	g := NewGraph()
	terms := []rdf.Term{
		rdf.NewIRI("http://ex.org/a"),
		rdf.NewLangLiteral("bonjour", "fr-CA"),
		rdf.NewTypedLiteral("3.14", rdf.XSDDecimal),
		rdf.NewLiteral("with \"quotes\" and\nnewlines"),
	}
	for i, o := range terms {
		addOne(g, rdf.Triple{S: iri("s"), P: iri("p"), O: o})
		_ = i
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range terms {
		if !loaded.Contains(rdf.Triple{S: iri("s"), P: iri("p"), O: o}) {
			t.Errorf("term %s lost in round trip", o)
		}
	}
}
