package algebra

import (
	"testing"

	"sofos/internal/rdf"
	"sofos/internal/sparql"
)

func intVal(i int64) Value { return Bind(rdf.NewInteger(i)) }

// TestUnaddInvertsAdd: for every retractable accumulator, Add then Unadd of
// the same values restores the exact prior result.
func TestUnaddInvertsAdd(t *testing.T) {
	for _, agg := range []sparql.AggKind{sparql.AggCount, sparql.AggSum, sparql.AggAvg} {
		acc := NewAccumulator(item(agg, false))
		for _, v := range []int64{3, 7, 11} {
			acc.Add(intVal(v))
		}
		want := acc.Result()
		r, ok := acc.(Retractor)
		if !ok {
			t.Fatalf("%v accumulator does not implement Retractor", agg)
		}
		r.Add(intVal(100))
		r.Add(intVal(200))
		r.Unadd(intVal(200))
		r.Unadd(intVal(100))
		if got := r.Result(); got != want {
			t.Errorf("%v: Unadd did not invert Add: got %v, want %v", agg, got, want)
		}
	}
}

func TestUnaddToEmpty(t *testing.T) {
	// AVG retracted to zero inputs must report unbound, like a fresh
	// accumulator over an empty group.
	acc := NewAccumulator(item(sparql.AggAvg, false)).(Retractor)
	acc.Add(intVal(5))
	acc.Unadd(intVal(5))
	if got := acc.Result(); got.Bound {
		t.Errorf("AVG over retracted-to-empty group = %v, want unbound", got)
	}
	// COUNT retracted to zero is the bound integer 0.
	c := NewAccumulator(item(sparql.AggCount, false)).(Retractor)
	c.Add(intVal(1))
	c.Unadd(intVal(1))
	if got := c.Result(); !got.Bound || got.Term.Value != "0" {
		t.Errorf("COUNT retracted to empty = %v, want 0", got)
	}
}

// TestNonRetractableAccumulators: COUNT DISTINCT and MIN/MAX must report
// non-retractable by not implementing Retractor.
func TestNonRetractableAccumulators(t *testing.T) {
	cases := []struct {
		name string
		item sparql.SelectItem
		want bool
	}{
		{"COUNT", item(sparql.AggCount, false), true},
		{"COUNT DISTINCT", item(sparql.AggCount, true), false},
		{"SUM", item(sparql.AggSum, false), true},
		{"AVG", item(sparql.AggAvg, false), true},
		{"MIN", item(sparql.AggMin, false), false},
		{"MAX", item(sparql.AggMax, false), false},
	}
	for _, tc := range cases {
		_, isRetractor := NewAccumulator(tc.item).(Retractor)
		if isRetractor != tc.want {
			t.Errorf("%s accumulator Retractor implementation = %v, want %v", tc.name, isRetractor, tc.want)
		}
	}
}

func TestSumUnaddNonNumericPoisons(t *testing.T) {
	acc := NewAccumulator(item(sparql.AggSum, false)).(Retractor)
	acc.Add(intVal(5))
	acc.Unadd(Bind(rdf.NewLiteral("oops")))
	if got := acc.Result(); got.Bound {
		t.Errorf("retracting a non-numeric should poison the sum, got %v", got)
	}
}

func TestMergeDelta(t *testing.T) {
	ten, three := rdf.NewInteger(10), rdf.NewInteger(3)
	// Insert-side merges defer to MergeAggregates.
	got, err := MergeDelta(sparql.AggSum, ten, three, false)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := NumericValue(got); f != 13 {
		t.Errorf("SUM insert merge = %s, want 13", got)
	}
	got, err = MergeDelta(sparql.AggMin, ten, three, false)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := NumericValue(got); f != 3 {
		t.Errorf("MIN insert merge = %s, want 3", got)
	}
	// Retraction works for SUM and COUNT only.
	got, err = MergeDelta(sparql.AggSum, ten, three, true)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := NumericValue(got); f != 7 {
		t.Errorf("SUM retract merge = %s, want 7", got)
	}
	got, err = MergeDelta(sparql.AggCount, ten, three, true)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := NumericValue(got); f != 7 {
		t.Errorf("COUNT retract merge = %s, want 7", got)
	}
	if _, err := MergeDelta(sparql.AggMin, ten, three, true); !IsTypeError(err) {
		t.Errorf("MIN retraction error = %v, want type error", err)
	}
	if _, err := MergeDelta(sparql.AggAvg, ten, three, true); !IsTypeError(err) {
		t.Errorf("AVG retraction error = %v, want type error", err)
	}
}

func TestAggCompareExported(t *testing.T) {
	if AggCompare(rdf.NewInteger(3), rdf.NewInteger(5)) >= 0 {
		t.Error("AggCompare(3, 5) should be negative")
	}
	if AggCompare(rdf.NewInteger(5), rdf.NewInteger(5)) != 0 {
		t.Error("AggCompare(5, 5) should be zero")
	}
}
