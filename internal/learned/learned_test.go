package learned

import (
	"math"
	"math/rand"
	"testing"

	"sofos/internal/facet"
	"sofos/internal/rdf"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

func TestNewMLPValidation(t *testing.T) {
	if _, err := NewMLP(0, []int{4}, 1); err == nil {
		t.Error("zero input dim accepted")
	}
	if _, err := NewMLP(3, []int{8, 4}, 1); err != nil {
		t.Fatal(err)
	}
}

func TestMLPPredictValidatesWidth(t *testing.T) {
	m, _ := NewMLP(2, []int{4}, 1)
	if _, err := m.Predict([]float64{1}); err == nil {
		t.Error("short input accepted")
	}
	if _, err := m.Predict([]float64{1, 2}); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
}

func TestMLPDeterministicInit(t *testing.T) {
	a, _ := NewMLP(4, []int{8}, 7)
	b, _ := NewMLP(4, []int{8}, 7)
	x := []float64{0.5, -1, 2, 0.1}
	pa, _ := a.Predict(x)
	pb, _ := b.Predict(x)
	if pa != pb {
		t.Errorf("same seed diverges: %v vs %v", pa, pb)
	}
	c, _ := NewMLP(4, []int{8}, 8)
	pc, _ := c.Predict(x)
	if pa == pc {
		t.Error("different seeds should (almost surely) differ")
	}
}

func TestMLPTrainValidation(t *testing.T) {
	m, _ := NewMLP(2, []int{4}, 1)
	if _, err := m.Train(nil, TrainConfig{Epochs: 1}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := m.Train([]Sample{{X: []float64{1}, Y: 0}}, TrainConfig{Epochs: 1}); err == nil {
		t.Error("mis-sized sample accepted")
	}
}

// TestMLPLearnsLinearFunction: the network must fit y = 2a - 3b + 1.
func TestMLPLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var samples []Sample
	for i := 0; i < 200; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		samples = append(samples, Sample{X: []float64{a, b}, Y: 2*a - 3*b + 1})
	}
	m, _ := NewMLP(2, []int{16, 8}, 3)
	curve, err := m.Train(samples, TrainConfig{Epochs: 300, LR: 0.01, Momentum: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if curve[len(curve)-1] > curve[0]/10 {
		t.Errorf("loss did not drop 10x: %v -> %v", curve[0], curve[len(curve)-1])
	}
	// Holdout accuracy.
	var sse float64
	for i := 0; i < 50; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		want := 2*a - 3*b + 1
		got, _ := m.Predict([]float64{a, b})
		sse += (got - want) * (got - want)
	}
	if rmse := math.Sqrt(sse / 50); rmse > 0.3 {
		t.Errorf("holdout RMSE = %v", rmse)
	}
}

// TestMLPLearnsNonlinear: |a| requires the hidden layer.
func TestMLPLearnsNonlinear(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var samples []Sample
	for i := 0; i < 300; i++ {
		a := rng.Float64()*4 - 2
		samples = append(samples, Sample{X: []float64{a}, Y: math.Abs(a)})
	}
	m, _ := NewMLP(1, []int{16, 8}, 2)
	curve, err := m.Train(samples, TrainConfig{Epochs: 400, LR: 0.01, Momentum: 0.9, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if curve[len(curve)-1] > 0.05 {
		t.Errorf("final loss = %v", curve[len(curve)-1])
	}
}

func TestNormalizer(t *testing.T) {
	samples := []Sample{
		{X: []float64{1, 100}, Y: 0},
		{X: []float64{3, 300}, Y: 0},
	}
	n := FitNormalizer(samples)
	norm := n.ApplyAll(samples)
	for col := 0; col < 2; col++ {
		sum := norm[0].X[col] + norm[1].X[col]
		if math.Abs(sum) > 1e-9 {
			t.Errorf("col %d not centered: %v", col, sum)
		}
	}
	// Constant columns get unit std to avoid division by zero.
	cSamples := []Sample{{X: []float64{5}, Y: 0}, {X: []float64{5}, Y: 0}}
	cn := FitNormalizer(cSamples)
	if cn.Std[0] != 1 {
		t.Errorf("constant column std = %v", cn.Std[0])
	}
	// Empty normalizer passes through.
	e := FitNormalizer(nil)
	x := []float64{1, 2}
	got := e.Apply(x)
	if &got[0] != &x[0] && (got[0] != 1 || got[1] != 2) {
		t.Error("empty normalizer mangled input")
	}
}

func TestLogMicrosRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1, 1000, 1e6} {
		if got := UnlogMicros(LogMicros(v)); math.Abs(got-v) > v*1e-9+1e-9 {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

// encFixture builds a small graph + facet for encoder tests.
func encFixture(t *testing.T) (*facet.Facet, *store.Stats) {
	t.Helper()
	var ts []rdf.Triple
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	for i := 0; i < 20; i++ {
		obs := ex("o" + string(rune('a'+i%5)) + string(rune('0'+i%3)))
		ts = append(ts,
			rdf.Triple{S: obs, P: ex("d1"), O: rdf.NewLiteral(string(rune('A' + i%5)))},
			rdf.Triple{S: obs, P: ex("d2"), O: rdf.NewInteger(int64(i % 3))},
			rdf.Triple{S: obs, P: ex("val"), O: rdf.NewInteger(int64(i))})
	}
	g, err := store.BuildFrom(ts)
	if err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT ?a ?b (SUM(?v) AS ?s) WHERE { ?o ex:d1 ?a . ?o ex:d2 ?b . ?o ex:val ?v . } GROUP BY ?a ?b`)
	f, err := facet.FromQuery("enc", q)
	if err != nil {
		t.Fatal(err)
	}
	return f, g.Snapshot()
}

func TestEncoderShape(t *testing.T) {
	f, stats := encFixture(t)
	e := NewEncoder(f, stats)
	for _, mask := range []facet.Mask{0, 1, 2, 3} {
		x := e.Encode(f.View(mask))
		if len(x) != e.Dim() {
			t.Fatalf("mask %b: %d features, want %d", mask, len(x), e.Dim())
		}
	}
}

func TestEncoderDistinguishesViews(t *testing.T) {
	f, stats := encFixture(t)
	e := NewEncoder(f, stats)
	a := e.Encode(f.View(1))
	b := e.Encode(f.View(2))
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different views encode identically")
	}
}

func TestEncoderMonotoneGroupEstimate(t *testing.T) {
	f, stats := encFixture(t)
	e := NewEncoder(f, stats)
	nd := len(f.Dims)
	// The estimated log group count feature (index nd+1) grows with mask.
	apex := e.Encode(f.View(0))[nd+1]
	one := e.Encode(f.View(1))[nd+1]
	full := e.Encode(f.View(3))[nd+1]
	if !(apex <= one && one <= full) {
		t.Errorf("group estimate not monotone: %v %v %v", apex, one, full)
	}
	if apex != 0 {
		t.Errorf("apex group estimate = %v, want 0", apex)
	}
}

func TestEncoderAggOneHot(t *testing.T) {
	f, stats := encFixture(t)
	e := NewEncoder(f, stats)
	x := e.Encode(f.View(1))
	nd := len(f.Dims)
	oneHot := x[nd+2 : nd+7]
	sum := 0.0
	for _, v := range oneHot {
		sum += v
	}
	if sum != 1 || oneHot[1] != 1 { // SUM is position 1
		t.Errorf("agg one-hot = %v", oneHot)
	}
}
