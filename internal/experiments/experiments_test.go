package experiments

import (
	"strings"
	"testing"

	"sofos/internal/core"
	"sofos/internal/cost"
)

// smallEnv builds a fast environment for experiment smoke tests.
func smallEnv(t testing.TB, dataset string, scale int) *Env {
	t.Helper()
	env, err := NewEnvWithOptions(dataset, scale, 3, 8, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnv(t *testing.T) {
	env := smallEnv(t, "dbpedia", 10)
	if env.System == nil || env.Workload == nil || len(env.Workload.Queries) != 8 {
		t.Fatalf("env = %+v", env)
	}
	if _, err := NewEnvWithOptions("nope", 1, 1, 1, core.Options{}); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestE1FullLattice(t *testing.T) {
	envs := []*Env{smallEnv(t, "lubm", 1), smallEnv(t, "dbpedia", 8)}
	tbl, err := E1FullLattice(envs)
	if err != nil {
		t.Fatal(err)
	}
	text := tbl.String()
	if !strings.Contains(text, "lubm") || !strings.Contains(text, "dbpedia") {
		t.Errorf("table:\n%s", text)
	}
	// lubm: 3 dims -> levels 0..3 plus ALL row; dbpedia: 4 dims -> 0..4 + ALL.
	if len(tbl.Rows) != 4+1+5+1 {
		t.Errorf("rows = %d:\n%s", len(tbl.Rows), text)
	}
}

func TestE2CostModels(t *testing.T) {
	env := smallEnv(t, "dbpedia", 8)
	tbl, err := E2CostModels(env, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := tbl.String()
	for _, want := range []string{"no-views", "random", "triples", "aggvalues", "nodes", "full-lattice"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// 4 models + baseline + full-lattice.
	if len(tbl.Rows) != 6 {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
	// Catalog must be clean.
	if env.System.Catalog.AddedTriples() != 0 {
		t.Error("E2 left materialized views")
	}
}

func TestE3BudgetSweep(t *testing.T) {
	env := smallEnv(t, "lubm", 1)
	models, err := env.System.AnalyticModels(1)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := E3BudgetSweep(env, models[2:3], []int{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Errorf("rows = %d:\n%s", len(tbl.Rows), tbl)
	}
	if env.System.Catalog.AddedTriples() != 0 {
		t.Error("E3 left materialized views")
	}
}

func TestE4QueryAnalyzer(t *testing.T) {
	env := smallEnv(t, "lubm", 1)
	models, err := env.System.AnalyticModels(1)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := E4QueryAnalyzer(env, models[2], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(env.Workload.Queries) {
		t.Errorf("rows = %d, queries = %d", len(tbl.Rows), len(env.Workload.Queries))
	}
	text := tbl.String()
	if !strings.Contains(text, "Q00") {
		t.Errorf("table:\n%s", text)
	}
}

func TestE5CostFidelity(t *testing.T) {
	env := smallEnv(t, "lubm", 1)
	models, err := env.System.AnalyticModels(1)
	if err != nil {
		t.Fatal(err)
	}
	tbl, rhos, err := E5CostFidelity(env, models, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(models) {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
	for name, rho := range rhos {
		if rho < -1.01 || rho > 1.01 {
			t.Errorf("%s rho = %f out of range", name, rho)
		}
	}
	// The size-based models should rank views far better than random on
	// this structured workload.
	if rhos["aggvalues"] <= rhos["random"] && rhos["triples"] <= rhos["random"] {
		t.Logf("warning: analytic models did not beat random: %v", rhos)
	}
}

func TestE6LearnedTraining(t *testing.T) {
	env := smallEnv(t, "lubm", 1)
	tbl, res, err := E6LearnedTraining(env, cost.TrainConfig{ProbesPerView: 2, Seed: 4, Epochs: 80})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil {
		t.Fatal("no model")
	}
	text := tbl.String()
	if !strings.Contains(text, "final MSE") {
		t.Errorf("table:\n%s", text)
	}
}

func TestE7MemoryBudget(t *testing.T) {
	env := smallEnv(t, "lubm", 1)
	models, err := env.System.AnalyticModels(1)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := E7MemoryBudget(env, models[2], []int64{100, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
	if env.System.Catalog.AddedTriples() != 0 {
		t.Error("E7 left materialized views")
	}
}

func TestE8Challenge(t *testing.T) {
	env := smallEnv(t, "lubm", 1)
	models, err := env.System.AnalyticModels(1)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := E8Challenge(env, models, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	text := tbl.String()
	if !strings.Contains(text, "optimal") || !strings.Contains(text, "greedy/measured") {
		t.Errorf("table:\n%s", text)
	}
	// Regret is at least 1.00x for every strategy (optimal is optimal).
	for _, row := range tbl.Rows {
		regret := row[3]
		if regret < "1" {
			t.Errorf("regret %q below 1x in row %v", regret, row)
		}
	}
}

func TestE9WorkloadSkew(t *testing.T) {
	env := smallEnv(t, "lubm", 1)
	models, err := env.System.AnalyticModels(1)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := E9WorkloadSkew(env, models[2], 2, []float64{0.1, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Errorf("rows = %d:\n%s", len(tbl.Rows), tbl)
	}
	if env.System.Catalog.AddedTriples() != 0 {
		t.Error("E9 left materialized views")
	}
	// Higher filter probability produces at least as many filtered queries.
	if tbl.Rows[1][1] < tbl.Rows[0][1] {
		t.Errorf("skew did not increase filtered queries: %v", tbl.Rows)
	}
}

func TestE10EstimatedModel(t *testing.T) {
	env := smallEnv(t, "dbpedia", 8)
	tbl, err := E10EstimatedModel(env)
	if err != nil {
		t.Fatal(err)
	}
	text := tbl.String()
	for _, want := range []string{"statistics snapshot", "full lattice pass", "Spearman", "selection overlap"} {
		if !strings.Contains(text, want) {
			t.Errorf("E10 table missing %q:\n%s", want, text)
		}
	}
}

func TestDefaultEnvs(t *testing.T) {
	envs, err := defaultEnvs(2, 5, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 3 {
		t.Fatalf("envs = %d", len(envs))
	}
	names := []string{"lubm", "dbpedia", "swdf"}
	for i, e := range envs {
		if e.Dataset != names[i] {
			t.Errorf("env %d = %s", i, e.Dataset)
		}
	}
}
