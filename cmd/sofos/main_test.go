package main

import (
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatalf("run(%v): %v\noutput:\n%s", args, err, b.String())
	}
	return b.String()
}

func TestUsageAndHelp(t *testing.T) {
	out := runCmd(t)
	if !strings.Contains(out, "usage: sofos") {
		t.Errorf("no-args output:\n%s", out)
	}
	out = runCmd(t, "help")
	if !strings.Contains(out, "lattice") {
		t.Errorf("help output:\n%s", out)
	}
}

func TestUnknownCommand(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"frobnicate"}, &b); err == nil {
		t.Error("unknown command accepted")
	}
}

func TestLatticeCommand(t *testing.T) {
	out := runCmd(t, "lattice", "-dataset", "lubm", "-scale", "1")
	for _, want := range []string{"Full lattice", "apex", "univ+dept+rank", "materializing the full lattice"} {
		if !strings.Contains(out, want) {
			t.Errorf("lattice output missing %q:\n%s", want, out)
		}
	}
}

func TestInspectCommand(t *testing.T) {
	out := runCmd(t, "inspect", "-dataset", "lubm", "-scale", "1", "-view", "rank", "-limit", "5")
	if !strings.Contains(out, "view lubm-pubs[rank]") || !strings.Contains(out, "FullProfessor") {
		t.Errorf("inspect output:\n%s", out)
	}
	// Apex inspection.
	out = runCmd(t, "inspect", "-dataset", "lubm", "-scale", "1", "-view", "apex")
	if !strings.Contains(out, "apex") {
		t.Errorf("apex inspect output:\n%s", out)
	}
	// Unknown dimension fails.
	var b strings.Builder
	if err := run([]string{"inspect", "-dataset", "lubm", "-scale", "1", "-view", "nope"}, &b); err == nil {
		t.Error("unknown view accepted")
	}
}

func TestSelectCommand(t *testing.T) {
	out := runCmd(t, "select", "-dataset", "lubm", "-scale", "1", "-model", "aggvalues", "-k", "2")
	if !strings.Contains(out, "selected") || !strings.Contains(out, "amplification") {
		t.Errorf("select output:\n%s", out)
	}
	// Memory budget variant.
	out = runCmd(t, "select", "-dataset", "lubm", "-scale", "1", "-model", "nodes", "-memory", "4096")
	if !strings.Contains(out, "selected") {
		t.Errorf("select -memory output:\n%s", out)
	}
	// Unknown model fails.
	var b strings.Builder
	if err := run([]string{"select", "-dataset", "lubm", "-scale", "1", "-model", "psychic"}, &b); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestCompareCommand(t *testing.T) {
	out := runCmd(t, "compare", "-dataset", "lubm", "-scale", "1", "-k", "2", "-workload", "6")
	for _, want := range []string{"no-views", "random", "triples", "aggvalues", "nodes", "full-lattice"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeCommand(t *testing.T) {
	out := runCmd(t, "analyze", "-dataset", "lubm", "-scale", "1", "-k", "2", "-workload", "5")
	if !strings.Contains(out, "Q00") || !strings.Contains(out, "t(base)") {
		t.Errorf("analyze output:\n%s", out)
	}
}

func TestWorkloadAndReplayCommands(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/wl.sparql"
	out := runCmd(t, "workload", "-dataset", "lubm", "-scale", "1", "-n", "8", "-out", path)
	if !strings.Contains(out, "wrote 8 queries") {
		t.Fatalf("workload output: %s", out)
	}
	out = runCmd(t, "replay", "-dataset", "lubm", "-scale", "1", "-k", "3", "-queries", path, "-clients", "2", "-workers", "2")
	if !strings.Contains(out, "replayed 8 queries") || !strings.Contains(out, "2 clients, 2 workers/query") || !strings.Contains(out, "hit rate") {
		t.Errorf("replay output: %s", out)
	}
	// Workload to stdout.
	out = runCmd(t, "workload", "-dataset", "lubm", "-scale", "1", "-n", "2")
	if !strings.Contains(out, "SELECT") {
		t.Errorf("stdout workload: %s", out)
	}
	// Replay without -queries fails.
	var b strings.Builder
	if err := run([]string{"replay", "-dataset", "lubm"}, &b); err == nil {
		t.Error("replay without file accepted")
	}
}

func TestQueryCommand(t *testing.T) {
	// Default query: the facet template at k high enough for full coverage.
	out := runCmd(t, "query", "-dataset", "lubm", "-scale", "1", "-k", "8", "-limit", "3")
	if !strings.Contains(out, "answered via") {
		t.Errorf("query output:\n%s", out)
	}
	// Explicit query answered from a view.
	q := `PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT ?rank (COUNT(?pub) AS ?pubs) WHERE {
  ?prof ub:worksFor ?dept .
  ?dept ub:subOrganizationOf ?univ .
  ?prof ub:rank ?rank .
  ?pub ub:publicationAuthor ?prof .
} GROUP BY ?rank`
	out = runCmd(t, "query", "-dataset", "lubm", "-scale", "1", "-k", "8", "-q", q)
	if !strings.Contains(out, "rewritten query") {
		t.Errorf("query did not use a view:\n%s", out)
	}
	// Invalid query fails cleanly.
	var b strings.Builder
	if err := run([]string{"query", "-dataset", "lubm", "-scale", "1", "-q", "garbage"}, &b); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestSnapshotDumpRestore(t *testing.T) {
	dir := t.TempDir()
	out := runCmd(t, "snapshot", "-dataset", "lubm", "-scale", "1", "-k", "2", "-out", dir)
	for _, want := range []string{"wrote checkpoint 1", "2 views", "sofos-serve -dataset lubm"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump output missing %q:\n%s", want, out)
		}
	}
	out = runCmd(t, "snapshot", "-in", dir)
	for _, want := range []string{"restored lubm scale 1", "wal replay: 0 batches", "materialized views"} {
		if !strings.Contains(out, want) {
			t.Errorf("restore output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotFlagValidation(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"snapshot"}, &b); err == nil {
		t.Error("snapshot without -in/-out accepted")
	}
	if err := run([]string{"snapshot", "-in", "x", "-out", "y"}, &b); err == nil {
		t.Error("snapshot with both -in and -out accepted")
	}
	if err := run([]string{"snapshot", "-in", t.TempDir()}, &b); err == nil {
		t.Error("restore from an empty dir accepted")
	}
	if err := run([]string{"snapshot", "-in", t.TempDir(), "-storage", "mmap"}, &b); err == nil {
		t.Error("-storage accepted")
	}
}

func TestSnapshotDumpRefusesMismatchedDir(t *testing.T) {
	dir := t.TempDir()
	runCmd(t, "snapshot", "-dataset", "lubm", "-scale", "1", "-k", "0", "-out", dir)
	var b strings.Builder
	if err := run([]string{"snapshot", "-dataset", "swdf", "-scale", "3", "-k", "0", "-out", dir}, &b); err == nil {
		t.Error("overwriting another dataset's data dir accepted")
	}
	// Re-dumping the same identity is fine (supersedes in place).
	runCmd(t, "snapshot", "-dataset", "lubm", "-scale", "1", "-k", "0", "-out", dir)
}
