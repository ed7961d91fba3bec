package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alltoall/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenConfig pins every source of nondeterminism: one worker, the serial
// engine, a fixed seed, and partitions scaled to at most 16 nodes so the
// rendering test stays fast. Output is byte-identical at any worker or
// shard count (the engines guarantee it); the pinned values just make that
// assumption visible in the fixture name.
func goldenConfig() experiments.Config {
	return experiments.Config{MaxNodes: 16, Seed: 1, LargeBytes: 240, Workers: 1, Shards: 1}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/aabench -update` to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s rendering drifted from golden file (re-run with -update if intended)\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// TestGoldenTables locks down the ASCII table rendering end to end:
// experiment runner -> result rows -> report.Table -> Write. Any change to
// column layout, number formatting, or the simulated values themselves
// shows up as a golden diff.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, id := range []string{"table1", "table4"} {
		t.Run(id, func(t *testing.T) {
			tbl, err := experiments.Catalog[id](goldenConfig())
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			var b strings.Builder
			if err := tbl.Write(&b); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, id+".golden", []byte(b.String()))
		})
	}
}

// catalogConfig is the scale at which the whole catalog is pinned: 64 nodes
// is the smallest budget every experiment can run at (degrade needs eight
// independent torus rings, which a 16-node partition does not have), and
// `-exp all` at this scale takes about two seconds.
func catalogConfig() experiments.Config {
	return experiments.Config{MaxNodes: 64, Seed: 1, LargeBytes: 240, Workers: 1, Shards: 1}
}

// TestGoldenCatalog pins every table and figure of the catalog in one file,
// in the form `aabench -exp all -quiet` prints them with the timing footers
// filtered out (each table followed by a blank line), so CI can diff the real
// binary's output against the same bytes.
func TestGoldenCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	var b strings.Builder
	for _, id := range experiments.Order {
		tbl, err := experiments.Catalog[id](catalogConfig())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := tbl.Write(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteString("\n")
	}
	checkGolden(t, "catalog.golden", []byte(b.String()))
}

// TestGoldenCSV locks down the CSV emitter on the same experiment, so both
// output paths of -exp are pinned.
func TestGoldenCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tbl, err := experiments.Catalog["table1"](goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tbl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1.csv.golden", []byte(b.String()))
}

// TestGoldenTraceJSONL pins the -trace-out JSONL stream end to end: a seeded
// deterministic experiment run through a TraceSink, with per-run observation
// summaries and window traces. Locks both the record schema (schema_version,
// record kinds) and the simulated byte counts themselves.
func TestGoldenTraceJSONL(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := goldenConfig()
	cfg.Trace = experiments.NewTraceSink(true)
	if _, err := experiments.Catalog["table1"](cfg); err != nil {
		t.Fatalf("table1: %v", err)
	}
	var b strings.Builder
	if err := cfg.Trace.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1.trace.golden", []byte(b.String()))
}

// TestGoldenCheckedIdentical asserts the invariant checker is observation-
// free: running the same experiment with Config.Check enabled must render
// byte-identical tables (the checker may only read the simulation state,
// never perturb it).
func TestGoldenCheckedIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := goldenConfig()
	cfg.Check = true
	tbl, err := experiments.Catalog["table1"](cfg)
	if err != nil {
		t.Fatalf("checked table1: %v", err)
	}
	var b strings.Builder
	if err := tbl.Write(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1.golden", []byte(b.String()))
}
