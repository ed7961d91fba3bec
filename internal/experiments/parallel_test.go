package experiments

import (
	"os"
	"strings"
	"testing"

	"alltoall/internal/collective"
)

// render runs one catalog entry and returns the ASCII table.
func render(t *testing.T, id string, cfg Config) string {
	t.Helper()
	tbl, err := Catalog[id](cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var b strings.Builder
	if err := tbl.Write(&b); err != nil {
		t.Fatalf("%s render: %v", id, err)
	}
	return b.String()
}

// checkCatalog renders the whole catalog at the golden scale (tiny: 64
// nodes, seed 1, 240-byte large messages) on the given engine settings and
// compares it with cmd/aabench's catalog.golden, which was written by one
// worker on the serial engine: each table followed by a blank line.
func checkCatalog(t *testing.T, workers, shards int) {
	t.Helper()
	want, err := os.ReadFile("../../cmd/aabench/testdata/catalog.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tiny()
	cfg.Workers, cfg.Shards = workers, shards
	var got strings.Builder
	for _, id := range Order {
		got.WriteString(render(t, id, cfg) + "\n")
	}
	if got.String() != string(want) {
		t.Errorf("catalog at Workers=%d Shards=%d differs from the serial golden\n-- got --\n%s", workers, shards, got.String())
	}
}

// TestSerialParallelIdentical is the engine's determinism regression test:
// every table and figure - one-cell rows, multi-run rows, the flattened
// error-tolerant ablation grid - rendered on 8 workers with the engine left
// to pick shards itself must match the bytes one worker produced.
func TestSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	checkCatalog(t, 8, 0)
}

// TestShardedRenderIdentical is the sharded engine's end-to-end determinism
// test: rendered tables must be byte-identical whether each simulation runs
// on the serial engine or on the window-parallel engine, at every shard
// count, with and without run-level workers on top.
func TestShardedRenderIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, id := range []string{"table1", "table4"} {
		serial := tiny()
		serial.Workers = 1
		serial.Shards = 1
		want := render(t, id, serial)
		for _, shards := range []int{2, 4, 7} {
			cfg := tiny()
			cfg.Workers = 2
			cfg.Shards = shards
			if got := render(t, id, cfg); got != want {
				t.Errorf("%s: %d-shard table differs from serial\n-- serial --\n%s\n-- sharded --\n%s",
					id, shards, want, got)
			}
		}
	}
	checkCatalog(t, 2, 3)
}

// TestMetricsAndProgress checks the engine's observability side channels:
// metrics count every run, progress lines arrive once per cell, and a
// failing cell's error says which cell it was.
func TestMetricsAndProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	var buf strings.Builder
	cfg := tiny()
	cfg.Workers = 4
	cfg.Metrics = &Metrics{}
	cfg.Progress = &buf
	if _, err := Catalog["table4"](cfg); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Metrics.Runs(); got != 10 {
		t.Errorf("Runs() = %d, want 10 (TPS and AR on each of Table 4's five rows)", got)
	}
	if cfg.Metrics.Events() <= 0 || cfg.Metrics.Packets() <= 0 {
		t.Errorf("Events() = %d, Packets() = %d; want positive",
			cfg.Metrics.Events(), cfg.Metrics.Packets())
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 10 {
		t.Errorf("progress lines = %d, want 10 (one per cell)\n%s", lines, buf.String())
	}
	if want := " AR 8x8x16 (run 2x2x4) m=1: "; !strings.Contains(buf.String(), want) || !strings.Contains(buf.String(), "  table4 10/10 ") {
		t.Errorf("progress lacks a line naming %q or the final count 10/10\n%s", want, buf.String())
	}
	// A nil Metrics must be safe everywhere.
	var nilM *Metrics
	nilM.note(collective.Result{})
	if nilM.Runs() != 0 || nilM.Events() != 0 || nilM.Packets() != 0 {
		t.Error("nil Metrics returned nonzero counts")
	}

	// The collective error alone ("bad fault spec") says nothing about the
	// row; the grid adds experiment, strategy, paper and run shape, and m.
	bad := tiny()
	bad.Workers = 1
	bad.Faults = "bogus"
	_, err := Catalog["table3"](bad)
	if want := "table3: TPS 8x8x8 (run 4x4x4) m=240: "; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("table3 with an unparsable fault schedule: error %v, want one naming %q", err, want)
	}
}
