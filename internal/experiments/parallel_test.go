package experiments

import (
	"os"
	"strings"
	"sync"
	"testing"

	"alltoall/internal/collective"
	"alltoall/internal/report"
	"alltoall/internal/torus"
)

// rendering is one catalog entry run at the golden scale (tiny: 64 nodes,
// seed 1, 240-byte large messages) on one engine setting: the table, its
// ASCII text, and what the runs reported through Metrics and Progress.
type rendering struct {
	once     sync.Once
	tbl      *report.Table
	text     string
	metrics  Metrics
	progress strings.Builder
	err      error
}

// setting names a rendering: the entry, the worker pool and the engine count.
type setting struct {
	id              string
	workers, shards int
}

// renderings holds every setting the package has rendered. Each one runs
// once, by whichever test asks first, so the catalog is simulated once per
// setting however the tests are ordered.
var renderings struct {
	sync.Mutex
	m map[setting]*rendering
}

// render returns id rendered on workers workers with every run's engine
// count set to shards (0 leaves it to the engine).
func render(t *testing.T, id string, workers, shards int) *rendering {
	t.Helper()
	key := setting{id, workers, shards}
	renderings.Lock()
	if renderings.m == nil {
		renderings.m = make(map[setting]*rendering)
	}
	r := renderings.m[key]
	if r == nil {
		r = &rendering{}
		renderings.m[key] = r
	}
	renderings.Unlock()
	r.once.Do(func() {
		cfg := tiny()
		cfg.Workers, cfg.Shards = workers, shards
		cfg.Metrics, cfg.Progress = &r.metrics, &r.progress
		if r.tbl, r.err = Catalog[id](cfg); r.err == nil {
			var b strings.Builder
			r.err = r.tbl.Write(&b)
			r.text = b.String()
		}
	})
	if r.err != nil {
		t.Fatalf("%+v: %v", key, r.err)
	}
	return r
}

// golden returns cmd/aabench's catalog.golden by catalog id: the bytes one
// worker on one engine rendered, each table followed by a blank line.
func golden(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../../cmd/aabench/testdata/catalog.golden")
	if err != nil {
		t.Fatal(err)
	}
	tables := strings.SplitAfter(string(b), "\n\n")
	if len(tables) != len(Order)+1 || tables[len(Order)] != "" {
		t.Fatalf("catalog.golden holds %d tables, the catalog %d", len(tables)-1, len(Order))
	}
	m := make(map[string]string, len(Order))
	for i, id := range Order {
		m[id] = tables[i]
	}
	return m
}

// checkRenders compares the given entries, rendered on workers and shards,
// with their tables in the golden.
func checkRenders(t *testing.T, ids []string, workers, shards int) {
	t.Helper()
	want := golden(t)
	for _, id := range ids {
		if got := render(t, id, workers, shards).text + "\n"; got != want[id] {
			t.Errorf("%s at Workers=%d Shards=%d differs from the serial golden\n-- got --\n%s-- want --\n%s",
				id, workers, shards, got, want[id])
		}
	}
}

// TestSerialParallelIdentical is the engine's determinism regression test:
// every table and figure - one-cell rows, multi-run rows, the flattened
// error-tolerant ablation grid - rendered on 8 workers with the engine left
// to pick shards itself (one engine at 64 nodes, so what varies is the pool's
// order) must match the bytes one worker produced. TestTables, TestFigures,
// TestFigSweepModelColumns and TestMetricsAndProgress read these renders.
func TestSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	checkRenders(t, Order, 8, 0)
}

// TestShardedRenderIdentical is the sharded engine's end-to-end determinism
// test: rendered tables must be byte-identical whether each simulation runs
// on one engine (the golden) or on the window-parallel engine, at every
// shard count, with run-level workers on top.
func TestShardedRenderIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, shards := range []int{2, 4, 7} {
		checkRenders(t, []string{"table1", "table4"}, 2, shards)
	}
	checkRenders(t, Order, 2, 3)
}

// TestMetricsAndProgress checks the engine's observability side channels:
// metrics count every run, progress lines arrive once per cell, and a
// failing cell's error says which cell it was.
func TestMetricsAndProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := render(t, "table4", 8, 0)
	if got := r.metrics.Runs(); got != 10 {
		t.Errorf("Runs() = %d, want 10 (TPS and AR on each of Table 4's five rows)", got)
	}
	if r.metrics.Events() <= 0 || r.metrics.Packets() <= 0 {
		t.Errorf("Events() = %d, Packets() = %d; want positive",
			r.metrics.Events(), r.metrics.Packets())
	}
	progress := r.progress.String()
	if lines := strings.Count(progress, "\n"); lines != 10 {
		t.Errorf("progress lines = %d, want 10 (one per cell)\n%s", lines, progress)
	}
	if want := " AR 8x8x16 (run 2x2x4) m=1: "; !strings.Contains(progress, want) || !strings.Contains(progress, "  table4 10/10 ") {
		t.Errorf("progress lacks a line naming %q or the final count 10/10\n%s", want, progress)
	}
	// A nil Metrics must be safe everywhere.
	var nilM *Metrics
	nilM.note(collective.Result{})
	if nilM.Runs() != 0 || nilM.Events() != 0 || nilM.Packets() != 0 {
		t.Error("nil Metrics returned nonzero counts")
	}

	// The collective error alone ("bad fault spec") says nothing about the
	// row; the grid adds experiment, strategy, paper and run shape, and m.
	bad := cell{strat: collective.StratTPS, paper: torus.New(8, 8, 8),
		tune: func(o *collective.Options) error { o.Faults = "bogus"; return nil }}
	_, err := runGrid(tiny(), "table3", []row{{bad}})
	if want := "table3: TPS 8x8x8 (run 4x4x4) m=240: "; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a cell with an unparsable fault schedule: error %v, want one naming %q", err, want)
	}
}
