package experiments

import (
	"math"
	"strings"
	"testing"

	"alltoall/internal/collective"
	"alltoall/internal/torus"
)

// tiny scales every experiment down to at most 64 nodes so the whole
// catalog can run in a unit test.
func tiny() Config {
	return Config{MaxNodes: 64, Seed: 1, LargeBytes: 240}
}

func TestCatalogComplete(t *testing.T) {
	if len(Catalog) != len(Order) {
		t.Fatalf("catalog has %d entries, order lists %d", len(Catalog), len(Order))
	}
	for _, id := range Order {
		if Catalog[id] == nil {
			t.Errorf("missing runner for %q", id)
		}
	}
}

func TestScale(t *testing.T) {
	cfg := Config{MaxNodes: 1024}
	s := cfg.scale(torus.New(40, 32, 16))
	if s.P() > 1024 {
		t.Errorf("scaled to %v (%d nodes)", s, s.P())
	}
	// Aspect ratio preserved: X remains the longest dimension with the
	// same 2.5:2:1 proportions.
	if float64(s.Size[0])/float64(s.Size[2]) != 2.5 {
		t.Errorf("aspect ratio lost: %v", s)
	}
	// Small partitions pass through untouched.
	small := torus.New(8, 8, 8)
	if got := cfg.scale(small); got != small {
		t.Errorf("8x8x8 was scaled to %v", got)
	}
	// No node budget (aabench -full) never scales.
	full, big := Config{MaxNodes: math.MaxInt}, torus.New(40, 32, 16)
	if got := full.scale(big); got != big {
		t.Errorf("unbounded config scaled %v to %v", big, got)
	}
}

func TestScaleKeepsMeshFlags(t *testing.T) {
	cfg := Config{MaxNodes: 64}
	s := cfg.scale(torus.NewMesh(16, 16, 8, true, true, false))
	if s.Wrap[2] {
		t.Errorf("mesh dimension became a torus: %+v", s)
	}
}

func TestLargeFor(t *testing.T) {
	cfg := Config{}
	if got := cfg.largeFor(torus.New(4, 4, 4)); got != 2000 {
		t.Errorf("largeFor(64) = %d", got)
	}
	if got := cfg.largeFor(torus.New(16, 8, 8)); got != 464 {
		t.Errorf("largeFor(1024) = %d", got)
	}
	cfg.LargeBytes = 99
	if got := cfg.largeFor(torus.New(4, 4, 4)); got != 99 {
		t.Errorf("override ignored: %d", got)
	}
}

// TestTables and TestFigures: every paper table and figure has rows. They
// read TestSerialParallelIdentical's renders, whose bytes the golden pins.
func TestTables(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, id := range []string{"table1", "table2", "table3", "table4"} {
		if render(t, id, 8, 0).tbl.NumRows() == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

func TestFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, id := range []string{"fig3", "fig4", "fig6", "fig7"} {
		if render(t, id, 8, 0).tbl.NumRows() == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

// TestFigSweepModelColumns: Figure 1's CSV carries the model columns beside
// the measured one.
func TestFigSweepModelColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	var b strings.Builder
	if err := render(t, "fig1", 8, 0).tbl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	hdr := strings.SplitN(b.String(), "\n", 2)[0]
	for _, col := range []string{"MsgBytes", "AR MB/s", "Eq3 MB/s", "Peak MB/s"} {
		if !strings.Contains(hdr, col) {
			t.Errorf("fig1 header %q missing column %q", hdr, col)
		}
	}
}

func TestMessageSizes(t *testing.T) {
	got := messageSizes(8, 64)
	want := []int{8, 16, 32, 64}
	if len(got) != len(want) {
		t.Fatalf("sizes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", got, want)
		}
	}
	if s := messageSizes(5, 5); len(s) != 1 || s[0] != 5 {
		t.Errorf("degenerate sweep = %v", s)
	}
	if s := messageSizes(0, 2); s[0] != 1 {
		t.Errorf("lo clamp failed: %v", s)
	}
	if s := messageSizes(8, 100); s[len(s)-1] != 100 {
		t.Errorf("hi endpoint missing: %v", s)
	}
}

// TestCollapsedCell pins the one tolerated failure: a cell whose tune sets
// its own time budget (the ablations) is cut off there and comes back as
// collapsed; any other error fails the grid.
func TestCollapsedCell(t *testing.T) {
	c := cell{strat: collective.StratAR, paper: torus.New(4, 1, 1), msg: 8,
		tune: func(o *collective.Options) error { o.MaxTime = 1; return nil }}
	var progress strings.Builder
	outs, err := runGrid(Config{Progress: &progress}, "x", []cell{c})
	if err != nil || len(outs) != 1 || !outs[0].collapsed {
		t.Fatalf("budgeted cell: outcomes %+v, err %v; want one collapsed outcome", outs, err)
	}
	if want := "  x 1/1 AR 4 m=8: collapsed ("; !strings.HasPrefix(progress.String(), want) {
		t.Errorf("progress %q, want prefix %q", progress.String(), want)
	}
	c.tune = func(o *collective.Options) error { o.Faults = "bogus"; return nil }
	if _, err := runGrid(Config{}, "x", []cell{c}); err == nil {
		t.Error("a cell with an unparsable fault schedule did not fail the grid")
	}
}
