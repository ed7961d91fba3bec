package experiments

import (
	"strings"
	"testing"

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
	if len(Names()) != len(Order) {
		t.Errorf("Names() = %v", Names())
	}
}

func TestScale(t *testing.T) {
	cfg := Config{MaxNodes: 1024}
	s, scaled := cfg.scale(torus.New(40, 32, 16))
	if !scaled {
		t.Fatal("20480 nodes not scaled")
	}
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
	got, scaled := cfg.scale(small)
	if scaled || got != small {
		t.Errorf("8x8x8 was scaled to %v", got)
	}
	// Full mode never scales.
	full := Config{Full: true}
	if _, scaled := full.scale(torus.New(40, 32, 16)); scaled {
		t.Error("Full config scaled a partition")
	}
}

func TestScaleKeepsMeshFlags(t *testing.T) {
	cfg := Config{MaxNodes: 64}
	s, _ := cfg.scale(torus.NewMesh(16, 16, 8, true, true, false))
	if s.Wrap[2] {
		t.Errorf("mesh dimension became a torus: %+v", s)
	}
}

func TestLargeFor(t *testing.T) {
	cfg := Config{}
	if got := cfg.largeFor(torus.New(4, 4, 4)); got != 1920 {
		t.Errorf("largeFor(64) = %d", got)
	}
	if got := cfg.largeFor(torus.New(16, 8, 8)); got != 480 {
		t.Errorf("largeFor(1024) = %d", got)
	}
	cfg.LargeBytes = 99
	if got := cfg.largeFor(torus.New(4, 4, 4)); got != 99 {
		t.Errorf("override ignored: %d", got)
	}
}

func TestTables(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, id := range []string{"table1", "table2", "table3", "table4"} {
		tbl, err := Catalog[id](tiny())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if tbl.NumRows() == 0 {
			t.Errorf("%s produced no rows", id)
		}
		var b strings.Builder
		if err := tbl.Write(&b); err != nil {
			t.Errorf("%s render: %v", id, err)
		}
	}
}

func TestFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := tiny()
	for _, id := range []string{"fig3", "fig4", "fig6", "fig7"} {
		tbl, err := Catalog[id](cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if tbl.NumRows() == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

func TestFigSweepModelColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tbl, err := Fig1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tbl.WriteCSV(&b); err != nil {
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
