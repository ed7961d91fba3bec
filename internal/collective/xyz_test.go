package collective

import (
	"testing"

	"alltoall/internal/torus"
)

func TestXYZTarget(t *testing.T) {
	shape := torus.New(4, 4, 4)
	cur := torus.Coord{0, 0, 0}
	// Differs in all three dims: first hop fixes X.
	target, stage := xyzTarget(shape, cur, torus.Coord{2, 3, 1})
	if target != (torus.Coord{2, 0, 0}) || stage != kindXYZ1 {
		t.Errorf("stage1 = %v/%d", target, stage)
	}
	// X already matches: next fixes Y.
	target, stage = xyzTarget(shape, torus.Coord{2, 0, 0}, torus.Coord{2, 3, 1})
	if target != (torus.Coord{2, 3, 0}) || stage != kindXYZ2 {
		t.Errorf("stage2 = %v/%d", target, stage)
	}
	// Only Z differs.
	target, stage = xyzTarget(shape, torus.Coord{2, 3, 0}, torus.Coord{2, 3, 1})
	if target != (torus.Coord{2, 3, 1}) || stage != kindXYZ3 {
		t.Errorf("stage3 = %v/%d", target, stage)
	}
	// Arrived.
	if _, stage = xyzTarget(shape, torus.Coord{2, 3, 1}, torus.Coord{2, 3, 1}); stage != 0 {
		t.Errorf("arrived stage = %d", stage)
	}
}

func TestRunXYZDeliversEverything(t *testing.T) {
	shape := torus.New(4, 4, 2)
	res, err := RunXYZ(Options{Request: Request{Shape: shape, MsgBytes: 200, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	p := int64(shape.P())
	if res.PayloadBytes != p*(p-1)*200 {
		t.Errorf("payload = %d, want %d", res.PayloadBytes, p*(p-1)*200)
	}
	if res.Strategy != StratXYZ {
		t.Errorf("strategy = %q", res.Strategy)
	}
}

// The paper's Section 4.1 claim: TPS gains over the three-phase scheme from
// having only one forwarding phase. The extra software hop must show up as
// higher CPU load for XYZ on a genuinely 3D exchange.
func TestShapeXYZPaysMoreCPUThanTPS(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	shape := torus.New(8, 4, 4)
	xyz, err := RunXYZ(Options{Request: Request{Shape: shape, MsgBytes: 480, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tps, err := RunTPS(Options{Request: Request{Shape: shape, MsgBytes: 480, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// CPU work: XYZ pays recv+inject at two intermediates, TPS at one.
	xyzWork := xyz.MeanCPUUtil * float64(xyz.Time)
	tpsWork := tps.MeanCPUUtil * float64(tps.Time)
	if xyzWork <= tpsWork {
		t.Errorf("XYZ CPU work %.0f should exceed TPS %.0f (two forwarding phases vs one)",
			xyzWork, tpsWork)
	}
}

func TestXYZOnLine(t *testing.T) {
	// Degenerate 1D case: no forwarding at all, equivalent to direct.
	shape := torus.New(8, 1, 1)
	res, err := RunXYZ(Options{Request: Request{Shape: shape, MsgBytes: 100, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	p := int64(shape.P())
	if res.PayloadBytes != p*(p-1)*100 {
		t.Errorf("payload = %d", res.PayloadBytes)
	}
	if res.MaxIntermediateBacklog != 0 {
		t.Errorf("1D exchange forwarded %d packets; expected none", res.MaxIntermediateBacklog)
	}
}
