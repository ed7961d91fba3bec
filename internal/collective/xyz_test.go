package collective

import (
	"testing"

	"alltoall/internal/torus"
)

func TestXYZTarget(t *testing.T) {
	shape := torus.New(4, 4, 4)
	rt := xyzRoute(shape)
	rank := func(x, y, z int) int32 { return int32(shape.Rank(torus.Coord{x, y, z})) }
	final := rank(2, 3, 1)
	// Differs in all three dims: first hop fixes X.
	if target, stage := rt.next(rank(0, 0, 0), final); target != rank(2, 0, 0) || stage != 0 {
		t.Errorf("stage1 = %v/%d", shape.Coords(int(target)), stage)
	}
	// X already matches: next fixes Y.
	if target, stage := rt.next(rank(2, 0, 0), final); target != rank(2, 3, 0) || stage != 1 {
		t.Errorf("stage2 = %v/%d", shape.Coords(int(target)), stage)
	}
	// Only Z differs.
	if target, stage := rt.next(rank(2, 3, 0), final); target != final || stage != 2 {
		t.Errorf("stage3 = %v/%d", shape.Coords(int(target)), stage)
	}
	// Arrived: nowhere further to go.
	if target, _ := rt.next(final, final); target != final {
		t.Errorf("arrived packet sent on to %v", shape.Coords(int(target)))
	}
}

func TestRunXYZDeliversEverything(t *testing.T) {
	shape := torus.New(4, 4, 2)
	res, err := run(StratXYZ, Options{Request: Request{Shape: shape, MsgBytes: 200, Seed: 5}})
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
	xyz, err := run(StratXYZ, Options{Request: Request{Shape: shape, MsgBytes: 480, Seed: 1, Shards: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tps, err := run(StratTPS, Options{Request: Request{Shape: shape, MsgBytes: 480, Seed: 1, Shards: 1}})
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
	res, err := run(StratXYZ, Options{Request: Request{Shape: shape, MsgBytes: 100, Seed: 2}})
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
