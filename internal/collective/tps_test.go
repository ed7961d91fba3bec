package collective

import (
	"testing"

	"alltoall/internal/network"
	"alltoall/internal/torus"
)

func TestSelectTPSLinearDim(t *testing.T) {
	cases := []struct {
		shape torus.Shape
		want  torus.Dim
	}{
		// Paper Table 3 choices (8x8x8 is degenerate: any dimension works;
		// the paper picked Z, this implementation picks X - documented).
		{torus.New(16, 8, 8), torus.X},
		{torus.New(8, 16, 8), torus.Y},
		{torus.New(8, 8, 16), torus.Z},
		{torus.New(16, 16, 8), torus.Z},
		{torus.New(16, 8, 16), torus.Y},
		{torus.New(8, 16, 16), torus.X},
		{torus.New(8, 32, 16), torus.Y},
		{torus.New(16, 16, 16), torus.X},
		{torus.New(16, 32, 16), torus.Y},
		{torus.New(32, 16, 16), torus.X},
		{torus.New(32, 32, 16), torus.Z},
		{torus.New(40, 32, 16), torus.X},
	}
	for _, c := range cases {
		if got := SelectTPSLinearDim(c.shape); got != c.want {
			t.Errorf("%v: linear dim = %v, want %v", c.shape, got, c.want)
		}
	}
}

func TestSelectTPSLinearDimSkipsUnitDims(t *testing.T) {
	// On a plane the unit dimension must never be chosen.
	if got := SelectTPSLinearDim(torus.New(8, 16, 1)); got == torus.Z {
		t.Errorf("unit dimension chosen as linear")
	}
}

func TestRunTPSDeliversEverything(t *testing.T) {
	shape := torus.New(8, 4, 2)
	res, err := run(StratTPS, Options{Request: Request{Shape: shape, MsgBytes: 200, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	p := int64(shape.P())
	if res.PayloadBytes != p*(p-1)*200 {
		t.Errorf("payload = %d, want %d", res.PayloadBytes, p*(p-1)*200)
	}
	if res.TPSLinearDim.Dim() != torus.X {
		t.Errorf("linear dim = %v, want X (planar 4x2... longest)", res.TPSLinearDim)
	}
}

func TestRunTPSForcedLinearDim(t *testing.T) {
	shape := torus.New(8, 4, 2)
	res, err := run(StratTPS, Options{Request: Request{Shape: shape, MsgBytes: 64, Seed: 5, TPSLinear: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TPSLinearDim.Dim() != torus.Y {
		t.Errorf("forced linear dim not honoured: %v", res.TPSLinearDim)
	}
	if _, err := run(StratTPS, Options{Request: Request{Shape: shape, MsgBytes: 64, TPSLinear: 9}}); err == nil {
		t.Error("invalid forced dimension accepted")
	}
}

// TestTPSPhase1PacketsStayOnLinearDim verifies the core TPS invariant: a
// phase-1 packet's route touches only the linear dimension, a phase-2
// packet's route only the planar dimensions.
func TestTPSPhase1PacketsStayOnLinearDim(t *testing.T) {
	shape := torus.New(8, 4, 2)
	src := &burstSource{
		schedule: schedule{route: tpsRoute(shape, torus.X), msg: NewMsg(100, 48), burst: 1},
		self:     13,
		order:    torus.NewDestOrder(shape.P(), 13, 9),
	}
	self := shape.Coords(13)
	n := 0
	for {
		spec, st, _ := src.Next(0)
		if st == network.SrcDone {
			break
		}
		n++
		dc := shape.Coords(int(spec.Dst))
		fc := shape.Coords(int(spec.Aux))
		switch spec.Kind {
		case 0:
			if dc[torus.Y] != self[torus.Y] || dc[torus.Z] != self[torus.Z] {
				t.Fatalf("phase-1 packet to %v leaves the X line of %v", dc, self)
			}
			if spec.Class%2 != 0 {
				t.Fatalf("phase-1 packet on odd (phase-2) injection class %d", spec.Class)
			}
			if fc[torus.X] != dc[torus.X] {
				t.Fatalf("intermediate %v does not share linear coord with final %v", dc, fc)
			}
		case 1:
			if spec.Dst != spec.Aux {
				t.Fatalf("direct phase-2 packet to %v is not addressed to its final %v", dc, fc)
			}
			if dc[torus.X] != self[torus.X] {
				t.Fatalf("direct phase-2 packet to %v leaves the YZ plane of %v", dc, self)
			}
			if spec.Class%2 != 1 {
				t.Fatalf("phase-2 packet on even (phase-1) injection class %d", spec.Class)
			}
		default:
			t.Fatalf("unexpected kind %d", spec.Kind)
		}
	}
	if n != shape.P()-1 {
		t.Fatalf("emitted %d packets, want %d", n, shape.P()-1)
	}
}

func TestTPSOnPlane(t *testing.T) {
	// TPS degenerates gracefully on a 2D partition.
	shape := torus.New(8, 4, 1)
	res, err := run(StratTPS, Options{Request: Request{Shape: shape, MsgBytes: 100, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	p := int64(shape.P())
	if res.PayloadBytes != p*(p-1)*100 {
		t.Errorf("payload = %d", res.PayloadBytes)
	}
}
