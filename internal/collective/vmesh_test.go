package collective

import (
	"testing"
	"testing/quick"

	"alltoall/internal/torus"
)

func TestBalancedFactor(t *testing.T) {
	cases := []struct{ p, a, b int }{
		{512, 32, 16},
		{4096, 64, 64},
		{64, 8, 8},
		{128, 16, 8},
		{32, 8, 4},
		{7, 7, 1},
	}
	for _, c := range cases {
		a, b := BalancedFactor(c.p)
		if a != c.a || b != c.b {
			t.Errorf("BalancedFactor(%d) = %dx%d, want %dx%d", c.p, a, b, c.a, c.b)
		}
	}
}

func TestBalancedFactorProperty(t *testing.T) {
	f := func(raw uint16) bool {
		p := int(raw%2000) + 1
		a, b := BalancedFactor(p)
		return a*b == p && a >= b && b >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVMeshMapBijective(t *testing.T) {
	shape := torus.New(4, 2, 8)
	vm := newVMeshMap(shape, [3]torus.Dim{torus.X, torus.Y, torus.Z})
	seen := make([]bool, shape.P())
	for vr := 0; vr < shape.P(); vr++ {
		phys := vm.physOf[vr]
		if seen[phys] {
			t.Fatalf("duplicate physical rank %d", phys)
		}
		seen[phys] = true
		if vm.virtOf[phys] != int32(vr) {
			t.Fatalf("virtOf(physOf(%d)) = %d", vr, vm.virtOf[phys])
		}
	}
}

func TestVMeshMapRowsAreHalfPlanes(t *testing.T) {
	// On an 8x8x8 torus with a 32-wide row, virtual rank r's row occupies
	// half an XY plane (the paper's 512-node mapping).
	shape := torus.New(8, 8, 8)
	vm := newVMeshMap(shape, [3]torus.Dim{torus.X, torus.Y, torus.Z})
	for i := 0; i < 32; i++ {
		c := shape.Coords(int(vm.physOf[i]))
		if c[torus.Z] != 0 || c[torus.Y] > 3 {
			t.Fatalf("row member %d at %v not in the lower half XY plane", i, c)
		}
	}
}

func TestRunVMeshDeliversEverything(t *testing.T) {
	shape := torus.New(4, 4, 2)
	res, err := run(StratVMesh, Options{Request: Request{Shape: shape, MsgBytes: 16, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	p := int64(shape.P())
	if res.PayloadBytes != p*(p-1)*16 {
		t.Errorf("payload = %d", res.PayloadBytes)
	}
	if res.VMeshCols*res.VMeshRows != int(p) {
		t.Errorf("factorization %dx%d", res.VMeshCols, res.VMeshRows)
	}
	if len(res.PhaseTimes) != 2 || res.PhaseTimes[0] <= 0 || res.PhaseTimes[1] <= 0 {
		t.Errorf("phase times %v", res.PhaseTimes)
	}
	if res.Time != res.PhaseTimes[0]+res.PhaseTimes[1] {
		t.Errorf("total %d != sum of phases %v", res.Time, res.PhaseTimes)
	}
	// Utilization is folded per link and per CPU over both phases: summing
	// the two phases' busiest links instead could exceed 1.
	if !(0 < res.MeanLinkUtil && res.MeanLinkUtil <= res.MaxLinkUtil && res.MaxLinkUtil <= 1) {
		t.Errorf("link utilization mean %v max %v, want 0 < mean <= max <= 1", res.MeanLinkUtil, res.MaxLinkUtil)
	}
	if !(0 < res.MeanCPUUtil && res.MeanCPUUtil <= res.MaxCPUUtil && res.MaxCPUUtil <= 1) {
		t.Errorf("CPU utilization mean %v max %v, want 0 < mean <= max <= 1", res.MeanCPUUtil, res.MaxCPUUtil)
	}
}

func TestRunVMeshForcedFactorization(t *testing.T) {
	shape := torus.New(4, 4, 2)
	res, err := run(StratVMesh, Options{Request: Request{Shape: shape, MsgBytes: 8, Seed: 3, VMeshCols: 8, VMeshRows: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.VMeshCols != 8 || res.VMeshRows != 4 {
		t.Errorf("factorization %dx%d, want 8x4", res.VMeshCols, res.VMeshRows)
	}
	if _, err := run(StratVMesh, Options{Request: Request{Shape: shape, MsgBytes: 8, VMeshCols: 5, VMeshRows: 5}}); err == nil {
		t.Error("non-covering factorization accepted")
	}
}

func TestVMeshBeatsARForTinyMessages(t *testing.T) {
	// The headline short-message result, at miniature scale: on a plane
	// with 1-byte messages, combining must beat the direct scheme.
	shape := torus.New(8, 8, 1)
	vm, err := run(StratVMesh, Options{Request: Request{Shape: shape, MsgBytes: 1, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ar, err := run(StratAR, Options{Request: Request{Shape: shape, MsgBytes: 1, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if vm.Time >= ar.Time {
		t.Errorf("VMesh %d should beat AR %d at m=1", vm.Time, ar.Time)
	}
}

func TestVMeshLosesForLargeMessages(t *testing.T) {
	shape := torus.New(8, 4, 1)
	vm, err := run(StratVMesh, Options{Request: Request{Shape: shape, MsgBytes: 2048, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ar, err := run(StratAR, Options{Request: Request{Shape: shape, MsgBytes: 2048, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if vm.Time <= ar.Time {
		t.Errorf("VMesh %d should lose to AR %d at m=2048 (double injection)", vm.Time, ar.Time)
	}
}

func TestVMeshMapOrderOption(t *testing.T) {
	shape := torus.New(4, 4, 2)
	res, err := run(StratVMesh, Options{Request: Request{Shape: shape, MsgBytes: 16, Seed: 3, VMeshMapOrder: "xzy"}})
	if err != nil {
		t.Fatal(err)
	}
	p := int64(shape.P())
	if res.PayloadBytes != p*(p-1)*16 {
		t.Errorf("payload = %d", res.PayloadBytes)
	}
	if _, err := run(StratVMesh, Options{Request: Request{Shape: shape, MsgBytes: 16, VMeshMapOrder: "xxy"}}); err == nil {
		t.Error("non-permutation map order accepted")
	}
}

func TestVMeshMapXZOrder(t *testing.T) {
	// With order X,Z,Y on an 8x8x8 torus, a 64-wide row is a full XZ plane.
	shape := torus.New(8, 8, 8)
	vm := newVMeshMap(shape, [3]torus.Dim{torus.X, torus.Z, torus.Y})
	for i := 0; i < 64; i++ {
		c := shape.Coords(int(vm.physOf[i]))
		if c[torus.Y] != 0 {
			t.Fatalf("row member %d at %v leaves the Y=0 XZ plane", i, c)
		}
	}
}
