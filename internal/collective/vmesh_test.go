package collective

import (
	"testing"
	"testing/quick"

	"alltoall/internal/network"
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
	// One run: the last node opens its column leg before the run ends, and
	// the run's counters cover both legs.
	if len(res.PhaseTimes) != 2 || !(0 < res.PhaseTimes[0] && res.PhaseTimes[0] < res.PhaseTimes[1]) ||
		res.PhaseTimes[1] != res.Time {
		t.Errorf("phase times %v, want 0 < column start < Time = %d", res.PhaseTimes, res.Time)
	}
	if !(res.PhaseTimes[0] < res.LastInjectUnits && res.LastInjectUnits < res.Time) {
		t.Errorf("last injection at %d, want between the last column start %d and Time %d",
			res.LastInjectUnits, res.PhaseTimes[0], res.Time)
	}
	if !(0 < res.MeanLinkUtil && res.MeanLinkUtil <= res.MaxLinkUtil && res.MaxLinkUtil <= 1) {
		t.Errorf("link utilization mean %v max %v, want 0 < mean <= max <= 1", res.MeanLinkUtil, res.MaxLinkUtil)
	}
	if !(0 < res.MeanCPUUtil && res.MeanCPUUtil <= res.MaxCPUUtil && res.MaxCPUUtil <= 1) {
		t.Errorf("CPU utilization mean %v max %v, want 0 < mean <= max <= 1", res.MeanCPUUtil, res.MaxCPUUtil)
	}
}

// TestColumnGate drives one node's source by hand: once its row list is
// sent, the column leg waits; a column block and a partial row do not open
// it; the reception that completes the row does, on the next poll - before
// the retry the waiting source asked for.
func TestColumnGate(t *testing.T) {
	shape := torus.New(4, 2, 1)
	p := shape.P()
	rt := directRoute(shape, false)
	row, col := NewMsg(100, 48), NewMsg(600, 48)
	gate := &columnGate{dests: make([][]int32, p), msg: col, startup: 7, want: 2 * int64(row.Payload),
		got: make([]int64, p), opened: make([]int64, p)}
	gate.dests[0] = []int32{4}
	sc := schedule{route: rt, msg: row, burst: row.NPkts, startup: 5, list: true, column: gate}
	src := sc.sources(func(int) visitOrder { return destList{1, 2} })[0]
	h := &relay{route: rt, recv: make([]int64, p), gate: gate}
	deliver := func(from int32, g Msg, kind uint8) {
		h.OnDeliver(network.Delivered{Node: 0, Src: from, Aux: 0, Payload: int32(g.Payload), Kind: kind}, nil)
	}

	now := int64(0)
	for i := 0; i < 2*row.NPkts; i++ {
		if spec, status, _ := src.Next(now); status != network.SrcReady || spec.Kind != 0 {
			t.Fatalf("row packet %d: status %v kind %d, want a ready row-leg packet", i, status, spec.Kind)
		}
		now += 10
	}
	closed := func(when string) int64 {
		t.Helper()
		_, status, retry := src.Next(now)
		if status != network.SrcWait || retry <= now {
			t.Fatalf("%s: status %v, retry %d at t=%d, want a wait", when, status, retry, now)
		}
		return retry
	}
	closed("nothing received")
	deliver(4, col, 1)
	deliver(1, row, 0)
	now += 10
	retry := closed("a column block and half the row received")
	deliver(2, row, 0)
	now++ // the completing reception's CPU operation ends and re-polls
	if now >= retry {
		t.Fatalf("re-poll at %d not before the retry %d", now, retry)
	}
	for j := 0; j < col.NPkts; j++ {
		spec, status, _ := src.Next(now)
		if status != network.SrcReady || spec.Dst != 4 || spec.Kind != 1 || spec.Size != col.PktSize(j) {
			t.Fatalf("column packet %d: status %v %+v, want packet %d of the column message to 4 with Kind 1", j, status, spec, j)
		}
		if startup := spec.ExtraCPU; (j == 0) != (startup == 7) {
			t.Errorf("column packet %d charged %d, want the startup 7 on the first packet only", j, startup)
		}
	}
	if gate.opened[0] != now {
		t.Errorf("column leg opened at %d, want %d", gate.opened[0], now)
	}
	if _, status, _ := src.Next(now); status != network.SrcDone {
		t.Errorf("after the column list: status %v, want done", status)
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
