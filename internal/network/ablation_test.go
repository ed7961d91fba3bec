package network

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"alltoall/internal/torus"
)

// Ablation tests: each modeling mechanism in DESIGN.md section "Modeling
// decisions" must actually matter. These run a saturating shift workload
// (every node floods dist hops along a ring) and compare configurations.

func runShift(t *testing.T, par Params, dist, n int) int64 {
	t.Helper()
	shape := torus.New(8, 1, 1)
	srcs := make([]Source, 8)
	for i := 0; i < 8; i++ {
		srcs[i] = &pacedSource{spec: PacketSpec{Dst: int32((i + dist) % 8), Size: 256}, count: n}
	}
	// Spread across injection FIFOs like the collective layer does.
	for i := 0; i < 8; i++ {
		srcs[i].(*pacedSource).spec.Class = int8((i + dist) % 8 % 60)
	}
	nw, err := New(shape, par, srcs, countOnly{})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := nw.Run(1 << 42)
	if err != nil {
		t.Fatalf("dist=%d: %v", dist, err)
	}
	return fin
}

type countOnly struct{}

func (countOnly) OnDeliver(d Delivered, fw []PacketSpec) ([]PacketSpec, int64, bool) {
	return fw, 0, true
}

func TestAblationTransitPriorityMatters(t *testing.T) {
	base := DefaultParams()
	noPrio := base
	noPrio.InjectTokens = 0 // entrants stream like transit
	n := 400
	with := runShift(t, base, 3, n)
	without := runShift(t, noPrio, 3, n)
	if with >= without {
		t.Errorf("transit priority should speed the saturated ring: %d (with) vs %d (without)", with, without)
	}
}

func TestAblationEscapeDelayZeroStillLive(t *testing.T) {
	par := DefaultParams()
	par.EscapeDelay = 0
	_ = runShift(t, par, 3, 300) // must complete without deadlock
}

func TestAblationLookaheadHelpsOrNeutral(t *testing.T) {
	base := DefaultParams()
	la1 := base
	la1.VCLookahead = 1
	n := 400
	deep := runShift(t, base, 2, n)
	shallow := runShift(t, la1, 2, n)
	// Lookahead must never deadlock and should not be dramatically worse.
	if deep > shallow*2 {
		t.Errorf("lookahead regressed throughput badly: %d vs %d", deep, shallow)
	}
}

func TestDumpStateRenders(t *testing.T) {
	shape := torus.New(4, 1, 1)
	srcs := make([]Source, 4)
	srcs[0] = &listSource{specs: []PacketSpec{{Dst: 2, Size: 256}}}
	nw, err := New(shape, DefaultParams(), srcs, countOnly{})
	if err != nil {
		t.Fatal(err)
	}
	// Force a mid-flight stop (the packet is on the wire at t=70) and dump.
	if _, err := nw.Run(70); err == nil {
		t.Fatal("expected max-time stop")
	}
	var b strings.Builder
	nw.DumpState(&b)
	out := b.String()
	if !strings.Contains(out, "inFlight=1") {
		t.Errorf("dump missing in-flight packet: %q", out)
	}

	// On a mesh line node 0 has only its +x link: with packets queued behind
	// it, the header shows that link's busy time and a "-" for each absent
	// one, never the busy-forever value it is parked at.
	mesh := torus.NewMesh(4, 1, 1, false, false, false)
	srcs = make([]Source, 4)
	srcs[0] = &listSource{specs: []PacketSpec{{Dst: 3, Size: 256}, {Dst: 3, Size: 256}, {Dst: 2, Size: 256}, {Dst: 1, Size: 256}}}
	if nw, err = New(mesh, DefaultParams(), srcs, countOnly{}); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(800); err == nil {
		t.Fatal("expected max-time stop")
	}
	b.Reset()
	nw.DumpState(&b)
	out = b.String()
	if !regexp.MustCompile(`(?m)^  outBusy: \d+ - - - - -$`).MatchString(out) {
		t.Errorf("mesh dump does not show node 0's absent links as -: %q", out)
	}
	if strings.Contains(out, fmt.Sprint(maxInt64)) {
		t.Errorf("mesh dump prints the parked busy time: %q", out)
	}
}

func TestStatsUtilizationHelpers(t *testing.T) {
	var s Stats
	s.LinkBusy = []int64{100, 50, 0}
	if got := s.MaxLinkUtilization(200); got != 0.5 {
		t.Errorf("max util = %v", got)
	}
	if got := s.MeanLinkUtilization(100, 3); got != 0.5 {
		t.Errorf("mean util = %v", got)
	}
	if s.MaxLinkUtilization(0) != 0 || s.MeanLinkUtilization(0, 3) != 0 {
		t.Error("zero duration must not divide")
	}
	if s.MeanLatency() != 0 {
		t.Error("latency of nothing should be 0")
	}
}
