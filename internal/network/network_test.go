package network

import (
	"testing"

	"alltoall/internal/torus"
)

// listSource injects a fixed list of specs, one per CPU poll.
type listSource struct {
	specs []PacketSpec
	i     int
}

func (s *listSource) Next(now int64) (PacketSpec, SrcStatus, int64) {
	if s.i >= len(s.specs) {
		return PacketSpec{}, SrcDone, 0
	}
	sp := s.specs[s.i]
	s.i++
	return sp, SrcReady, 0
}

// pacedSource injects count packets spaced gap units apart.
type pacedSource struct {
	spec     PacketSpec
	count    int
	gap      int64
	nextTime int64
}

func (s *pacedSource) Next(now int64) (PacketSpec, SrcStatus, int64) {
	if s.count <= 0 {
		return PacketSpec{}, SrcDone, 0
	}
	if now < s.nextTime {
		return PacketSpec{}, SrcWait, s.nextTime
	}
	s.count--
	s.nextTime = now + s.gap
	return s.spec, SrcReady, 0
}

// countHandler counts deliveries; every delivery is final. Both tables are
// node-partitioned (a delivery at node n writes only perNode[n] and row n of
// bySrc), as the Handler contract requires under RunSharded.
type countHandler struct {
	p       int
	perNode []int64
	bySrc   []int64 // deliveries at node n from src s, at n*p+s
}

func newCountHandler(p int) *countHandler {
	return &countHandler{p: p, perNode: make([]int64, p), bySrc: make([]int64, p*p)}
}

func (h *countHandler) OnDeliver(d Delivered, fw []PacketSpec) ([]PacketSpec, int64, bool) {
	h.perNode[d.Node]++
	h.bySrc[int(d.Node)*h.p+int(d.Src)]++
	return fw, 0, true
}

func buildNet(t *testing.T, shape torus.Shape, par Params, sources []Source, h Handler) *Network {
	t.Helper()
	nw, err := New(shape, par, sources, h)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return nw
}

func line2() torus.Shape { return torus.NewMesh(2, 1, 1, false, false, false) }

func TestTwoNodeSinglePacket(t *testing.T) {
	par := DefaultParams()
	h := newCountHandler(2)
	src := make([]Source, 2)
	src[0] = &listSource{specs: []PacketSpec{{Dst: 1, Size: 256, Payload: 200}}}
	nw := buildNet(t, line2(), par, src, h)
	fin, err := nw.Run(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	// Injection CPU: 256/4 = 64 units, packet enters FIFO at t=64.
	// Wire: 64..320. Router delay: arrive 335. Reception CPU: 335..399.
	if fin != 399 {
		t.Errorf("finish time = %d, want 399", fin)
	}
	if h.perNode[1] != 1 || h.perNode[0] != 0 {
		t.Errorf("deliveries = %v", h.perNode)
	}
	st := nw.Stats()
	if st.FinalPayload != 200 {
		t.Errorf("payload = %d, want 200", st.FinalPayload)
	}
	if st.PacketsInjected != 1 {
		t.Errorf("injected = %d", st.PacketsInjected)
	}
}

func TestLinkSerializesBackToBackPackets(t *testing.T) {
	par := DefaultParams()
	h := newCountHandler(2)
	n := 10
	specs := make([]PacketSpec, n)
	for i := range specs {
		specs[i] = PacketSpec{Dst: 1, Size: 256}
	}
	src := make([]Source, 2)
	src[0] = &listSource{specs: specs}
	nw := buildNet(t, line2(), par, src, h)
	fin, err := nw.Run(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	// CPU readies packets every 64 units; the link is the bottleneck and
	// stays saturated: transmissions run 64..64+2560, last arrival at
	// +15, reception CPU +64.
	want := int64(64 + 10*256 + 15 + 64)
	if fin != want {
		t.Errorf("finish = %d, want %d (link-serialized)", fin, want)
	}
	if h.perNode[1] != int64(n) {
		t.Errorf("deliveries = %d, want %d", h.perNode[1], n)
	}
	// The 0->1 link must have been busy for exactly 10*256 units.
	if got := nw.Stats().LinkBusy[0*numDirs+dirOf(torus.X, 1)]; got != 2560 {
		t.Errorf("link busy = %d, want 2560", got)
	}
}

func TestWaitPacing(t *testing.T) {
	par := DefaultParams()
	h := newCountHandler(2)
	src := make([]Source, 2)
	src[0] = &pacedSource{spec: PacketSpec{Dst: 1, Size: 64}, count: 5, gap: 1000}
	nw := buildNet(t, line2(), par, src, h)
	fin, err := nw.Run(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	// Injections at 0, 1000+, 2000+, ...; the last at >= 4000 plus
	// CPU 16 + wire 64 + delay 15 + recv 16.
	if fin < 4000+16+64+15+16 {
		t.Errorf("finish = %d, too early for paced source", fin)
	}
	if h.perNode[1] != 5 {
		t.Errorf("deliveries = %d, want 5", h.perNode[1])
	}
}

// allToAllSource sends one packet to every other node.
type allToAllSource struct {
	self int32
	p    int32
	next int32
	size int32
	det  bool
}

func (s *allToAllSource) Next(now int64) (PacketSpec, SrcStatus, int64) {
	if s.next >= s.p {
		return PacketSpec{}, SrcDone, 0
	}
	d := s.next
	s.next++
	if d == s.self {
		if s.next >= s.p {
			return PacketSpec{}, SrcDone, 0
		}
		d = s.next
		s.next++
	}
	return PacketSpec{Dst: d, Size: s.size, Payload: s.size, Det: s.det}, SrcReady, 0
}

func runAllToAll(t *testing.T, shape torus.Shape, par Params, size int32, det bool) (*Network, *countHandler) {
	t.Helper()
	p := shape.P()
	h := newCountHandler(p)
	src := make([]Source, p)
	for i := 0; i < p; i++ {
		src[i] = &allToAllSource{self: int32(i), p: int32(p), size: size, det: det}
	}
	nw := buildNet(t, shape, par, src, h)
	if _, err := nw.Run(1 << 40); err != nil {
		t.Fatalf("Run(%v det=%v): %v", shape, det, err)
	}
	return nw, h
}

func checkConservation(t *testing.T, shape torus.Shape, h *countHandler) {
	t.Helper()
	p := shape.P()
	for n := 0; n < p; n++ {
		if h.perNode[n] != int64(p-1) {
			t.Errorf("%v node %d received %d packets, want %d", shape, n, h.perNode[n], p-1)
		}
	}
	for s := 0; s < p; s++ {
		for d := 0; d < p; d++ {
			if s == d {
				continue
			}
			if got := h.bySrc[d*p+s]; got != 1 {
				t.Fatalf("%v pair (%d,%d) delivered %d times, want 1", shape, s, d, got)
			}
		}
	}
}

func TestAllToAllConservationAdaptive(t *testing.T) {
	shapes := []torus.Shape{
		torus.New(4, 4, 4),
		torus.New(8, 4, 1),
		torus.New(5, 3, 4),
		torus.NewMesh(4, 4, 4, false, true, false),
		torus.New(16, 1, 1),
	}
	for _, s := range shapes {
		_, h := runAllToAll(t, s, DefaultParams(), 256, false)
		checkConservation(t, s, h)
	}
}

func TestAllToAllConservationDeterministic(t *testing.T) {
	shapes := []torus.Shape{
		torus.New(4, 4, 4),
		torus.New(8, 4, 2),
		torus.NewMesh(6, 3, 2, false, false, false),
	}
	for _, s := range shapes {
		_, h := runAllToAll(t, s, DefaultParams(), 256, true)
		checkConservation(t, s, h)
	}
}

func TestAllToAllTinyBuffersNoDeadlock(t *testing.T) {
	par := DefaultParams()
	par.VCBytes = 2 * MaxPacketBytes // minimum legal: bubble join needs size+256
	par.InjFIFOBytes = 256
	par.RecvFIFOBytes = 256
	for _, det := range []bool{false, true} {
		shape := torus.New(4, 4, 4)
		p := shape.P()
		h := newCountHandler(p)
		src := make([]Source, p)
		for i := 0; i < p; i++ {
			src[i] = &allToAllSource{self: int32(i), p: int32(p), size: 256, det: det}
		}
		nw := buildNet(t, shape, par, src, h)
		if _, err := nw.Run(1 << 40); err != nil {
			t.Fatalf("det=%v: %v", det, err)
		}
		checkConservation(t, shape, h)
	}
}

func TestSmallPackets(t *testing.T) {
	_, h := runAllToAll(t, torus.New(4, 4, 1), DefaultParams(), 64, false)
	checkConservation(t, torus.New(4, 4, 1), h)
}

// fwHandler implements a one-hop software forward: packets of kind 1 are
// re-injected to their Aux destination as kind 2.
type fwHandler struct {
	finals []int64
	inter  []int64
}

func (h *fwHandler) OnDeliver(d Delivered, fw []PacketSpec) ([]PacketSpec, int64, bool) {
	if d.Kind == 1 {
		h.inter[d.Node]++
		fw = append(fw, PacketSpec{
			Dst: d.Aux, Size: d.Size, Payload: d.Payload, Kind: 2, Class: 1,
		})
		return fw, 0, false
	}
	h.finals[d.Node]++
	return fw, 0, true
}

func TestSoftwareForwarding(t *testing.T) {
	// 4-node line: node 0 sends via intermediate 1 (kind 1, Aux=3) to 3.
	shape := torus.NewMesh(4, 1, 1, false, false, false)
	h := &fwHandler{finals: make([]int64, 4), inter: make([]int64, 4)}
	src := make([]Source, 4)
	src[0] = &listSource{specs: []PacketSpec{{Dst: 1, Aux: 3, Size: 128, Payload: 100, Kind: 1}}}
	nw := buildNet(t, shape, DefaultParams(), src, h)
	fin, err := nw.Run(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if h.inter[1] != 1 {
		t.Errorf("intermediate deliveries at node 1 = %d, want 1", h.inter[1])
	}
	if h.finals[3] != 1 {
		t.Errorf("final deliveries at node 3 = %d, want 1", h.finals[3])
	}
	if nw.Stats().FinalPayload != 100 {
		t.Errorf("final payload = %d", nw.Stats().FinalPayload)
	}
	// Path with virtual cut-through: inject(32); first leg 0->1 is a final
	// hop, so the tail must arrive: wire(128)+delay(15); recv(32);
	// fw-inject(32); second leg 1->3: the transit hop 1->2 forwards at
	// head arrival (granule 32 + delay 15), the final hop 2->3 waits for
	// the tail (wire 128 + delay 15); recv(32).
	want := int64(32 + (128 + 15) + 32 + 32 + (32 + 15) + (128 + 15) + 32)
	if fin != want {
		t.Errorf("finish = %d, want %d", fin, want)
	}
}

func TestLatencyStats(t *testing.T) {
	par := DefaultParams()
	h := newCountHandler(2)
	src := make([]Source, 2)
	src[0] = &listSource{specs: []PacketSpec{{Dst: 1, Size: 256}}}
	nw := buildNet(t, line2(), par, src, h)
	if _, err := nw.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	// Latency = finish - enq = 399 - 64 = 335.
	if st.LatencyMax != 335 || st.MeanLatency() != 335 {
		t.Errorf("latency max=%d mean=%v, want 335", st.LatencyMax, st.MeanLatency())
	}
	var histSum int64
	for _, c := range st.LatencyHist {
		histSum += c
	}
	if histSum != 1 {
		t.Errorf("hist sum = %d", histSum)
	}
}

func TestInvalidConfigs(t *testing.T) {
	h := newCountHandler(2)
	if _, err := New(line2(), DefaultParams(), nil, nil); err == nil {
		t.Error("nil handler accepted")
	}
	bad := DefaultParams()
	bad.VCBytes = 128
	if _, err := New(line2(), bad, nil, h); err == nil {
		t.Error("tiny VCBytes accepted")
	}
	if _, err := New(line2(), DefaultParams(), make([]Source, 5), h); err == nil {
		t.Error("mismatched sources accepted")
	}
	if _, err := New(torus.Shape{Size: [3]int{0, 1, 1}}, DefaultParams(), nil, h); err == nil {
		t.Error("invalid shape accepted")
	}
}

func TestSelfPacketPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("self-addressed packet did not panic")
		}
	}()
	h := newCountHandler(2)
	src := make([]Source, 2)
	src[0] = &listSource{specs: []PacketSpec{{Dst: 0, Size: 64}}}
	nw, _ := New(line2(), DefaultParams(), src, h)
	_, _ = nw.Run(1 << 30)
}

func TestMaxTimeExceeded(t *testing.T) {
	h := newCountHandler(2)
	src := make([]Source, 2)
	src[0] = &listSource{specs: []PacketSpec{{Dst: 1, Size: 256}}}
	nw := buildNet(t, line2(), DefaultParams(), src, h)
	if _, err := nw.Run(10); err == nil {
		t.Error("expected max-time error")
	}
}

func TestMeshCornerToCorner(t *testing.T) {
	shape := torus.NewMesh(4, 1, 1, false, false, false)
	h := newCountHandler(4)
	src := make([]Source, 4)
	src[0] = &listSource{specs: []PacketSpec{{Dst: 3, Size: 256}}}
	src[3] = &listSource{specs: []PacketSpec{{Dst: 0, Size: 256}}}
	nw := buildNet(t, shape, DefaultParams(), src, h)
	if _, err := nw.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	if h.perNode[0] != 1 || h.perNode[3] != 1 {
		t.Errorf("deliveries = %v", h.perNode)
	}
}

func TestDirHelpers(t *testing.T) {
	if dirOf(torus.X, 1) != 0 || dirOf(torus.X, -1) != 1 || dirOf(torus.Z, -1) != 5 {
		t.Error("dirOf mapping wrong")
	}
	for d := 0; d < numDirs; d++ {
		if oppositeDir(oppositeDir(d)) != d {
			t.Error("oppositeDir not involutive")
		}
		if dimOfDir(d) != torus.Dim(d/2) {
			t.Error("dimOfDir wrong")
		}
		if signOfDir(d)*signOfDir(oppositeDir(d)) != -1 {
			t.Error("signs of opposite dirs must differ")
		}
	}
}

func TestRouteHopsTieSplitting(t *testing.T) {
	shape := torus.New(8, 1, 1)
	h := newCountHandler(8)
	nw := buildNet(t, shape, DefaultParams(), nil, h)
	plus, minus := 0, 0
	for src := int32(0); src < 8; src++ {
		dst := (src + 4) % 8
		hops := nw.routeHops(src, dst)
		switch hops[0] {
		case 4:
			plus++
		case -4:
			minus++
		default:
			t.Fatalf("tie hop = %d", hops[0])
		}
	}
	if plus != 4 || minus != 4 {
		t.Errorf("tie split %d+/%d-, want 4/4", plus, minus)
	}
}
