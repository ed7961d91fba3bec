package collective

import (
	"testing"

	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// The three route plans, on a shape where every one of them has all its legs.
func testRoutes(shape torus.Shape) []struct {
	name string
	rt   *route
} {
	return []struct {
		name string
		rt   *route
	}{
		{"direct", directRoute(shape, false)},
		{"tps", tpsRoute(shape, torus.X)},
		{"xyz", xyzRoute(shape)},
	}
}

func newBurstSource(rt *route, self int, msg Msg, burst int, alpha int64) network.Source {
	sc := schedule{route: rt, msg: msg, burst: burst, startup: alpha}
	return sc.sources(func(n int) visitOrder { return torus.NewDestOrder(rt.shape.P(), n, 7) })[self]
}

// deliver hands spec, injected by src, to the relay at its leg's end and
// follows the forwards until the packet is final; it returns the legs taken.
func deliver(t *testing.T, h *relay, src int32, spec network.PacketSpec) int {
	t.Helper()
	for legs := 1; ; legs++ {
		fw, cpu, final := h.OnDeliver(network.Delivered{
			Node: spec.Dst, Src: src, Aux: spec.Aux, Size: spec.Size, Payload: spec.Payload, Kind: spec.Kind,
		}, nil)
		if cpu != 0 {
			t.Fatalf("relay charged %d extra CPU", cpu)
		}
		if final {
			if len(fw) != 0 || spec.Dst != spec.Aux {
				t.Fatalf("final delivery at %d of a packet for %d forwarded %d specs", spec.Dst, spec.Aux, len(fw))
			}
			return legs
		}
		if len(fw) != 1 {
			t.Fatalf("non-final delivery forwarded %d specs, want 1", len(fw))
		}
		if fw[0].Aux != spec.Aux || fw[0].Size != spec.Size || fw[0].Payload != spec.Payload || fw[0].ExtraCPU != 0 {
			t.Fatalf("forward %+v does not carry %+v on", fw[0], spec)
		}
		if fw[0].Kind <= spec.Kind {
			t.Fatalf("forward on leg %d after leg %d", fw[0].Kind, spec.Kind)
		}
		spec = fw[0]
	}
}

// Every node's source, drained into the relay: each final receives exactly m
// payload bytes from each source, in NPkts packets carrying the message's
// wire bytes, over at most `stages` legs.
func TestBurstSourceDeliversEveryMessage(t *testing.T) {
	shape := torus.New(4, 2, 2)
	msg := NewMsg(500, 48)
	for _, c := range testRoutes(shape) {
		h := &relay{route: c.rt, recv: make([]int64, shape.P())}
		for self := 0; self < shape.P(); self++ {
			src := newBurstSource(c.rt, self, msg, 2, 0)
			counts := map[int32]int{}
			var bytes int64
			for {
				spec, st, _ := src.Next(0)
				if st == network.SrcDone {
					break
				}
				if st != network.SrcReady {
					t.Fatalf("%s: unexpected status %v", c.name, st)
				}
				counts[spec.Aux]++
				bytes += int64(spec.Size)
				if legs := deliver(t, h, int32(self), spec); legs > c.rt.stages {
					t.Fatalf("%s: %d legs from %d to %d, route has %d", c.name, legs, self, spec.Aux, c.rt.stages)
				}
			}
			if len(counts) != shape.P()-1 || counts[int32(self)] != 0 {
				t.Fatalf("%s: source %d reached %d finals, want the %d others", c.name, self, len(counts), shape.P()-1)
			}
			for d, n := range counts {
				if n != msg.NPkts {
					t.Errorf("%s: final %d got %d packets from %d, want %d", c.name, d, n, self, msg.NPkts)
				}
			}
			if bytes != msg.Wire*int64(shape.P()-1) {
				t.Errorf("%s: wire bytes = %d, want %d", c.name, bytes, msg.Wire*int64(shape.P()-1))
			}
		}
		for n, got := range h.recv {
			if want := int64(shape.P()-1) * int64(msg.Payload); got != want {
				t.Errorf("%s: node %d received %d payload bytes, want %d", c.name, n, got, want)
			}
		}
	}
}

func TestBurstSourceBurstOrdering(t *testing.T) {
	shape := torus.New(4, 2, 2)
	msg := NewMsg(960, 48) // 4+ packets
	for _, c := range testRoutes(shape) {
		src := newBurstSource(c.rt, 0, msg, 2, 0)
		// With burst 2, the first two specs must go to the same destination.
		a, _, _ := src.Next(0)
		b, _, _ := src.Next(0)
		d, _, _ := src.Next(0)
		if a.Aux != b.Aux {
			t.Errorf("%s: burst not contiguous: %d then %d", c.name, a.Aux, b.Aux)
		}
		if d.Aux == a.Aux {
			t.Errorf("%s: third packet should move to the next destination", c.name)
		}
	}
}

func TestBurstSourceAlphaOnFirstPacketOnly(t *testing.T) {
	shape := torus.New(4, 2, 2)
	msg := NewMsg(960, 48)
	for _, c := range testRoutes(shape) {
		src := newBurstSource(c.rt, 0, msg, msg.NPkts, 99)
		for j := 0; j < 2*msg.NPkts; j++ {
			want := int64(0)
			if j%msg.NPkts == 0 {
				want = 99
			}
			if spec, _, _ := src.Next(0); spec.ExtraCPU != want {
				t.Errorf("%s: packet %d ExtraCPU = %d, want %d", c.name, j, spec.ExtraCPU, want)
			}
		}
	}
}

// A stage-k leg moves a packet only along stage k's dimensions, fixes all of
// them, and legs come in stage order until the packet is home.
func TestRouteLegsStayOnStageDims(t *testing.T) {
	shape := torus.New(4, 3, 2)
	for _, c := range testRoutes(shape) {
		for from := 0; from < shape.P(); from++ {
			for final := 0; final < shape.P(); final++ {
				if from == final {
					continue
				}
				cur, last := int32(from), int8(-1)
				for cur != int32(final) {
					target, stage := c.rt.next(cur, int32(final))
					if stage <= last || int(stage) >= c.rt.stages || target == cur {
						t.Fatalf("%s %d->%d: leg %d to %d after leg %d at %d", c.name, from, final, stage, target, last, cur)
					}
					cc, tc, fc := shape.Coords(int(cur)), shape.Coords(int(target)), shape.Coords(final)
					for d := range cc {
						if c.rt.stageOf[d] == stage && tc[d] != fc[d] {
							t.Fatalf("%s %d->%d: leg %d left dimension %d unfixed", c.name, from, final, stage, d)
						}
						if c.rt.stageOf[d] != stage && tc[d] != cc[d] {
							t.Fatalf("%s %d->%d: leg %d moved along dimension %d", c.name, from, final, stage, d)
						}
					}
					cur, last = target, stage
				}
			}
		}
	}
}

// The one class formula is the three rules the strategies used to spell out:
// dst%60 direct, even/odd halves for TPS, thirds for XYZ.
func TestRouteClassMatchesStrategyRules(t *testing.T) {
	shape := torus.New(8, 4, 4)
	direct, tps, xyz := directRoute(shape, false), tpsRoute(shape, torus.X), xyzRoute(shape)
	for dst := int32(0); dst < 120; dst++ {
		if got, want := direct.class(dst, 0), int8(dst%60); got != want {
			t.Errorf("direct class(%d) = %d, want %d", dst, got, want)
		}
		for stage := int8(0); stage < 2; stage++ {
			if got, want := tps.class(dst, stage), int8(2*(dst%30))+stage; got != want {
				t.Errorf("tps class(%d, %d) = %d, want %d", dst, stage, got, want)
			}
		}
		for stage := int8(0); stage < 3; stage++ {
			if got, want := xyz.class(dst, stage), int8(3*(dst%20))+stage; got != want {
				t.Errorf("xyz class(%d, %d) = %d, want %d", dst, stage, got, want)
			}
		}
	}
}

func TestRelayForwarding(t *testing.T) {
	shape := torus.New(4, 2, 2)
	rank := func(x, y, z int) int32 { return int32(shape.Rank(torus.Coord{x, y, z})) }
	final := rank(3, 1, 1)
	cases := []struct {
		name  string
		rt    *route
		at    int32 // where a packet from (0,0,0) for final lands first
		next  int32 // where the relay sends it on
		stage uint8
	}{
		{"tps", tpsRoute(shape, torus.X), rank(3, 0, 0), final, 1},
		{"xyz", xyzRoute(shape), rank(3, 0, 0), rank(3, 1, 0), 1},
	}
	for _, c := range cases {
		h := &relay{route: c.rt, recv: make([]int64, shape.P())}
		// At its intermediate: forwarded one leg, not final, nothing counted.
		fw, _, fin := h.OnDeliver(network.Delivered{Node: c.at, Src: 0, Aux: final, Size: 128, Payload: 80}, nil)
		if fin || len(fw) != 1 {
			t.Fatalf("%s: expected one forward, got final=%v fw=%d", c.name, fin, len(fw))
		}
		want := network.PacketSpec{Dst: c.next, Aux: final, Size: 128, Payload: 80,
			Class: c.rt.class(c.next, int8(c.stage)), Kind: c.stage}
		if fw[0] != want {
			t.Errorf("%s: forward = %+v, want %+v", c.name, fw[0], want)
		}
		if h.recv[c.at] != 0 {
			t.Errorf("%s: intermediate counted forwarded payload", c.name)
		}
		// A leg that ends at the final destination: final, whatever its stage.
		for kind := uint8(0); int(kind) < c.rt.stages; kind++ {
			fw, _, fin = h.OnDeliver(network.Delivered{Node: final, Src: 0, Aux: final, Size: 128, Payload: 80, Kind: kind}, nil)
			if !fin || len(fw) != 0 {
				t.Errorf("%s: stage-%d delivery at the final destination not final", c.name, kind)
			}
		}
		if got := h.recv[final]; got != 80*int64(c.rt.stages) {
			t.Errorf("%s: final counted %d payload bytes, want %d", c.name, got, 80*c.rt.stages)
		}
	}
}
