package collective

import (
	"slices"
	"testing"

	"alltoall/internal/network"
	"alltoall/internal/torus"
)

func TestTPSCreditDeliversEverything(t *testing.T) {
	shape := torus.New(8, 4, 2)
	// Each source sends 8 single-packet messages through each foreign
	// intermediate (the 4x2 plane), so a batch of 4 yields two credits per
	// (intermediate, source) pair.
	res, err := run(StratTPS, Options{
		Request: Request{
			Shape:           shape,
			MsgBytes:        200,
			Seed:            5,
			TPSCreditWindow: 8,
			TPSCreditBatch:  4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := int64(shape.P())
	if res.PayloadBytes != p*(p-1)*200 {
		t.Errorf("payload = %d, want %d", res.PayloadBytes, p*(p-1)*200)
	}
	if res.CreditPackets == 0 {
		t.Error("no credit packets were sent")
	}
}

func TestTPSCreditBoundsIntermediateMemory(t *testing.T) {
	shape := torus.New(16, 4, 2)
	m := 480
	free, err := run(StratTPS, Options{Request: Request{Shape: shape, MsgBytes: m, Seed: 1, Shards: 1}})
	if err != nil {
		t.Fatal(err)
	}
	window := 12
	fc, err := run(StratTPS, Options{
		Request: Request{
			Shape:           shape,
			MsgBytes:        m,
			Seed:            1,
			Shards:          1,
			TPSCreditWindow: window,
			TPSCreditBatch:  6,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The backlog bound: each intermediate can hold at most window
	// un-credited packets per source on its line (15 other sources), plus
	// credit packets themselves queued for injection.
	bound := window*(shape.Size[0]-1) + shape.P()
	if fc.MaxIntermediateBacklog > bound {
		t.Errorf("flow-controlled backlog %d exceeds bound %d", fc.MaxIntermediateBacklog, bound)
	}
	if fc.MaxIntermediateBacklog > free.MaxIntermediateBacklog && free.MaxIntermediateBacklog > 2*window {
		t.Errorf("flow control did not reduce backlog: %d (fc) vs %d (free)",
			fc.MaxIntermediateBacklog, free.MaxIntermediateBacklog)
	}
	// The paper's overhead estimate: credits add ~1 small packet per batch
	// of large ones; the run must not slow down catastrophically.
	if fc.Time > free.Time*3/2 {
		t.Errorf("flow control slowed TPS by more than 50%%: %d vs %d", fc.Time, free.Time)
	}
}

func TestTPSCreditOverheadSmall(t *testing.T) {
	shape := torus.New(8, 4, 2)
	res, err := run(StratTPS, Options{
		Request: Request{
			Shape:           shape,
			MsgBytes:        480,
			Seed:            2,
			TPSCreditWindow: 20,
			TPSCreditBatch:  10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Credit wire bytes as a fraction of total wire bytes: ~64B per 10
	// 256-byte-ish packets of one phase => low single digits percent.
	creditBytes := res.CreditPackets * int64(network.MinPacketBytes)
	frac := float64(creditBytes) / float64(res.WireBytes)
	if creditBytes == 0 || frac > 0.05 {
		t.Errorf("credit overhead %.3f of wire bytes (%d credit bytes), want in (0, 5%%)", frac, creditBytes)
	}
}

func TestTPSCreditValidation(t *testing.T) {
	shape := torus.New(8, 4, 2)
	_, err := run(StratTPS, Options{
		Request: Request{
			Shape:           shape,
			MsgBytes:        64,
			TPSCreditWindow: 5,
			TPSCreditBatch:  10,
		},
	})
	if err == nil {
		t.Error("window smaller than batch accepted (credits could never return)")
	}
}

// Every validated window (>= batch) must complete: a phase-1 packet whose
// intermediate is its final destination is never forwarded, so it is never
// counted toward a credit batch, and charging it a credit leaked NPkts credits
// per intermediate - with window - NPkts < batch every source parked forever
// and the run burned its whole MaxTime horizon.
func TestTPSCreditEveryValidWindowCompletes(t *testing.T) {
	shape := torus.New(4, 4, 2)
	for _, c := range []struct{ m, window, batch int }{
		{700, 12, 0}, // NPkts 3, default batch 10: 12-3 < 10
		{240, 11, 0},
		{240, 5, 4},
		{3000, 20, 0},
		{700, 13, 0},
		{240, 10, 10},
		{1, 1, 1},
		{700, 3, 3},
	} {
		res, err := run(StratTPS, Options{Request: Request{
			Shape: shape, MsgBytes: c.m, Seed: 1, Check: true,
			TPSCreditWindow: c.window, TPSCreditBatch: c.batch,
		}})
		if err != nil {
			t.Errorf("m=%d window=%d batch=%d: %v", c.m, c.window, c.batch, err)
			continue
		}
		if res.CreditPackets == 0 {
			t.Errorf("m=%d window=%d batch=%d: no credit packets were sent", c.m, c.window, c.batch)
		}
	}
}

// creditGateFixture builds node 5's burst-schedule source on a 4x2x2 torus,
// optionally gated, and a gate holding window credits per intermediate.
type creditGateFixture struct {
	shape torus.Shape
	rt    *route
	msg   Msg
	self  int
}

func newCreditGateFixture() creditGateFixture {
	shape := torus.New(4, 2, 2)
	return creditGateFixture{shape: shape, rt: tpsRoute(shape, torus.X), msg: NewMsg(500, 48), self: 5}
}

func (f creditGateFixture) source(gate *creditGate) network.Source {
	p := f.shape.P()
	sc := schedule{route: f.rt, msg: f.msg, burst: 2, gate: gate}
	return sc.sources(func(n int) visitOrder { return torus.NewDestOrder(p, n, 7) })[f.self]
}

func (f creditGateFixture) gate(window int) *creditGate {
	p, k := f.shape.P(), f.shape.Size[torus.X]
	g := &creditGate{shape: f.shape, linear: torus.X, credits: make([]int, p*k)}
	for i := range g.credits {
		g.credits[i] = window
	}
	return g
}

func drainSource(t *testing.T, src network.Source) []network.PacketSpec {
	t.Helper()
	var out []network.PacketSpec
	for {
		spec, st, _ := src.Next(0)
		if st == network.SrcDone {
			return out
		}
		if st != network.SrcReady {
			t.Fatalf("source returned %v with every credit available", st)
		}
		out = append(out, spec)
	}
}

// With an unbounded window the gated source never parks and sends every
// packet of every message to each of the other nodes.
func TestTPSCreditSourceCoversAllDestinations(t *testing.T) {
	f := newCreditGateFixture()
	p := f.shape.P()
	perFinal := map[int32]int{}
	for _, spec := range drainSource(t, f.source(f.gate(1<<30))) {
		perFinal[spec.Aux]++
	}
	if len(perFinal) != p-1 || perFinal[int32(f.self)] != 0 {
		t.Fatalf("unbounded window reached %d finals, want the %d others", len(perFinal), p-1)
	}
	for final, n := range perFinal {
		if n != f.msg.NPkts {
			t.Errorf("unbounded window: final %d got %d packets, want %d", final, n, f.msg.NPkts)
		}
	}
}

// The credit gate only holds the one schedule back. A gated source emits the
// ungated source's packets in the same order; it parks exactly when the next
// packet must be forwarded by an intermediate it holds no credit for, one
// credit's arrival lets exactly that packet go, and a packet whose first leg
// ends at its final destination spends nothing.
func TestTPSCreditSourceParksWithoutCredits(t *testing.T) {
	f := newCreditGateFixture()
	p, k := f.shape.P(), f.shape.Size[torus.X]
	ref := drainSource(t, f.source(nil))

	gate := f.gate(1)
	src := f.source(gate)
	h := &tpsCreditHandler{relay: relay{route: f.rt, recv: make([]int64, p)}, gate: gate, batch: 1,
		pending: make([]int, p*k), sent: make([]int64, p)}
	parks, free := 0, 0
	for i, want := range ref {
		lin := f.shape.Coords(int(want.Dst))[torus.X]
		slot := f.self*k + lin
		forwarded := want.Dst != want.Aux
		if forwarded && gate.credits[slot] == 0 {
			if _, st, _ := src.Next(0); st != network.SrcWait {
				t.Fatalf("packet %d: intermediate %d has no credit, source returned %v", i, want.Dst, st)
			}
			h.OnDeliver(network.Delivered{Node: int32(f.self), Src: want.Dst, Aux: int32(f.self), Kind: kindCredit}, nil)
			parks++
		}
		before := append([]int(nil), gate.credits...)
		spec, st, _ := src.Next(0)
		if st != network.SrcReady || spec != want {
			t.Fatalf("packet %d: got %+v (%v), want %+v", i, spec, st, want)
		}
		if forwarded {
			before[slot]--
		} else {
			free++
		}
		if !slices.Equal(gate.credits, before) {
			t.Fatalf("packet %d (forwarded %v): credits %v, want %v", i, forwarded, gate.credits, before)
		}
	}
	if _, st, _ := src.Next(0); st != network.SrcDone {
		t.Errorf("gated source returned %v after the schedule's last packet", st)
	}
	if parks == 0 || free == 0 {
		t.Errorf("walk parked %d times and sent %d credit-free packets; want both", parks, free)
	}
}
