package collective

import (
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
	free, err := run(StratTPS, Options{Request: Request{Shape: shape, MsgBytes: m, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	window := 12
	fc, err := run(StratTPS, Options{
		Request: Request{
			Shape:           shape,
			MsgBytes:        m,
			Seed:            1,
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
	frac := float64(creditBytytesOr1(creditBytes)) / float64(res.WireBytes)
	if frac > 0.05 {
		t.Errorf("credit overhead %.3f of wire bytes, want < 5%%", frac)
	}
}

func creditBytytesOr1(b int64) int64 {
	if b == 0 {
		return 1
	}
	return b
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

func TestTPSCreditSourceCoversAllDestinations(t *testing.T) {
	shape := torus.New(4, 2, 2)
	msg := NewMsg(100, 48)
	src := newTPSCreditSource(tpsRoute(shape, torus.X), 5, torus.X, msg, 0, pacer{}, 1000, 7)
	seen := map[int32]int{}
	for {
		spec, st, _ := src.Next(0)
		if st == network.SrcDone {
			break
		}
		if st != network.SrcReady {
			t.Fatalf("unexpected status %v (all credits available)", st)
		}
		seen[spec.Aux]++
	}
	if len(seen) != shape.P()-1 {
		t.Fatalf("covered %d finals, want %d", len(seen), shape.P()-1)
	}
	for f, c := range seen {
		if c != msg.NPkts {
			t.Errorf("final %d got %d packets, want %d", f, c, msg.NPkts)
		}
		if f == 5 {
			t.Error("self appeared as a final destination")
		}
	}
}

func TestTPSCreditSourceParksWithoutCredits(t *testing.T) {
	shape := torus.New(4, 2, 2)
	msg := NewMsg(100, 48)
	src := newTPSCreditSource(tpsRoute(shape, torus.X), 0, torus.X, msg, 0, pacer{}, 1, 7)
	// Window 1: each foreign intermediate admits one packet, then parks.
	// Self-plane packets (3 finals) flow freely.
	emitted := 0
	for {
		_, st, _ := src.Next(0)
		if st != network.SrcReady {
			break
		}
		emitted++
	}
	// 3 foreign intermediates x 1 forwarded packet + self plane 3 finals x
	// NPkts, plus one: with this seed one intermediate's first final is the
	// intermediate itself, a packet nobody forwards and so no credit pays for.
	want := 3 + 3*msg.NPkts + 1
	if emitted != want {
		t.Errorf("emitted %d before parking, want %d", emitted, want)
	}
	// Refill one intermediate: exactly one more packet flows.
	src.addCredit(1, 1)
	if _, st, _ := src.Next(0); st != network.SrcReady {
		t.Error("credited intermediate still parked")
	}
}
