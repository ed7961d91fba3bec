package collective

import (
	"fmt"
	"slices"

	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// Credit-based flow control for the Two Phase Schedule (the paper's
// Section 5, "Summary and Future Work"):
//
//	"extra memory has to be put aside for the intermediate node
//	 forwarding. [...] To do so in a manner that guarantees that the
//	 intermediate memory is not overrun requires some sort of flow
//	 control. This can be solved [...] by a credit-based flow control
//	 algorithm in which the intermediate nodes send back short 'credit'
//	 packets to the sources after forwarding along some number of (large)
//	 packets. [...] if one 32 byte credit packet is sent for every ten
//	 256 byte all-to-all packets, the bandwidth overhead is only about 1%."
//
// Each source holds a per-intermediate window of TPSCreditWindow packets.
// An intermediate returns one credit packet (the runtime's 64-byte minimum;
// the paper's 32-byte packets are below its floor) per TPSCreditBatch
// phase-1 packets it forwards for that source. Credits travel back along
// the linear dimension (source and intermediate share planar coordinates).
// Flow control is an add-on to the one schedule, not another order: a source
// whose next packet needs a credit it does not have waits for one.

// creditGate holds every source's windows: per node, one credit count per
// intermediate on its linear line.
type creditGate struct {
	shape   torus.Shape
	linear  torus.Dim
	credits []int // by slot
}

// slot indexes node's count toward the node on its linear line that shares
// other's linear coordinate: a source's window toward an intermediate, or an
// intermediate's batch from a source.
func (g *creditGate) slot(node, other int32) int {
	return int(node)*g.shape.Size[g.linear] + g.shape.Coords(int(other))[g.linear]
}

// spend charges spec, about to leave src, one credit if its intermediate must
// forward it, and reports false - charging nothing - if no credit is left. A
// packet whose phase-1 target is its final destination occupies no
// forwarding memory and is never counted toward a batch: charging it would
// leak the credit.
func (g *creditGate) spend(src int32, spec network.PacketSpec) bool {
	if spec.Dst == spec.Aux {
		return true
	}
	c := &g.credits[g.slot(src, spec.Dst)]
	if *c == 0 {
		return false
	}
	*c--
	return true
}

// tpsCreditHandler adds credit generation and consumption to the relay.
type tpsCreditHandler struct {
	relay
	gate    *creditGate
	batch   int
	pending []int   // by slot: packets an intermediate forwarded for a source, not yet credited
	sent    []int64 // credit packets sent per node (summed into Result)
}

func (h *tpsCreditHandler) OnDeliver(d network.Delivered, fw []network.PacketSpec) ([]network.PacketSpec, int64, bool) {
	// Kind first: a credit back at its source tops up the window toward the
	// intermediate that sent it, and is no delivery.
	if d.Kind == kindCredit {
		h.gate.credits[h.gate.slot(d.Node, d.Src)] += h.batch
		return fw, 0, false
	}
	fw, _, final := h.relay.OnDeliver(d, fw)
	if final {
		return fw, 0, true
	}
	// Forwarded: count toward this source's credit batch.
	c := &h.pending[h.gate.slot(d.Node, d.Src)]
	if *c++; *c < h.batch {
		return fw, 0, false
	}
	*c = 0
	h.sent[d.Node]++
	// Credits ride the phase-1 (linear) injection classes: the return path is
	// pure linear dimension.
	return append(fw, network.PacketSpec{Dst: d.Src, Aux: d.Src, Size: network.MinPacketBytes,
		Class: h.route.class(d.Src, 0), Kind: kindCredit}), 0, false
}

// creditBatch returns the packets forwarded per returned credit (default 10,
// the paper's one-credit-per-ten-packets suggestion) and checks that a
// positive credit window can hold one batch. Validate and runTPSCredit share
// it.
func (r Request) creditBatch() (int, error) {
	batch := r.TPSCreditBatch
	if batch == 0 {
		batch = 10
	}
	if r.TPSCreditWindow > 0 && r.TPSCreditWindow < batch {
		return 0, fmt.Errorf("collective: TPSCreditWindow %d must be >= TPSCreditBatch %d (credits could never return)",
			r.TPSCreditWindow, batch)
	}
	return batch, nil
}

// runTPSCredit is the flow-controlled variant of the Two Phase Schedule, used
// when Request.TPSCreditWindow > 0: the all-to-all schedule over the same
// route, gated by credit windows.
func runTPSCredit(opts *Options, rt *route) (Result, error) {
	batch, err := opts.creditBatch()
	if err != nil {
		return Result{}, err
	}
	linear := torus.Dim(slices.Index(rt.stageOf[:], 0)) // the dimension phase 1 travels
	p, k := opts.Shape.P(), opts.Shape.Size[linear]
	gate := &creditGate{shape: opts.Shape, linear: linear, credits: make([]int, p*k)}
	for i := range gate.credits {
		gate.credits[i] = opts.TPSCreditWindow
	}
	h := &tpsCreditHandler{
		relay:   relay{route: rt, recv: make([]int64, p)},
		gate:    gate,
		batch:   batch,
		pending: make([]int, p*k),
		sent:    make([]int64, p),
	}
	nw, t, err := opts.runPhase("TPS+credit", opts.allToAll(rt, gate), h, h.recv, opts.allToAllPayload)
	if err != nil {
		return Result{}, err
	}
	r := opts.result(t, nw.Stats())
	for _, c := range h.sent {
		r.CreditPackets += c
	}
	return r, nil
}
