package collective

import (
	"fmt"

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
// With the window exhausted toward one intermediate, the source parks that
// intermediate and rotates to the next, so flow control costs ordering
// flexibility rather than stalls.

// tpsCreditSource iterates intermediates round-robin, gated by per-
// intermediate credit windows.
type tpsCreditSource struct {
	route   *route
	self    int32
	selfLin int
	linear  torus.Dim
	msg     Msg
	alpha   int64
	pace    pacer

	// Per linear coordinate (intermediate): a pseudorandom order over the
	// finals in that intermediate's plane, a cursor, and the credit count.
	planeSize int
	order     []torus.Perm
	destIdx   []int
	pktIdx    []int
	credits   []int
	cursor    int
	remaining int // total packets left to emit
}

func newTPSCreditSource(rt *route, self int, linear torus.Dim, msg Msg,
	alpha int64, pace pacer, window int, seed uint64) *tpsCreditSource {
	shape := rt.shape
	k := shape.Size[linear]
	p := shape.P()
	s := &tpsCreditSource{
		route:     rt,
		self:      int32(self),
		selfLin:   shape.Coords(self)[linear],
		linear:    linear,
		msg:       msg,
		alpha:     alpha,
		pace:      pace,
		planeSize: p / k,
		order:     make([]torus.Perm, k),
		destIdx:   make([]int, k),
		pktIdx:    make([]int, k),
		credits:   make([]int, k),
		remaining: (p - 1) * msg.NPkts,
	}
	for lin := 0; lin < k; lin++ {
		s.order[lin] = torus.NewPerm(s.planeSize, splitmixSeed(seed, self, lin))
		s.credits[lin] = window
	}
	return s
}

func splitmixSeed(seed uint64, self, lin int) uint64 {
	x := seed ^ (uint64(self) << 20) ^ uint64(lin)
	x ^= x >> 30
	x *= 0x9E3779B97F4A7C15
	return x
}

// finalAt returns the rank of the i-th final destination (in this source's
// order) whose linear coordinate is lin.
func (s *tpsCreditSource) finalAt(lin, i int) int {
	j := s.order[lin].At(i)
	// Enumerate the plane: all coords with coordinate lin in the linear
	// dimension, indexed by the two planar dims.
	shape := s.route.shape
	o1, o2 := otherDims(s.linear)
	var c torus.Coord
	c[s.linear] = lin
	c[o1] = j % shape.Size[o1]
	c[o2] = j / shape.Size[o1]
	return shape.Rank(c)
}

// addCredit is called (via the handler) when a credit packet from
// intermediate lin arrives.
func (s *tpsCreditSource) addCredit(lin, n int) {
	s.credits[lin] += n
}

func (s *tpsCreditSource) Next(now int64) (network.PacketSpec, network.SrcStatus, int64) {
	if s.remaining == 0 {
		return network.PacketSpec{}, network.SrcDone, 0
	}
	if retry, ok := s.pace.gate(now); !ok {
		return network.PacketSpec{}, network.SrcWait, retry
	}
	k := len(s.order)
	for scanned := 0; scanned < k; scanned++ {
		lin := (s.cursor + scanned) % k
		// Skip exhausted intermediates and, when out of credits, parked
		// ones (the self plane needs no credits: its packets go straight
		// to phase 2).
		if s.destIdx[lin] >= s.planeSize {
			continue
		}
		if lin != s.selfLin && s.credits[lin] <= 0 {
			continue
		}
		// In the self plane, skip over self in the permutation order (only
		// possible between messages, when pktIdx is 0).
		final := s.finalAt(lin, s.destIdx[lin])
		if lin == s.selfLin && final == int(s.self) {
			s.destIdx[lin]++
			if s.destIdx[lin] >= s.planeSize {
				continue
			}
			final = s.finalAt(lin, s.destIdx[lin])
		}
		spec := s.route.packet(s.self, int32(final), s.msg, s.pktIdx[lin], s.alpha)
		if spec.Dst != spec.Aux {
			// A packet its intermediate must forward occupies memory there
			// until it is credited back. One addressed to its final
			// destination does not, and the handler never counts it toward a
			// batch: charging it would leak the credit.
			s.credits[lin]--
		}
		s.pktIdx[lin]++
		if s.pktIdx[lin] == s.msg.NPkts {
			s.pktIdx[lin] = 0
			s.destIdx[lin]++
		}
		s.remaining--
		s.cursor = (lin + 1) % k
		s.pace.charge(now, spec.Size)
		return spec, network.SrcReady, 0
	}
	// Everything unfinished is parked awaiting credits. The wakeup is the
	// credit packet's own reception on this node's CPU, which re-polls the
	// source; the timed retry below is only a (generous) safety net.
	return network.PacketSpec{}, network.SrcWait, now + 4*network.MaxPacketBytes
}

// tpsCreditHandler adds credit generation and consumption to the relay.
type tpsCreditHandler struct {
	relay
	linear  torus.Dim
	batch   int
	sources []*tpsCreditSource
	pending []map[int32]int // per node: forwarded-but-uncredited count per source
	credits []int64         // credit packets sent per node (summed into Result)
}

func (h *tpsCreditHandler) OnDeliver(d network.Delivered, fw []network.PacketSpec) ([]network.PacketSpec, int64, bool) {
	// Kind first: a credit's Aux is a linear coordinate, not a destination.
	if d.Kind == kindCredit {
		// Credit arrives back at the source: top up the window for the
		// intermediate identified by its linear coordinate (Aux).
		h.sources[d.Node].addCredit(int(d.Aux), h.batch)
		return fw, 0, false
	}
	fw, _, final := h.relay.OnDeliver(d, fw)
	if final {
		return fw, 0, true
	}
	// Forwarded: count toward this source's credit batch.
	m := h.pending[d.Node]
	if m == nil {
		m = make(map[int32]int)
		h.pending[d.Node] = m
	}
	m[d.Src]++
	if m[d.Src] >= h.batch {
		m[d.Src] = 0
		h.credits[d.Node]++
		fw = append(fw, network.PacketSpec{
			Dst:  d.Src,
			Size: network.MinPacketBytes,
			Aux:  int32(h.route.shape.Coords(int(d.Node))[h.linear]),
			// Credits ride the phase-1 (linear) injection classes: the
			// return path is pure linear dimension.
			Class: h.route.class(d.Src, 0),
			Kind:  kindCredit,
		})
	}
	return fw, 0, false
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
// when Request.TPSCreditWindow > 0: a different injection order over the same
// route.
func runTPSCredit(opts *Options, rt *route, linear torus.Dim) (Result, error) {
	p := opts.Shape.P()
	msg := NewMsg(opts.MsgBytes, opts.Calib.HeaderBytes)
	batch, err := opts.creditBatch()
	if err != nil {
		return Result{}, err
	}
	pace := opts.pacer(false)
	srcs := make([]*tpsCreditSource, p)
	sources := make([]network.Source, p)
	for n := 0; n < p; n++ {
		srcs[n] = newTPSCreditSource(rt, n, linear, msg,
			opts.Calib.AlphaAR, pace, opts.TPSCreditWindow, opts.Seed)
		sources[n] = srcs[n]
	}
	h := &tpsCreditHandler{
		relay:   relay{route: rt, recv: make([]int64, p)},
		linear:  linear,
		batch:   batch,
		sources: srcs,
		pending: make([]map[int32]int, p),
		credits: make([]int64, p),
	}
	nw, t, err := opts.runPhase("TPS+credit", sources, h, h.recv, opts.allToAllPayload)
	if err != nil {
		return Result{}, err
	}
	r := opts.result(t, nw.Stats())
	for _, c := range h.credits {
		r.CreditPackets += c
	}
	return r, nil
}
