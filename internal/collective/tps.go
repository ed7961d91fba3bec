package collective

import (
	"context"

	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// The Two Phase Schedule (TPS), Section 4.1 of the paper.
//
// Phase 1 sends each packet along one "linear" dimension to the
// intermediate node whose linear coordinate matches the final destination's;
// the intermediate node's CPU re-injects it in phase 2, which uses only the
// remaining two "planar" dimensions. The two phases overlap: they are
// pipelined through distinct injection FIFO classes, so a phase-1 packet is
// never queued behind a phase-2 packet in an injection FIFO, and linear
// packets never compete with planar packets for VC space in the same
// dimension (phase-1 packets have hops only in the linear dimension,
// phase-2 packets have none there).

// SelectTPSLinearDim implements the paper's rule for choosing the phase-1
// dimension: prefer a dimension whose removal leaves the two planar
// dimensions symmetric (taking the longest such dimension); otherwise take
// the longest dimension, which is the bottleneck.
func SelectTPSLinearDim(s torus.Shape) torus.Dim {
	best := torus.Dim(-1)
	for d := torus.Dim(0); d < torus.NumDims; d++ {
		if s.Size[d] == 1 {
			continue
		}
		o1, o2 := otherDims(d)
		if s.Size[o1] == s.Size[o2] && (best < 0 || s.Size[d] > s.Size[best]) {
			best = d
		}
	}
	if best >= 0 {
		return best
	}
	return s.LongestDim()
}

// tpsPhase1Class and tpsPhase2Class partition the injection FIFO classes
// between the two phases: phase 1 uses even classes, phase 2 odd classes.
// With the default six injection FIFOs each phase gets three.
func tpsPhase1Class(dst int32) int8 { return int8(2 * (dst % 30)) }

func tpsPhase2Class(dst int32) int8 { return int8(2*(dst%30) + 1) }

func otherDims(d torus.Dim) (torus.Dim, torus.Dim) {
	switch d {
	case torus.X:
		return torus.Y, torus.Z
	case torus.Y:
		return torus.X, torus.Z
	default:
		return torus.X, torus.Y
	}
}

// tpsSource generates phase-1 packets (and direct phase-2 packets for
// destinations sharing the node's planar coordinates).
type tpsSource struct {
	shape  torus.Shape
	self   torus.Coord
	linear torus.Dim
	order  torus.DestOrder
	msg    Msg
	burst  int
	alpha  int64
	pace   pacer

	idx, pass, inBurst int
	passes             int
}

func (s *tpsSource) Next(now int64) (network.PacketSpec, network.SrcStatus, int64) {
	if retry, ok := s.pace.gate(now); !ok {
		return network.PacketSpec{}, network.SrcWait, retry
	}
	for {
		if s.idx >= s.order.Len() {
			s.idx = 0
			s.pass++
		}
		if s.pass >= s.passes {
			return network.PacketSpec{}, network.SrcDone, 0
		}
		j := s.pass*s.burst + s.inBurst
		if j >= s.msg.NPkts {
			s.inBurst = 0
			s.idx++
			continue
		}
		final := s.order.At(s.idx)
		fc := s.shape.Coords(final)
		inter := s.self
		inter[s.linear] = fc[s.linear]
		interRank := s.shape.Rank(inter)

		spec := network.PacketSpec{
			Size:    s.msg.PktSize(j),
			Payload: s.msg.PktPayload(j),
		}
		if j == 0 {
			spec.ExtraCPU = s.alpha
		}
		// Injection FIFOs are partitioned between the phases (the paper's
		// "reserved" FIFOs): even classes carry phase-1 linear packets, odd
		// classes carry phase-2 planar packets, so a linear packet is never
		// queued behind a planar one or vice versa.
		if interRank == s.shape.Rank(s.self) {
			// The destination shares this node's linear coordinate: no
			// phase-1 hop; inject directly as a phase-2 (planar) packet.
			spec.Dst = int32(final)
			spec.Class = tpsPhase2Class(int32(final))
			spec.Kind = kindTPS2
		} else {
			spec.Dst = int32(interRank)
			spec.Aux = int32(final)
			spec.Class = tpsPhase1Class(int32(interRank))
			spec.Kind = kindTPS1
		}
		s.inBurst++
		if s.inBurst == s.burst {
			s.inBurst = 0
			s.idx++
		}
		s.pace.charge(now, spec.Size)
		return spec, network.SrcReady, 0
	}
}

// tpsHandler forwards phase-1 packets onto the planar phase and accounts
// final deliveries.
type tpsHandler struct {
	recvPayload []int64
	forwarded   []int64 // packets re-injected per intermediate node
}

func (h *tpsHandler) OnDeliver(d network.Delivered, fw []network.PacketSpec) ([]network.PacketSpec, int64, bool) {
	if d.Kind == kindTPS1 {
		if d.Aux == d.Node {
			// The intermediate is the final destination (source and
			// destination share planar coordinates).
			h.recvPayload[d.Node] += int64(d.Payload)
			return fw, 0, true
		}
		h.forwarded[d.Node]++
		fw = append(fw, network.PacketSpec{
			Dst:     d.Aux,
			Size:    d.Size,
			Payload: d.Payload,
			Class:   tpsPhase2Class(d.Aux),
			Kind:    kindTPS2,
		})
		return fw, 0, false
	}
	h.recvPayload[d.Node] += int64(d.Payload)
	return fw, 0, true
}

// RunTPS runs the Two Phase Schedule strategy.
func RunTPS(opts Options) (Result, error) {
	return RunContext(context.Background(), StratTPS, opts)
}

func runTPS(opts *Options) (Result, error) {
	shape := opts.Shape
	linear := SelectTPSLinearDim(shape)
	if opts.TPSLinear > 0 {
		linear = torus.Dim(opts.TPSLinear - 1)
	}
	if opts.TPSCreditWindow > 0 {
		return runTPSCredit(opts, linear)
	}
	p := shape.P()
	msg := NewMsg(opts.MsgBytes, opts.Calib.HeaderBytes)
	sources := make([]network.Source, p)
	for n := 0; n < p; n++ {
		sources[n] = &tpsSource{
			shape:  shape,
			self:   shape.Coords(n),
			linear: linear,
			order:  torus.NewDestOrder(p, n, opts.Seed),
			msg:    msg,
			burst:  opts.Burst,
			alpha:  opts.Calib.AlphaAR,
			pace:   opts.pacer(false),
			passes: (msg.NPkts + opts.Burst - 1) / opts.Burst,
		}
	}
	h := &tpsHandler{recvPayload: make([]int64, p), forwarded: make([]int64, p)}
	nw, t, err := opts.RunPhase("TPS", sources, h, h.recvPayload, opts.allToAllPayload)
	if err != nil {
		return Result{}, err
	}
	r := opts.result(t, nw.Stats())
	r.TPSLinearDim = linear
	return r, nil
}
