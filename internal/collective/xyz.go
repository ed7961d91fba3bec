package collective

import (
	"context"

	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// The three-phase dimension-ordered indirect scheme (XYZ), the comparator
// the paper's Section 4.1 discusses:
//
//	"A similar scheme can also be designed over a 3D torus with two phases
//	 of forwarding, where packets are first routed along X links and then
//	 turned around in software along the Y dimension and then routed in
//	 software along the Z dimension; this approach is similar to the HPCC
//	 Randomaccess strategy described in [5]. We believe the Two Phase
//	 scheme gains from lower overheads as it has only one forwarding
//	 phase."
//
// Every packet is software-routed one dimension at a time: stage 1 along X
// to (xd, ys, zs), stage 2 along Y to (xd, yd, zs), stage 3 along Z to the
// destination. Each stage boundary costs a CPU receive + re-inject, so the
// scheme pays two forwarding phases where TPS pays one - implementing it
// makes the paper's claim measurable (see BenchmarkAblation_XYZvsTPS and
// TestShapeXYZPaysMoreCPUThanTPS).

// xyzTarget returns the node a packet at cur should head to next on its way
// to final under X->Y->Z software routing, along with the stage kind, or
// (cur, 0) if cur already is final.
func xyzTarget(shape torus.Shape, cur torus.Coord, final torus.Coord) (torus.Coord, uint8) {
	for d := torus.Dim(0); d < torus.NumDims; d++ {
		if cur[d] != final[d] {
			next := cur
			next[d] = final[d]
			return next, kindXYZ1 + uint8(d)
		}
	}
	return cur, 0
}

// xyzClass partitions injection FIFO classes by stage so a stage-1 packet
// is never queued behind a stage-3 packet: class = stage mod 3 bucket.
func xyzClass(stage uint8, dst int32) int8 {
	return int8(3*(dst%20) + int32(stage-kindXYZ1))
}

// xyzSource emits each destination's packets addressed to their first-stage
// intermediate.
type xyzSource struct {
	shape torus.Shape
	self  torus.Coord
	order torus.DestOrder
	msg   Msg
	burst int
	alpha int64
	pace  pacer

	idx, pass, inBurst int
	passes             int
}

func (s *xyzSource) Next(now int64) (network.PacketSpec, network.SrcStatus, int64) {
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
		target, stage := xyzTarget(s.shape, s.self, s.shape.Coords(final))
		spec := network.PacketSpec{
			Dst:     int32(s.shape.Rank(target)),
			Aux:     int32(final),
			Size:    s.msg.PktSize(j),
			Payload: s.msg.PktPayload(j),
			Kind:    stage,
			Class:   xyzClass(stage, int32(s.shape.Rank(target))),
		}
		if j == 0 {
			spec.ExtraCPU = s.alpha
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

// xyzHandler forwards packets dimension by dimension.
type xyzHandler struct {
	shape       torus.Shape
	recvPayload []int64
	forwards    []int64 // per receiving node, so sharded workers never share a counter
}

func (h *xyzHandler) OnDeliver(d network.Delivered, fw []network.PacketSpec) ([]network.PacketSpec, int64, bool) {
	if d.Aux == d.Node {
		h.recvPayload[d.Node] += int64(d.Payload)
		return fw, 0, true
	}
	target, stage := xyzTarget(h.shape, h.shape.Coords(int(d.Node)), h.shape.Coords(int(d.Aux)))
	h.forwards[d.Node]++
	fw = append(fw, network.PacketSpec{
		Dst:     int32(h.shape.Rank(target)),
		Aux:     d.Aux,
		Size:    d.Size,
		Payload: d.Payload,
		Kind:    stage,
		Class:   xyzClass(stage, int32(h.shape.Rank(target))),
	})
	return fw, 0, false
}

// RunXYZ runs the three-phase dimension-ordered indirect all-to-all.
func RunXYZ(opts Options) (Result, error) {
	return RunContext(context.Background(), StratXYZ, opts)
}

func runXYZ(opts *Options) (Result, error) {
	shape := opts.Shape
	p := shape.P()
	msg := NewMsg(opts.MsgBytes, opts.Calib.HeaderBytes)
	sources := make([]network.Source, p)
	for n := 0; n < p; n++ {
		sources[n] = &xyzSource{
			shape:  shape,
			self:   shape.Coords(n),
			order:  torus.NewDestOrder(p, n, opts.Seed),
			msg:    msg,
			burst:  opts.Burst,
			alpha:  opts.Calib.AlphaAR,
			pace:   opts.pacer(false),
			passes: (msg.NPkts + opts.Burst - 1) / opts.Burst,
		}
	}
	h := &xyzHandler{shape: shape, recvPayload: make([]int64, p), forwards: make([]int64, p)}
	nw, t, err := opts.RunPhase("XYZ", sources, h, h.recvPayload, opts.allToAllPayload)
	if err != nil {
		return Result{}, err
	}
	return opts.result(t, nw.Stats()), nil
}
