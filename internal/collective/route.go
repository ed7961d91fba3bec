package collective

import (
	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// A strategy is an injection order (schedule.go) and a route plan. The
// paper's strategies share one order - randomized destinations, a burst of
// packets per visit (Section 3) - and differ only in where a packet is turned
// around in software on its way: nowhere (AR, DR, Throttle, MPI), once, on the
// linear dimension (the Two Phase Schedule, Section 4.1), or twice (Section
// 4.1's X->Y->Z comparator).

// route groups the torus dimensions into software legs. A packet travels the
// legs in order, one hardware-routed packet per leg: the CPU of the node where
// a leg ends receives it and re-injects it on the next (relay). Every packet
// carries its final destination in Aux, which the network only copies, so a
// packet is final exactly where Aux names the receiving node.
type route struct {
	shape   torus.Shape
	stages  int                 // software legs; 1 means no forwarding
	stageOf [torus.NumDims]int8 // the leg that travels each dimension
	det     bool                // deterministic dimension-ordered hardware routing
}

// directRoute sends every packet straight to its final destination.
func directRoute(s torus.Shape, det bool) *route {
	return &route{shape: s, stages: 1, det: det}
}

// tpsRoute is the Two Phase Schedule. Phase 1 sends a packet along the linear
// dimension to the intermediate node whose linear coordinate matches the
// final destination's; that node's CPU re-injects it in phase 2, which uses
// only the two planar dimensions. The phases overlap: linear packets never
// compete with planar packets for VC space in the same dimension, and a
// destination in the sender's own plane skips phase 1.
func tpsRoute(s torus.Shape, linear torus.Dim) *route {
	r := &route{shape: s, stages: 2, stageOf: [torus.NumDims]int8{1, 1, 1}}
	r.stageOf[linear] = 0
	return r
}

// xyzRoute is the three-phase dimension-ordered indirect scheme the paper's
// Section 4.1 compares TPS against:
//
//	"A similar scheme can also be designed over a 3D torus with two phases
//	 of forwarding, where packets are first routed along X links and then
//	 turned around in software along the Y dimension and then routed in
//	 software along the Z dimension; this approach is similar to the HPCC
//	 Randomaccess strategy described in [5]. We believe the Two Phase
//	 scheme gains from lower overheads as it has only one forwarding
//	 phase."
//
// Each stage boundary costs a CPU receive + re-inject, so the scheme pays two
// forwarding phases where TPS pays one - implementing it makes the paper's
// claim measurable (TestShapeXYZPaysMoreCPUThanTPS; `aabench -exp degrade`
// runs the two side by side).
func xyzRoute(s torus.Shape) *route {
	return &route{shape: s, stages: 3, stageOf: [torus.NumDims]int8{0, 1, 2}}
}

// next returns the node a packet at cur heads to on its way to final, and the
// leg that takes it there: the earliest leg with a coordinate still to fix,
// which fixes every coordinate of its dimensions.
func (r *route) next(cur, final int32) (target int32, stage int8) {
	c, f := r.shape.Coords(int(cur)), r.shape.Coords(int(final))
	stage = int8(r.stages - 1)
	for d, k := range r.stageOf {
		if c[d] != f[d] && k < stage {
			stage = k
		}
	}
	for d, k := range r.stageOf {
		if k == stage {
			c[d] = f[d]
		}
	}
	return int32(r.shape.Rank(c)), stage
}

// class spreads packets across the injection FIFO classes by leg target (as
// BG/L's runtime does, so one congested direction cannot head-of-line block
// injection toward idle links) and partitions the classes between the legs
// (the paper's "reserved" FIFOs), so a packet of one leg is never queued
// behind a packet of another.
func (r *route) class(target int32, stage int8) int8 {
	n := int32(r.stages)
	return int8(n*(target%(60/n))) + stage
}

// leg addresses a packet at cur to the end of its next leg toward final.
func (r *route) leg(cur, final, size, payload int32) network.PacketSpec {
	target, stage := r.next(cur, final)
	return network.PacketSpec{
		Dst:     target,
		Aux:     final,
		Size:    size,
		Payload: payload,
		Det:     r.det,
		Class:   r.class(target, stage),
		Kind:    uint8(stage),
	}
}

// packet returns packet j of message g from cur to final; the message's
// startup cost rides on its first packet.
func (r *route) packet(cur, final int32, g Msg, j int, startup int64) network.PacketSpec {
	spec := r.leg(cur, final, g.PktSize(j), g.PktPayload(j))
	if j == 0 {
		spec.ExtraCPU = startup
	}
	return spec
}

// kindCredit marks TPS flow-control credit packets; data packets carry their
// leg as Kind.
const kindCredit uint8 = 0xFF

// relay is the delivery handler of every strategy and pattern: count the
// payload of a packet that has reached its final destination, forward any
// other one leg further, and feed VMesh's row-leg (Kind 0) payload to its gate.
// The counters are indexed by receiving node, so sharded workers never share one.
type relay struct {
	route *route
	recv  []int64
	gate  *columnGate // nil but for VMesh
}

func (h *relay) OnDeliver(d network.Delivered, fw []network.PacketSpec) ([]network.PacketSpec, int64, bool) {
	if d.Aux == d.Node {
		h.recv[d.Node] += int64(d.Payload)
		if h.gate != nil && d.Kind == 0 {
			h.gate.got[d.Node] += int64(d.Payload)
		}
		return fw, 0, true
	}
	return append(fw, h.route.leg(d.Node, d.Aux, d.Size, d.Payload)), 0, false
}
