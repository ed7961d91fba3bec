// Package collective implements the paper's all-to-all communication
// strategies on top of the simulated Blue Gene/L torus network:
//
//   - AR: direct, randomized destination order, adaptive routing
//   - DR: direct, randomized order, deterministic dimension-order routing
//   - Throttled AR: AR with injection paced to the bisection rate
//   - MPI: the production MPI-style baseline (AR schedule, higher startup)
//   - TPS: the Two Phase Schedule indirect strategy for asymmetric tori
//   - VMesh: the 2D virtual-mesh message-combining strategy for short
//     messages
package collective

import "alltoall/internal/network"

// Packetization follows the paper's messaging runtime: a message of m
// payload bytes carries a 48-byte software header in its first packet; the
// wire total is rounded up to the torus's 32-byte packet granularity and
// split into packets of at most 256 bytes, none smaller than 64 bytes.

// Msg describes the fixed packetization of one message.
type Msg struct {
	Payload int   // application bytes
	Header  int   // software header bytes (first packet only)
	Wire    int64 // total wire bytes across all packets
	NPkts   int
}

// NewMsg packetizes a message of m payload bytes with the given software
// header size.
func NewMsg(m, header int) Msg {
	total := int64(m + header)
	w := (total + network.PacketGranule - 1) / network.PacketGranule * network.PacketGranule
	if w < network.MinPacketBytes {
		w = network.MinPacketBytes
	}
	n := int((w + network.MaxPacketBytes - 1) / network.MaxPacketBytes)
	last := w - int64(n-1)*network.MaxPacketBytes
	if last < network.MinPacketBytes {
		// Pad the runt final packet up to the runtime minimum.
		w += network.MinPacketBytes - last
	}
	return Msg{Payload: m, Header: header, Wire: w, NPkts: n}
}

// SameTraffic reports whether the run o describes injects exactly the same
// packets at MsgBytes m as at its own size. It does when every message the
// run sends has the same wire total at both sizes, which fixes its packet
// count and sizes: the two simulations are then one, and differ only in the
// payload each packet is credited with (Options.Retarget). The direct
// strategies, TPS and XYZ send one message a pair; VMesh sends a combined row
// message and a combined column message, and both must match. The default MaxTime grows with m, so
// a run at the smaller size stands for the larger one, not the reverse.
func (o Options) SameTraffic(m int) bool {
	c := o.calib()
	same := func(blocks, extra int) bool {
		a, b := NewMsg(blocks*(o.MsgBytes+extra), c.HeaderBytes), NewMsg(blocks*(m+extra), c.HeaderBytes)
		return a.Wire == b.Wire
	}
	switch o.Strategy {
	case StratAR, StratDR, StratThrottle, StratMPI, StratTPS, StratXYZ:
		return same(1, 0)
	case StratVMesh:
		pvx, pvy, err := o.vmeshFactors()
		return err == nil && same(pvy, c.ProtoBytes) && same(pvx, c.ProtoBytes)
	}
	return false
}

// PktSize returns the wire size of packet j (0-based).
func (g Msg) PktSize(j int) int32 {
	if j < 0 || j >= g.NPkts {
		panic("collective: packet index out of range")
	}
	if j < g.NPkts-1 {
		return network.MaxPacketBytes
	}
	return int32(g.Wire - int64(g.NPkts-1)*network.MaxPacketBytes)
}

// PktPayload returns the application payload bytes attributed to packet j.
// The first packet's capacity is reduced by the header; trailing padding
// carries no payload.
func (g Msg) PktPayload(j int) int32 {
	if j < 0 || j >= g.NPkts {
		panic("collective: packet index out of range")
	}
	cap0 := int(g.PktSize(0)) - g.Header
	if cap0 < 0 {
		cap0 = 0
	}
	if j == 0 {
		if g.Payload < cap0 {
			return int32(g.Payload)
		}
		return int32(cap0)
	}
	// Packets 1..NPkts-2 are full-size; only the capacity consumed before j
	// matters.
	consumed := cap0 + (j-1)*network.MaxPacketBytes
	rem := g.Payload - consumed
	if rem < 0 {
		rem = 0
	}
	if capj := int(g.PktSize(j)); rem > capj {
		rem = capj
	}
	return int32(rem)
}
