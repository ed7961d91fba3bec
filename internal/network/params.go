// Package network implements a packet-granularity discrete-event simulator
// of the Blue Gene/L torus interconnect: input-queued routers with per-input
// virtual-channel FIFOs, token (credit) flow control, a bubble escape
// channel with dimension-ordered deterministic routing, minimal adaptive
// routing with join-the-shortest-queue output selection, injection and
// reception FIFOs, and a serial per-node CPU model for packet handling.
//
// Time is measured in abstract "byte-times": one unit is the time to move
// one byte across one torus link at the paper's effective rate
// (beta = 6.48 ns at calibration). A packet of S wire bytes occupies a link
// for S units. The CPU moves CPUDen bytes per unit aggregate (default 4,
// the paper's "processor can keep about four links busy").
package network

import "fmt"

// Packet size limits, from the Blue Gene/L torus: packets are multiples of
// 32 bytes up to 256 bytes; the paper's messaging runtime never sends less
// than 64 bytes.
const (
	MaxPacketBytes = 256
	MinPacketBytes = 64
	PacketGranule  = 32
)

// Virtual channel indices at each router input port.
const (
	VCDyn0   = 0 // dynamic (adaptive) channel 0
	VCDyn1   = 1 // dynamic (adaptive) channel 1
	VCBubble = 2 // bubble escape channel (deterministic, dimension-ordered)
	NumVC    = 3
)

// Params configures the simulated machine; it is fixed for the life of a
// Network. What varies from run to run on one machine - the checker flag, the
// fault schedule, the observer and the context - is each run's own
// (RunSpec). The zero value is not valid; use DefaultParams.
type Params struct {
	// VCBytes is the buffer capacity of each input virtual-channel FIFO in
	// bytes (BG/L: ~1 KiB, i.e. four full-size packets).
	VCBytes int32

	// InjFIFOs is the number of injection FIFOs per node. The collective
	// layer maps injection classes onto FIFOs; the Two Phase Schedule
	// reserves distinct FIFOs for its two phases.
	InjFIFOs int

	// InjFIFOBytes is the capacity of each injection FIFO in bytes.
	InjFIFOBytes int32

	// RecvFIFOBytes is the capacity of the reception FIFO in bytes. When
	// full, arriving packets stall in their input VCs (backpressure).
	RecvFIFOBytes int32

	// RouterDelay is the per-hop pipeline latency in time units added on
	// top of the wire occupancy (approximately 100 ns on BG/L).
	RouterDelay int64

	// CreditDelay is the latency of a token (credit) return to the
	// upstream router, in time units.
	CreditDelay int64

	// CPU cost of handling one packet of S bytes is S*CPUNum/CPUDen time
	// units; the default 1/4 lets the core sustain four links of traffic.
	CPUNum, CPUDen int64

	// InjectTokens is the minimum free space (bytes) a dynamic VC must have
	// before a packet *entering* a dimension (an injection or a turn) may be
	// granted onto it; packets continuing along one need only one
	// flit-credit (engine.grantTokens). Giving through-traffic priority (as
	// the BG/L torus arbiter does) keeps free slack circulating instead of
	// letting entrants collapse saturated rings into a one-hole conveyor.
	InjectTokens int32

	// EscapeDelay is how long an adaptive packet must sit blocked before it
	// may fall back to the bubble escape VC (engine.escapeAt). It was added
	// so eager escape could not make the slot-accounted escape ring the main
	// carrier. Measured, eager escape keeps every table row's seed mean
	// inside its seed band with 9-15% fewer events, and is within 0.5% on
	// ablation_test.go's unpaced saturated ring; its rent is the killed-link
	// run of TestKilledLinkDegradesGracefully, which under eager escape ends
	// 6.7% sooner than the healthy one, outside that test's 5% band
	// (DESIGN.md §2).
	EscapeDelay int64

	// VCLookahead is the number of packets at the front of each dynamic VC
	// the arbiter may choose among (Params.window; the VC buffers are
	// random-access SRAM). 1 models a strict FIFO: over seeds it costs 13.7
	// points of peak on AR 16x16 and 6.0 on TPS 8x8x8, far outside their seed
	// bands (DESIGN.md §2), and up to 3% on ablation_test.go's unpaced
	// saturated ring. The bubble escape VC is always strictly FIFO (the ring
	// invariant depends on it), as are injection FIFOs.
	VCLookahead int32
}

// DefaultParams returns the calibration used throughout the reproduction.
func DefaultParams() Params {
	return Params{
		// BG/L VC FIFOs are ~1 KiB; the simulator models packets as atomic
		// units, so effective buffering is doubled to stand in for the
		// flit-level pipelining (a packet streaming through a draining
		// buffer) that packet-atomic credits cannot express.
		VCBytes:  2048,
		InjFIFOs: 6, // BG/L has six normal injection FIFOs

		InjFIFOBytes:  1024,
		RecvFIFOBytes: 8192,
		RouterDelay:   15,
		CreditDelay:   15,
		CPUNum:        1,
		CPUDen:        4,
		VCLookahead:   4,
		InjectTokens:  3 * MaxPacketBytes,
		EscapeDelay:   64,
	}
}

// CPUCost returns the CPU time to handle a packet of size bytes.
func (p Params) CPUCost(size int32) int64 {
	return int64(size) * p.CPUNum / p.CPUDen
}

// validate rejects parameter combinations the simulator cannot run: buffer
// geometry that deadlocks the escape channel.
func (p Params) validate() error {
	// VCBytes must admit a joining packet under the bubble rule
	// (size + one full-packet bubble), or the escape channel deadlocks.
	if p.InjFIFOs < 1 || p.VCBytes < 2*MaxPacketBytes || p.CPUDen <= 0 || p.VCLookahead < 1 {
		return fmt.Errorf("network: invalid params %+v", p)
	}
	return nil
}
