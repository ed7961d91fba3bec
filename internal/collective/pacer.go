package collective

import (
	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// pacer is a token-bucket injection governor. The paper's runtime injects
// packets round-robin across destinations with per-destination startup
// costs; on real flit-level hardware, offered load beyond the bisection
// limit degrades gracefully. A packet-atomic simulator instead collapses
// into a buffer-jam regime under sustained overload, so every strategy
// paces its injection at the partition's bisection rate (Equation 2), with
// a configurable burst window. The Throttle strategy (Section 3.2) is the
// strict (zero-burst) variant.
type pacer struct {
	rateMilli  int64 // milli-units of time per injected byte (0 = unpaced)
	burstUnits int64 // bucket depth in time units
	v          int64 // virtual clock: time at which current debt clears
}

// newPacer builds a pacer at frac times the bisection rate of the shape:
// each node may sustain frac bytes per PeakTimePerByte/P units. The rate
// divides the peak by P although a node sends to only P-1 peers, so a source
// may inject P/(P-1) times faster than its share: 1.14x on an 8-node line,
// 1.0002x at 4096 nodes.
// burstPackets full-size packets may be injected ahead of the steady rate.
// frac slightly below 1 keeps the bottleneck links at the knee of their
// throughput curve instead of deep in the jam regime.
func newPacer(shape torus.Shape, burstPackets int, frac float64) pacer {
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	p := shape.P()
	rate := shape.PeakTimePerByte() / float64(p) / frac // units per byte
	rm := int64(rate * 1000)
	if rm < 1 {
		rm = 1
	}
	return pacer{
		rateMilli:  rm,
		burstUnits: int64(burstPackets) * network.MaxPacketBytes * rm / 1000,
	}
}

// gate reports whether an injection is admissible now; if not, it returns
// the time to retry.
func (p *pacer) gate(now int64) (retry int64, ok bool) {
	if p.rateMilli == 0 {
		return 0, true
	}
	if p.v-now > p.burstUnits {
		return p.v - p.burstUnits, false
	}
	return 0, true
}

// charge accounts an injected packet of the given size.
func (p *pacer) charge(now int64, bytes int32) {
	if p.rateMilli == 0 {
		return
	}
	if p.v < now {
		p.v = now
	}
	p.v += int64(bytes) * p.rateMilli / 1000
}
