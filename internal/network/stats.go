package network

import "math/bits"

// LatencyBuckets is the number of power-of-two latency histogram buckets.
const LatencyBuckets = 40

// NumEventKinds is the number of distinct simulator event kinds.
const NumEventKinds = 5

// Stats aggregates simulation measurements. Each engine accumulates its own
// Stats over the disjoint node range it owns; the per-engine instances are
// merged (see merge) when the run completes.
type Stats struct {
	// LinkBusy[node*6+dir] is the total time (units) the output link was
	// occupied by packet transfers.
	LinkBusy []int64
	// CPUBusy[node] is the total CPU time consumed by packet handling.
	CPUBusy []int64

	PacketsInjected   int64
	WireBytesInjected int64

	// EventsByKind counts dispatched events per kind (arrive, service, cpu,
	// credit, fault); every one was pushed on and popped from the event
	// queue exactly once.
	EventsByKind [NumEventKinds]int64

	// GrantsByVC counts link grants per virtual channel (dyn0, dyn1,
	// bubble): a high bubble share indicates dynamic-VC exhaustion.
	GrantsByVC [NumVC]int64

	// LastInject is the completion time of the last injection CPU op
	// (source or software forward); FinishTime - LastInject is the drain
	// tail.
	LastInject int64

	// MaxPendingFw is the largest software-forward backlog observed at any
	// node: the intermediate-memory requirement of indirect strategies
	// (packets awaiting CPU re-injection).
	MaxPendingFw int

	// Final deliveries (packets whose handler marked them final).
	FinalPackets int64
	FinalPayload int64
	FinishTime   int64

	// All deliveries including intermediate (forwarded) hops.
	TotalDelivered int64

	// DeadLinkTicks is the summed outage time of faulted links (one link down
	// for T units contributes T): each Up transition accrues its outage, and
	// links still down at finish accrue [down, FinishTime) (closeFaultStats).
	// Identical at any shard count.
	DeadLinkTicks int64

	// Reroutes counts packets redirected around a dead link (flipped to the
	// long way around a ring), at fault application, arrival, or injection.
	// Identical at any shard count, like DeadLinkTicks.
	Reroutes int64

	// LatencyHist[i] counts final packets with injection-to-delivery
	// latency in [2^i, 2^(i+1)).
	LatencyHist [LatencyBuckets]int64
	LatencySum  int64
	LatencyMax  int64
}

// Events returns the total number of processed simulator events.
func (s *Stats) Events() int64 {
	var n int64
	for _, c := range s.EventsByKind {
		n += c
	}
	return n
}

// reset zeroes all measurements in place, keeping the per-node slice
// allocations for reuse by Network.Reset.
func (s *Stats) reset() {
	linkBusy, cpuBusy := s.LinkBusy, s.CPUBusy
	for i := range linkBusy {
		linkBusy[i] = 0
	}
	for i := range cpuBusy {
		cpuBusy[i] = 0
	}
	*s = Stats{LinkBusy: linkBusy, CPUBusy: cpuBusy}
}

// clone returns a deep copy: the per-node slices are
// duplicated so the copy shares no memory with live engine state. Backing
// Network.Stats with a clone is what lets callers keep (or mutate) a
// snapshot across a later Reset - returning the live struct used to let a
// sweep's next run silently zero a caller's captured counters.
func (s *Stats) clone() *Stats {
	c := *s
	c.LinkBusy = append([]int64(nil), s.LinkBusy...)
	c.CPUBusy = append([]int64(nil), s.CPUBusy...)
	return &c
}

// merge folds one engine's statistics into s. Counters add; watermarks take
// the max. Engines own disjoint node ranges, so the per-node slices add
// without overlap.
func (s *Stats) merge(o *Stats) {
	for i, v := range o.LinkBusy {
		s.LinkBusy[i] += v
	}
	for i, v := range o.CPUBusy {
		s.CPUBusy[i] += v
	}
	s.PacketsInjected += o.PacketsInjected
	s.WireBytesInjected += o.WireBytesInjected
	for i, v := range o.EventsByKind {
		s.EventsByKind[i] += v
	}
	for i, v := range o.GrantsByVC {
		s.GrantsByVC[i] += v
	}
	if o.LastInject > s.LastInject {
		s.LastInject = o.LastInject
	}
	if o.MaxPendingFw > s.MaxPendingFw {
		s.MaxPendingFw = o.MaxPendingFw
	}
	s.FinalPackets += o.FinalPackets
	s.FinalPayload += o.FinalPayload
	if o.FinishTime > s.FinishTime {
		s.FinishTime = o.FinishTime
	}
	s.TotalDelivered += o.TotalDelivered
	s.DeadLinkTicks += o.DeadLinkTicks
	s.Reroutes += o.Reroutes
	for i, v := range o.LatencyHist {
		s.LatencyHist[i] += v
	}
	s.LatencySum += o.LatencySum
	if o.LatencyMax > s.LatencyMax {
		s.LatencyMax = o.LatencyMax
	}
}

func (s *Stats) noteDelivery(now int64, p *packet, final bool) {
	s.TotalDelivered++
	if !final {
		return
	}
	s.FinalPackets++
	s.FinalPayload += int64(p.payload)
	if now > s.FinishTime {
		s.FinishTime = now
	}
	lat := now - p.enq
	s.LatencySum += lat
	if lat > s.LatencyMax {
		s.LatencyMax = lat
	}
	b := bits.Len64(uint64(lat))
	if b >= LatencyBuckets {
		b = LatencyBuckets - 1
	}
	s.LatencyHist[b]++
}

// MeanLatency returns the mean injection-to-delivery latency of final
// packets, in time units.
func (s *Stats) MeanLatency() float64 {
	if s.FinalPackets == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.FinalPackets)
}

// MaxLinkUtilization returns the highest per-link occupancy fraction given
// the run duration.
func (s *Stats) MaxLinkUtilization(duration int64) float64 {
	if duration <= 0 {
		return 0
	}
	var m int64
	for _, b := range s.LinkBusy {
		if b > m {
			m = b
		}
	}
	return float64(m) / float64(duration)
}

// MeanLinkUtilization returns the mean occupancy fraction over totalLinks
// links (the caller's count of links that exist; slots for mesh edges stay
// zero and add nothing to the sum).
func (s *Stats) MeanLinkUtilization(duration int64, totalLinks int) float64 {
	if duration <= 0 || totalLinks <= 0 {
		return 0
	}
	var sum int64
	for _, b := range s.LinkBusy {
		sum += b
	}
	return float64(sum) / (float64(duration) * float64(totalLinks))
}
