// Package check defines the vocabulary of the simulator's runtime
// conformance layer: named invariants of the Blue Gene/L torus model and a
// structured, node/time-stamped violation type.
//
// The network engine validates these invariants at event granularity when
// the checker is on (network.Network.SetCheck; see
// internal/network/invariant.go for the enforcement sites); the
// property/metamorphic suite in internal/conformance runs every strategy
// with checking enabled. The invariants are the conservation laws the
// reproduction's credibility rests on - a silent
// violation of any of them can masquerade as a contention finding.
package check

import "fmt"

// Invariant names one conservation law of the simulated machine.
type Invariant string

const (
	// CreditConservation: per (link, VC) token accounting. A router never
	// holds more credits for a neighbour's input VC than that VC's capacity,
	// and at quiescence every credit is back home (tokens == VCBytes).
	CreditConservation Invariant = "credit-conservation"

	// BubbleSlots: Puente's bubble rule on the escape VC. Escape-channel
	// tokens are whole max-packet slots: never negative, never fragmented,
	// and a packet joining a ring leaves at least one free slot behind.
	BubbleSlots Invariant = "bubble-slots"

	// FIFOOccupancy: every FIFO (input VC, injection, reception) stays
	// within its byte budget - dynamic VCs may overshoot by strictly less
	// than one max packet (flit-credit streaming), the bubble VC and the
	// injection/reception FIFOs not at all.
	FIFOOccupancy Invariant = "fifo-occupancy"

	// MonotonicTime: event timestamps never move backward - within an
	// engine's pop sequence, and across shard windows: a cross-shard
	// message must land at or after the receiving shard's clock.
	MonotonicTime Invariant = "monotonic-time"

	// Quiescence: at end of run every injected packet was delivered exactly
	// once, every queue is empty, every credit is home, and no CPU or
	// forwarding backlog remains.
	Quiescence Invariant = "quiescence"

	// OccupancyMask: the router's arbitration indexes agree with what they
	// summarize - the non-empty-queue bitmask with the queues, the
	// token-mask word with the credit counters (drift would silently skip
	// queues or grants during service).
	OccupancyMask Invariant = "occupancy-mask"

	// LinkLiveness: a link that does not exist (a mesh edge) stays parked
	// busy forever, and the fault-injection discipline holds: a router never
	// grants a packet onto a link that is down, outage bookkeeping stays
	// coherent (a down link has an open outage interval, an up link does
	// not), and degraded links carry a sane stretch factor.
	LinkLiveness Invariant = "link-liveness"
)

// Violation is one detected invariant breach, stamped with the node and
// simulation time at which it was caught.
type Violation struct {
	Invariant Invariant
	Node      int32
	Time      int64
	Detail    string
}

// Error formats the violation as "check: <invariant> violated at node N
// t=T: detail", the diagnostic shape the conformance suite asserts on.
func (v *Violation) Error() string {
	return fmt.Sprintf("check: %s violated at node %d t=%d: %s", v.Invariant, v.Node, v.Time, v.Detail)
}

// Violatef builds a Violation with a formatted detail string.
func Violatef(inv Invariant, node int32, t int64, format string, args ...any) *Violation {
	return &Violation{Invariant: inv, Node: node, Time: t, Detail: fmt.Sprintf(format, args...)}
}
