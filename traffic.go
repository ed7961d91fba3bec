package alltoall

import (
	"context"

	"alltoall/internal/traffic"
)

// Beyond all-to-all: many-to-many traffic patterns on the same simulated
// torus (the paper's introduction motivates applying its analysis to such
// patterns). See the traffic example for usage.

// Pattern generates per-source destination lists for a many-to-many run.
type Pattern = traffic.Pattern

// The built-in patterns.
type (
	// Shift sends each rank one message Offset ranks ahead (wrapping).
	Shift = traffic.Shift
	// DimShift shifts along one torus dimension by a fixed hop count.
	DimShift = traffic.DimShift
	// Transpose exchanges X and Y coordinates (square XY planes only).
	Transpose = traffic.Transpose
	// RandomPermutation pairs every rank with a distinct random partner.
	RandomPermutation = traffic.RandomPermutation
	// HotSpot sends every rank's message to one root (incast).
	HotSpot = traffic.HotSpot
	// RandomSubset sends each rank one message to K distinct random peers.
	RandomSubset = traffic.RandomSubset
)

// PatternResult reports a RunPatternContext run.
type PatternResult = traffic.Result

// RunPatternContext executes a many-to-many pattern on the simulated torus
// under a context, with the same Option vocabulary as RunContext: shape,
// message size, shards, checking and faults all mean the same thing for
// pattern runs as for the all-to-all strategies, plus WithDetRouting selects
// deterministic dimension-ordered routing. Cancellation aborts the run with
// an error wrapping ErrCanceled; an exceeded MaxTime wraps ErrMaxTime.
//
//	res, err := alltoall.RunPatternContext(ctx, alltoall.Transpose{},
//		alltoall.WithShape(alltoall.NewTorus(8, 8, 1)),
//		alltoall.WithMsgBytes(4096))
func RunPatternContext(ctx context.Context, p Pattern, opts ...Option) (PatternResult, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return traffic.RunOpts(ctx, p, o)
}
